"""Core graph representation, deterministic text I/O, and instance generators.

Vertices are dense integer ids 0..n-1. A Graph's adjacency is immutable once
built. Its neighbor sets are built on first use and cached, and the cache holds
nothing else, so a Graph is still safe to share across threads and worker
processes. Group structure (for the hardness constructions) lives in
LabeledInstance, keeping every solver oblivious to it.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

from .errors import GraphParseError

Edge = tuple[int, int]

# The most vertices a graph document's header may declare, checked before
# anything is allocated; far above J's 32n for any source the solvers can run.
MAX_VERTICES = 2**20

# Every isolated vertex shares this neighbor set; a fresh empty frozenset per
# vertex costs 224 bytes, and frozenset() is not a singleton.
_NO_NEIGHBORS: frozenset[int] = frozenset()


def canonical_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _reject_first_bad_edge(n: int, edges: Iterable[Edge]) -> NoReturn:
    """Raise the ValueError naming the first edge that Graph.from_edges rejects.

    The edges are read in order up to the first out-of-range endpoint or
    self-loop, which is named unless a duplicate came before it. A non-pair
    met first raises its unpacking error; with no bad edge but duplicates,
    the first duplicate is named.
    """
    seen: set[Edge] = set()
    dup: Edge | None = None
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            if dup is not None:
                break
            if u == v and 0 <= u < n:
                raise ValueError(f"self-loop at vertex {u}")
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        e = canonical_edge(u, v)
        if dup is None and e in seen:
            dup = e
        seen.add(e)
    if dup is not None:
        raise ValueError(f"duplicate edge {dup}")
    raise AssertionError("every edge is valid")


class Graph:
    """Simple undirected unweighted graph with sorted per-vertex neighbor lists.

    A vertex's neighbor set is built on first use and cached. The cache only
    holds sets equal to the neighbor lists, so a Graph is still safe to
    share: two threads that race build equal sets, and a pickle carries the
    lists alone.
    """

    __slots__ = ("n", "m", "_adj", "_sets")

    def __init__(self, n: int, adj: Sequence[Sequence[int]]):
        self.n = n
        self._adj = tuple(map(tuple, adj))
        self._sets: list[frozenset[int] | None] = [None] * n
        self.m = sum(map(len, self._adj)) // 2

    def __reduce__(self):
        return type(self), (self.n, self._adj)

    @classmethod
    def from_endpoints(cls, n: int, us: Sequence[int], vs: Sequence[int]) -> "Graph":
        """Build the graph whose i-th edge joins us[i] and vs[i].

        Rejects a negative vertex count, endpoint sequences of different
        lengths, self-loops, duplicate edges (in either orientation), and
        out-of-range endpoints; the error names the first bad edge in input
        order. No tuple is made per edge.
        """
        if n < 0:
            raise ValueError(f"need n >= 0, got {n}")
        m = len(us)
        if len(vs) != m:
            raise ValueError(f"{m} first endpoints but {len(vs)} second endpoints")
        # When 2m < n, most vertices have no edge: only the endpoints get a
        # list and the others share (). Otherwise n lists cost O(m) anyway.
        adj: list = [()] * n
        for v in range(n) if 2 * m >= n else {x for x in itertools.chain(us, vs) if 0 <= x < n}:
            adj[v] = []
        for u, v in zip(us, vs):
            if u == v or not (0 <= u < n and 0 <= v < n):
                _reject_first_bad_edge(n, zip(us, vs))
            adj[u].append(v)
            adj[v].append(u)
        nonempty = list(filter(None, adj))
        for nbrs in nonempty:
            nbrs.sort()
        # a duplicate edge repeats a neighbor in both of its endpoints' lists
        if sum(map(len, map(set, nonempty))) != 2 * m:
            _reject_first_bad_edge(n, zip(us, vs))
        return cls(n, adj)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Edge]) -> "Graph":
        """Build a graph from an edge collection, checked as from_endpoints
        checks it. A non-pair raises its unpacking error, unless an
        out-of-range endpoint or a self-loop comes before it."""
        edges = list(edges) if n >= 0 else []  # from_endpoints rejects n first
        try:
            us = [u for u, _ in edges]
        except ValueError:  # a non-pair
            _reject_first_bad_edge(n, edges)
        return cls.from_endpoints(n, us, [v for _, v in edges])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def neighbor_set(self, v: int) -> frozenset[int]:
        s = self._sets[v]
        if s is None:
            nbrs = self._adj[v]
            s = self._sets[v] = frozenset(nbrs) if nbrs else _NO_NEIGHBORS
        return s

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        # has_edge is the oracles' inner loop: a built set costs one lookup
        try:
            return v in self._sets[u]
        except TypeError:  # not built yet: `v in None`
            return v in self.neighbor_set(u)

    def edges(self) -> list[Edge]:
        """All edges as canonical (u, v) pairs, sorted."""
        return [(u, v) for u in range(self.n) for v in self._adj[u] if u < v]

    def validate(self) -> None:
        """Assert the structural invariants; raises AssertionError on violation."""
        deg_total = 0
        for u in range(self.n):
            nbrs = self._adj[u]
            assert list(nbrs) == sorted(set(nbrs)), f"adjacency of {u} not sorted/unique"
            assert u not in nbrs, f"self-loop at {u}"
            for v in nbrs:
                assert 0 <= v < self.n, f"neighbor {v} of {u} out of range"
                assert self.has_edge(v, u), f"asymmetric edge ({u}, {v})"
            deg_total += len(nbrs)
        assert self.m == deg_total // 2, "edge count does not match degree sum"

    def without_vertices(self, removed: Iterable[int]) -> "Graph":
        """Drop all edges incident to `removed`, keeping the vertex-id space.

        The stripped vertices stay as isolated ids so that every other vertex
        keeps its name; isolated vertices never affect pairwise connectivity.
        """
        gone = set(removed)
        adj = [
            () if u in gone else tuple(v for v in self._adj[u] if v not in gone)
            for u in range(self.n)
        ]
        return Graph(self.n, adj)

    def with_edges(self, extra: Iterable[Edge]) -> "Graph":
        """Union with additional edges (duplicates with existing edges allowed)."""
        edge_set = set(self.edges())
        for u, v in extra:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            edge_set.add(canonical_edge(u, v))
        return Graph.from_edges(self.n, sorted(edge_set))

    def union(self, other: "Graph") -> "Graph":
        """Edge union on the shared id space; n is the larger vertex count."""
        n = max(self.n, other.n)
        edge_set = set(self.edges()) | set(other.edges())
        return Graph.from_edges(n, sorted(edge_set))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class EdgeSet:
    """Deduplicated list of canonical unordered vertex pairs."""

    pairs: tuple[Edge, ...]

    @classmethod
    def of(cls, pairs: Iterable[Edge]) -> "EdgeSet":
        canon = set()
        for u, v in pairs:
            if u == v:
                raise ValueError(f"self-loop pair ({u}, {v})")
            canon.add(canonical_edge(u, v))
        return cls(tuple(sorted(canon)))

    def __contains__(self, pair: Edge) -> bool:
        e = canonical_edge(*pair)
        i = bisect.bisect_left(self.pairs, e)
        return i < len(self.pairs) and self.pairs[i] == e

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass
class LabeledInstance:
    """A graph plus a partition of its vertices into named groups.

    Groups are disjoint and cover V(graph); vertices not claimed by a named
    group fall into the "plain" group.
    """

    graph: Graph
    groups: dict[str, tuple[int, ...]]

    @classmethod
    def build(cls, graph: Graph, groups: dict[str, Iterable[int]]) -> "LabeledInstance":
        norm = {tag: tuple(sorted(vs)) for tag, vs in groups.items()}
        claimed: set[int] = set()
        for tag, vs in norm.items():
            if vs and not (0 <= vs[0] and vs[-1] < graph.n):
                raise ValueError(f"group {tag!r} has a vertex outside 0..{graph.n - 1}")
            if len(set(vs)) != len(vs):
                raise ValueError(f"group {tag!r} lists a vertex twice")
            overlap = claimed.intersection(vs)
            if overlap:
                raise ValueError(f"group {tag!r} overlaps earlier groups on {sorted(overlap)}")
            claimed.update(vs)
        leftovers = [v for v in range(graph.n) if v not in claimed]
        if leftovers:
            if "plain" in norm:
                raise ValueError(f"vertices {leftovers} are in no group, and group 'plain' is taken")
            norm["plain"] = tuple(leftovers)
        inst = cls(graph, norm)
        inst.validate()
        return inst

    def group(self, tag: str) -> tuple[int, ...]:
        return self.groups[tag]

    def validate(self) -> None:
        seen: set[int] = set()
        for tag, vs in self.groups.items():
            assert list(vs) == sorted(vs), f"group {tag!r} not sorted"
            for v in vs:
                assert 0 <= v < self.graph.n, f"group {tag!r} has out-of-range vertex {v}"
                assert v not in seen, f"vertex {v} in two groups"
                seen.add(v)
        assert len(seen) == self.graph.n, "groups do not cover the vertex set"


# ---------------------------------------------------------------------------
# Text format: "n m" header, one "u v" line per edge, optional label sidecar
# after a "%labels" line. Emission is canonical so files diff cleanly.
# ---------------------------------------------------------------------------


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document; errors name the offending line (1-based).

    A canonical document, as emit_graph writes it, is checked and tokenised
    by a few whole-string passes in C (str.translate, json.loads). Any other
    document, and a canonical-looking one that fails a check, goes to the
    line parser, the only code that accepts other spacing or names an error.
    """
    g = _parse_canonical(text)
    return g if g is not None else _parse_lines(text)


_CANONICAL_HEADER = re.compile(r"[0-9]+ [0-9]+")
_DROP_DIGITS = str.maketrans("", "", "0123456789")
_SEPARATORS_TO_COMMAS = str.maketrans(" \n", ",,")


def _parse_canonical(text: str) -> Graph | None:
    """The graph of a document whose edge lines are all "u v\n" in ASCII
    digits without leading zeros, or None when the document is not of that
    form or not valid."""
    head, _, body = text.partition("\n")
    if not _CANONICAL_HEADER.fullmatch(head):
        return None
    n, m = (int(tok) for tok in head.split())
    if n > MAX_VERTICES:
        return None  # the line parser names the error
    if body.startswith("%"):
        body = ""
    elif (cut := body.find("\n%")) >= 0:
        body = body[: cut + 1]
    if not body:
        return Graph.from_endpoints(n, [], []) if m == 0 else None
    # canonical lines: with the digits gone, the separators alternate space,
    # newline; the length test comes first, so a huge m allocates nothing
    seps = body.translate(_DROP_DIGITS)
    if not (m > 0 and body[-1] == "\n" and len(seps) == 2 * m and seps == " \n" * m):
        return None
    # an empty digit run or a leading zero is not JSON, so json.loads rejects it
    try:
        tokens = json.loads("[" + body[:-1].translate(_SEPARATORS_TO_COMMAS) + "]")
        return Graph.from_endpoints(n, tokens[0::2], tokens[1::2])
    except ValueError:
        return None


def _parse_lines(text: str) -> Graph:
    """The line-by-line parser behind parse_graph."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise GraphParseError("missing header", line=1)
    header = lines[0].split()
    if len(header) != 2:
        raise GraphParseError(f"header must be 'n m', got {lines[0]!r}", line=1)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphParseError(f"non-integer header {lines[0]!r}", line=1) from None
    if n < 0 or m < 0:
        raise GraphParseError("negative n or m", line=1)
    if n > MAX_VERTICES:
        raise GraphParseError(f"header declares n={n}, above the limit of {MAX_VERTICES}", line=1)

    edges: list[Edge] = []
    seen: set[Edge] = set()
    for i, raw in enumerate(lines[1:], start=2):
        if raw.strip().startswith("%"):
            break
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise GraphParseError(f"expected 'u v', got {raw!r}", line=i)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"non-integer endpoint in {raw!r}", line=i) from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"vertex out of range in {raw!r}", line=i)
        if u == v:
            raise GraphParseError(f"self-loop {u}", line=i)
        e = canonical_edge(u, v)
        if e in seen:
            raise GraphParseError(f"duplicate edge {u} {v}", line=i)
        seen.add(e)
        edges.append(e)
    if len(edges) != m:
        raise GraphParseError(f"header declares m={m} but found {len(edges)} edges", line=1)
    return Graph.from_edges(n, edges)


def emit_graph(g: Graph) -> str:
    """Serialize to the canonical edge-list document (round-trips bit-exactly)."""
    names = [str(v) for v in range(g.n)]
    out = [f"{g.n} {g.m}"]
    for u in range(g.n):
        nbrs = g.neighbors(u)
        head = names[u] + " "
        out += [head + names[v] for v in nbrs[bisect.bisect_right(nbrs, u) :]]
    return "\n".join(out) + "\n"


def section_lines(text: str, marker: str) -> tuple[list[str], Callable[[int], int]]:
    """The lines of `text` from the one holding the first `marker` on, and a
    map from a 1-based position among them to the line number in `text`.

    No earlier line contains `marker`, so a reader looking for that section
    header can start here instead of walking the edge list.
    """
    at = text.find(marker)
    start = len(text) if at < 0 else text.rfind("\n", 0, at) + 1
    return text[start:].splitlines(), lambda i: len(text[:start].splitlines()) + i


def parse_labels(text: str) -> dict[str, tuple[int, ...]]:
    """Parse the "%labels" sidecar section into a group map."""
    groups: dict[str, tuple[int, ...]] = {}
    in_labels = False
    lines, line_no = section_lines(text, "%labels")
    for i, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if stripped == "%labels":
            in_labels = True
            continue
        if not in_labels or not stripped:
            continue
        if stripped.startswith("%"):
            break
        if not stripped.startswith("group "):
            raise GraphParseError(f"expected 'group <tag>: ...', got {raw!r}", line=line_no(i))
        head, _, body = stripped[len("group "):].partition(":")
        tag = head.strip()
        if not tag:
            raise GraphParseError("empty group tag", line=line_no(i))
        try:
            groups[tag] = tuple(int(tok) for tok in body.split())
        except ValueError:
            raise GraphParseError(f"non-integer vertex in group {tag!r}", line=line_no(i)) from None
    return groups


def emit_labeled(inst: LabeledInstance) -> str:
    """Edge-list document plus the label sidecar."""
    out = [emit_graph(inst.graph).rstrip("\n"), "%labels"]
    for tag in sorted(inst.groups):
        members = " ".join(str(v) for v in inst.groups[tag])
        out.append(f"group {tag}: {members}".rstrip())
    return "\n".join(out) + "\n"


def parse_labeled(text: str) -> LabeledInstance:
    return parsed_instance(parse_graph(text), parse_labels(text))


def parsed_instance(graph: Graph, groups: dict[str, tuple[int, ...]]) -> LabeledInstance:
    """LabeledInstance.build for parsed groups; a bad partition is a GraphParseError."""
    try:
        return LabeledInstance.build(graph, groups)
    except ValueError as exc:
        raise GraphParseError(f"bad %labels section: {exc}") from None


def parse_edge_pairs(text: str) -> EdgeSet:
    """Parse a bare list of "u v" lines (no header) into an EdgeSet."""
    pairs = []
    for i, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise GraphParseError(f"expected 'u v', got {raw!r}", line=i)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"non-integer endpoint in {raw!r}", line=i) from None
        if u == v:
            raise GraphParseError(f"self-loop {u}", line=i)
        pairs.append((u, v))
    return EdgeSet.of(pairs)


# ---------------------------------------------------------------------------
# Generators. All are deterministic for a fixed seed.
# ---------------------------------------------------------------------------


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p): each of the C(n, 2) edges appears independently."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} not in [0, 1]")
    rng = random.Random(seed)
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def gen_planted_4clique(n: int, base_p: float, plant: bool, seed: int) -> Graph:
    """G(n, base_p) with, optionally, a uniformly chosen 4-subset completed to a clique."""
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    if not 0.0 <= base_p <= 1.0:
        raise ValueError(f"p={base_p} not in [0, 1]")
    rng = random.Random(seed)
    edges = {(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < base_p}
    if plant:
        four = rng.sample(range(n), 4)
        edges.update(canonical_edge(u, v) for u, v in itertools.combinations(four, 2))
    return Graph.from_edges(n, sorted(edges))
