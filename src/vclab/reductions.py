"""Graph constructions that turn clique questions into connectivity questions.

The central objects:

- the 4-partite blowup of a graph (four copies of V, edges only between
  copies of adjacent originals in distinct groups);
- a source-sink isolating gadget Q(X, Y) that adds exactly |X| + |Y| to the
  connectivity of a designated pair while severing every other path through
  X and Y;
- two set-intersection filters that shift a pair's connectivity by a known
  offset while restricting which middle-layer vertices remain usable;
- the instance H (10n vertices) whose pair connectivities decide, against
  per-pair thresholds, whether a 4-clique contains a given adjacent pair;
- the instance J (32n vertices) whose Steiner connectivity over A and D
  decides whether every demand edge lies in some 4-clique.

Builders are pure and deterministic; every id layout is fixed so emitted
instances are reproducible byte for byte.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import DemandError, GraphParseError, QueryError
from .flow import ConnectivitySweep
from .graphs import (
    Edge,
    EdgeSet,
    Graph,
    LabeledInstance,
    canonical_edge,
    emit_labeled,
    parsed_instance,
    parse_graph,
    parse_labels,
    section_lines,
)
from .solvers import ConnectivityMatrix, steiner_at_least

ApvcHandle = Callable[[Graph], ConnectivityMatrix]
SteinerHandle = Callable[[Graph, tuple[int, ...]], int]


# ---------------------------------------------------------------------------
# 4-partite blowup.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FourPartite:
    """Four copies A, B, C, D of V(g), with inter-copy adjacency edges."""

    g: Graph
    inst: LabeledInstance
    orig: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.g.n

    # id layout: A = [0, n), B = [n, 2n), C = [2n, 3n), D = [3n, 4n)
    def b_of(self, v: int) -> int:
        return self.n + v

    def c_of(self, v: int) -> int:
        return 2 * self.n + v

    def d_of(self, v: int) -> int:
        return 3 * self.n + v

    def b_adjacent(self, x: int) -> frozenset[int]:
        """B-copies of neighbors of orig(x): the set B_x."""
        return frozenset(self.b_of(w) for w in self.g.neighbor_set(self.orig[x]))

    def b_nonadjacent(self, x: int) -> frozenset[int]:
        """B minus B_x; contains x's own B-copy."""
        return frozenset(self.inst.group("B")) - self.b_adjacent(x)

    def c_adjacent(self, x: int) -> frozenset[int]:
        return frozenset(self.c_of(w) for w in self.g.neighbor_set(self.orig[x]))

    def c_nonadjacent(self, x: int) -> frozenset[int]:
        return frozenset(self.inst.group("C")) - self.c_adjacent(x)


def four_partite(g: Graph) -> FourPartite:
    """Blow g up into 4 groups; a 4-clique survives iff one exists in g."""
    n = g.n
    edges = []
    for u, v in g.edges():
        # every ordered pair of distinct groups gives a distinct copy pair,
        # so one original edge becomes 12 edges with no duplicates
        for x, y in itertools.permutations(range(4), 2):
            edges.append((x * n + u, y * n + v))
    graph = Graph.from_edges(4 * n, edges)
    groups = {
        "A": range(n),
        "B": range(n, 2 * n),
        "C": range(2 * n, 3 * n),
        "D": range(3 * n, 4 * n),
    }
    inst = LabeledInstance.build(graph, groups)
    orig = tuple(v % n for v in range(4 * n))
    return FourPartite(g, inst, orig)


# ---------------------------------------------------------------------------
# Source-sink isolating gadget Q(X, Y).
# ---------------------------------------------------------------------------


def build_isolating_gadget(
    x_side: Iterable[int], y_side: Iterable[int], base_n: int | None = None
) -> LabeledInstance:
    """The gadget on X and Y, with fresh duplicate layers X1, X2, Y1, Y2.

    Duplicates get ids starting at base_n (default: just past the largest
    given id). Edges: X-X1 matching, X1-Y complete, Y-Y1 matching, Y1-X
    complete, X-X2 complete, Y-Y2 complete. Adding the gadget to any host R
    shifts kappa(x, y) up by exactly |X| + |Y| for non-adjacent x in X,
    y in Y, while cutting R's other vertices of X and Y out of play.
    """
    xs = tuple(sorted(x_side))
    ys = tuple(sorted(y_side))
    if not xs or not ys:
        raise QueryError("both sides of the gadget must be nonempty")
    if set(xs) & set(ys):
        raise QueryError(f"gadget sides overlap on {sorted(set(xs) & set(ys))}")
    if base_n is None:
        base_n = max(xs + ys) + 1
    if base_n <= max(xs + ys):
        raise QueryError("base_n overlaps the given ids")
    p, q = len(xs), len(ys)
    x1 = tuple(range(base_n, base_n + p))
    x2 = tuple(range(base_n + p, base_n + 2 * p))
    y1 = tuple(range(base_n + 2 * p, base_n + 2 * p + q))
    y2 = tuple(range(base_n + 2 * p + q, base_n + 2 * p + 2 * q))

    edges = []
    edges += [(xs[i], x1[i]) for i in range(p)]
    edges += [(a, b) for a in x1 for b in ys]
    edges += [(ys[j], y1[j]) for j in range(q)]
    edges += [(a, b) for a in y1 for b in xs]
    edges += [(a, b) for a in xs for b in x2]
    edges += [(a, b) for a in ys for b in y2]
    graph = Graph.from_edges(base_n + 2 * (p + q), edges)
    groups = {"X": xs, "X1": x1, "X2": x2, "Y": ys, "Y1": y1, "Y2": y2}
    return LabeledInstance.build(graph, groups)


def attach_gadget(r: Graph, x_side: Iterable[int], y_side: Iterable[int]) -> Graph:
    """Union of the host with a gadget whose duplicates start at id r.n."""
    gadget = build_isolating_gadget(x_side, y_side, base_n=r.n)
    return r.union(gadget.graph)


def gadget_reduced_host(r: Graph, x_side: Iterable[int], y_side: Iterable[int], x: int, y: int) -> Graph:
    """The host with every gadget-side vertex other than x, y stripped."""
    others = (set(x_side) | set(y_side)) - {x, y}
    return r.without_vertices(others)


# ---------------------------------------------------------------------------
# Set-intersection filters. Both live on a 6n id space that matches H's
# layout: B' = [4n, 5n), C' = [5n, 6n).
# ---------------------------------------------------------------------------


def _bp_of(fp: FourPartite, b: int) -> int:
    return b + 3 * fp.n


def _cp_of(fp: FourPartite, c: int) -> int:
    return c + 3 * fp.n


def _check_ad(fp: FourPartite, a: int, d: int) -> None:
    if a not in fp.inst.group("A"):
        raise QueryError(f"{a} is not in group A")
    if d not in fp.inst.group("D"):
        raise QueryError(f"{d} is not in group D")


def build_filter_b(fp: FourPartite, a: int, d: int) -> LabeledInstance:
    """The B-side filter between a and d.

    a reaches all of B directly; only copies of N(a) get a detour through
    B'; only copies of non-neighbors of d may continue from B to d. The net
    effect on kappa(a, d) after union with a host is the additive offset
    below, with only B_a-and-B_d copies still usable as through-vertices.
    """
    _check_ad(fp, a, d)
    n = fp.n
    b_all = fp.inst.group("B")
    edges = [(a, b) for b in b_all]
    edges += [(b, d) for b in sorted(fp.b_nonadjacent(d))]
    edges += [(a, _bp_of(fp, b)) for b in sorted(fp.b_adjacent(a))]
    edges += [(_bp_of(fp, b), d) for b in b_all]
    edges += [(b, _bp_of(fp, b)) for b in b_all]
    graph = Graph.from_edges(6 * n, edges)
    groups = {
        "a": (a,),
        "d": (d,),
        "B": b_all,
        "B'": tuple(_bp_of(fp, b) for b in b_all),
    }
    return LabeledInstance.build(graph, groups)


def filter_b_offset(fp: FourPartite, a: int, d: int) -> int:
    b_a, b_d = fp.b_adjacent(a), fp.b_adjacent(d)
    return len(fp.b_nonadjacent(d)) + len(b_a) + len(b_d - b_a)


def filter_b_reduced_host(fp: FourPartite, r: Graph, a: int, d: int) -> Graph:
    """Strip B down to B_a int B_d and wire a straight to those survivors."""
    keep = fp.b_adjacent(a) & fp.b_adjacent(d)
    stripped = r.without_vertices(set(fp.inst.group("B")) - keep)
    return stripped.with_edges((a, b) for b in sorted(keep))


def build_filter_c(fp: FourPartite, a: int, d: int) -> LabeledInstance:
    """Mirror filter on the C side, with the roles of a and d exchanged."""
    _check_ad(fp, a, d)
    n = fp.n
    c_all = fp.inst.group("C")
    edges = [(a, c) for c in sorted(fp.c_nonadjacent(a))]
    edges += [(c, d) for c in c_all]
    edges += [(a, _cp_of(fp, c)) for c in c_all]
    edges += [(_cp_of(fp, c), d) for c in sorted(fp.c_adjacent(d))]
    edges += [(_cp_of(fp, c), c) for c in c_all]
    graph = Graph.from_edges(6 * n, edges)
    groups = {
        "a": (a,),
        "d": (d,),
        "C": c_all,
        "C'": tuple(_cp_of(fp, c) for c in c_all),
    }
    return LabeledInstance.build(graph, groups)


def filter_c_offset(fp: FourPartite, a: int, d: int) -> int:
    c_a, c_d = fp.c_adjacent(a), fp.c_adjacent(d)
    return len(c_d) + len(fp.c_nonadjacent(a)) + len(c_a - c_d)


def filter_c_reduced_host(fp: FourPartite, r: Graph, a: int, d: int) -> Graph:
    keep = fp.c_adjacent(a) & fp.c_adjacent(d)
    stripped = r.without_vertices(set(fp.inst.group("C")) - keep)
    return stripped.with_edges((c, d) for c in sorted(keep))


# ---------------------------------------------------------------------------
# The APVC hard instance H and its per-pair witness core.
# ---------------------------------------------------------------------------

H_GROUPS = ("A", "B", "C", "D", "B'", "C'", "A1", "A2", "D1", "D2")


@dataclass
class HardInstance:
    """A built hard instance plus the numbers needed to read answers off it."""

    inst: LabeledInstance
    kind: str  # "apvc" or "steiner"
    source_n: int
    thresholds: dict[Edge, int] | None = None  # apvc: (a_id, d_id) -> threshold
    uniform_threshold: int | None = None  # steiner
    terminals: tuple[int, ...] | None = None  # steiner
    demand: EdgeSet | None = None  # steiner

    @property
    def graph(self) -> Graph:
        return self.inst.graph


def apvc_threshold(g: Graph, a: int, d: int) -> int:
    """4n + |N(a) int ~N(d)| + |~N(a) int N(d)| + 1.

    The complement ~N(v) is V minus N(v) and therefore contains v itself;
    that convention is load-bearing (for adjacent K4 vertices the value is
    19, not 17). With |N(a) int ~N(d)| = deg(a) - |N(a) int N(d)| the sum is
    computed as 4n + deg(a) + deg(d) - 2 |N(a) int N(d)| + 1.
    """
    common = len(g.neighbor_set(a) & g.neighbor_set(d))
    return 4 * g.n + g.degree(a) + g.degree(d) - 2 * common + 1


Block = tuple[int, int, Sequence[Sequence[int]]]


def _bipartite_edges(n: int, blocks: Iterable[Block]) -> tuple[list[int], list[int]]:
    """The endpoint lists of the edges (x0 + u, y0 + v) for every block
    (x0, y0, rows), u < n, v in rows[u]."""
    us: list[int] = []
    vs: list[int] = []
    for x0, y0, rows in blocks:
        for u in range(n):
            us += [x0 + u] * len(rows[u])
        vs += [y0 + v for u in range(n) for v in rows[u]]
    return us, vs


def _non_adjacency(g: Graph) -> list[list[int]]:
    """Row u lists ~N(u), which holds u itself."""
    return [[v for v in range(g.n) if not g.has_edge(u, v)] for u in range(g.n)]


def _h_blocks(g: Graph, non: list[list[int]]) -> list[Block]:
    """H's edge families as _bipartite_edges blocks, in closed form; `non`
    is _non_adjacency(g).

    The equivalent pair-by-pair union of filters and gadget is exercised in
    tests only.
    """
    n = g.n
    if n < 1:
        raise QueryError("need at least one vertex")
    full = range(n)
    every = [full] * n
    adj = [g.neighbors(u) for u in full]
    same = [(u,) for u in full]
    return [
        # filter families, collapsed over all (a, d)
        (0, n, every),  # A-B complete
        (n, 3 * n, non),  # B-D non-adj
        (0, 4 * n, adj),  # A-B' adj
        (4 * n, 3 * n, every),  # B'-D complete
        (n, 4 * n, same),  # B-B' matching
        (0, 2 * n, non),  # A-C non-adj
        (2 * n, 3 * n, every),  # C-D complete
        (0, 5 * n, every),  # A-C' complete
        (5 * n, 3 * n, adj),  # C'-D adj
        (2 * n, 5 * n, same),  # C-C' matching
        (n, 2 * n, adj),  # B-C adj
        # gadget Q(A, D) with A1 = [6n, 7n), A2 = [7n, 8n), D1 = [8n, 9n), D2 = [9n, 10n)
        (0, 6 * n, same),
        (6 * n, 3 * n, every),
        (3 * n, 8 * n, same),
        (8 * n, 0, every),
        (0, 7 * n, every),
        (3 * n, 9 * n, every),
    ]


def build_h(g: Graph) -> HardInstance:
    """The 10n-vertex instance whose (a, d) connectivities detect 4-cliques."""
    n = g.n
    us, vs = _bipartite_edges(n, _h_blocks(g, _non_adjacency(g)))
    graph = Graph.from_endpoints(10 * n, us, vs)
    groups = {tag: range(i * n, (i + 1) * n) for i, tag in enumerate(H_GROUPS)}
    inst = LabeledInstance.build(graph, groups)
    full = range(n)
    thresholds = {
        (u, 3 * n + v): apvc_threshold(g, u, v) for u in full for v in full
    }
    return HardInstance(inst, "apvc", n, thresholds=thresholds)


def build_h_hat(fp: FourPartite, a: int, d: int) -> Graph:
    """The witness core left between a and d after all filtering.

    a feeds the surviving B-copies, they connect to surviving C-copies by
    original adjacency, and those reach d. A positive kappa(a, d) here is
    exactly a path a-b-c-d, i.e. a 4-clique witness when a, d are adjacent.
    """
    _check_ad(fp, a, d)
    bs = sorted(fp.b_adjacent(a) & fp.b_adjacent(d))
    cs = sorted(fp.c_adjacent(a) & fp.c_adjacent(d))
    edges = [(a, b) for b in bs]
    edges += [(b, c) for b in bs for c in cs if fp.g.has_edge(fp.orig[b], fp.orig[c])]
    edges += [(c, d) for c in cs]
    return Graph.from_edges(4 * fp.n, edges)


def h_chain_offset(fp: FourPartite, a: int, d: int) -> int:
    """The total additive shift between kappa_H(a, d) and the witness core."""
    return 2 * fp.n + filter_b_offset(fp, a, d) + filter_c_offset(fp, a, d)


def solve_4clique_via_apvc(g: Graph, apvc: ApvcHandle | None = None) -> bool:
    """Decide 4-clique existence through connectivity queries on H.

    For each edge (u, v) of g the pair (u in A, v in D) is compared against
    its threshold. With an APVC handle, the whole matrix of H is computed
    once; without one, each pair gets a single threshold-capped flow with
    early exit on the first witness.
    """
    if g.n < 4:
        return False
    hard = build_h(g)
    n = g.n
    assert hard.thresholds is not None
    if apvc is not None:
        mat = apvc(hard.graph)
        return any(
            mat.entry(u, 3 * n + v) >= hard.thresholds[(u, 3 * n + v)]
            for u, v in g.edges()
        )
    sweep = ConnectivitySweep(hard.graph)
    for u, v in g.edges():
        thr = hard.thresholds[(u, 3 * n + v)]
        if sweep.query(u, 3 * n + v, cutoff=thr) >= thr:
            return True
    return False


# ---------------------------------------------------------------------------
# The Steiner hard instance J.
# ---------------------------------------------------------------------------


def steiner_threshold(n: int) -> int:
    return 5 * n + 1


def build_j(g: Graph, demand: EdgeSet) -> HardInstance:
    """H extended to a 32n-vertex Steiner instance over terminals A and D.

    Z mirrors original adjacency, W mirrors non-adjacency (including each
    vertex's own copy), bulk layers A' and D' of size 10n pin the same-side
    connectivities high, and a direct A-D edge is present exactly for the
    non-demand pairs. Every demand pair then sits at 5n (no 4-clique through
    it) or at least 5n + 1 (some 4-clique), so the Steiner connectivity of
    A and D answers the universal question at threshold 5n + 1.
    """
    n = g.n
    for u, v in demand:
        if not (0 <= u < n and 0 <= v < n and g.has_edge(u, v)):
            raise DemandError(f"demand edge {(u, v)} not in the source graph")
    non = _non_adjacency(g)
    blocks = _h_blocks(g, non)
    full = range(n)
    z0, w0, ap0, dp0 = 10 * n, 11 * n, 12 * n, 22 * n
    adj = [g.neighbors(u) for u in full]
    bulk = [range(10 * n)] * n
    demand_set = set(demand.pairs)
    direct = [[v for v in full if u == v or canonical_edge(u, v) not in demand_set] for u in full]
    blocks += [
        (0, z0, adj),  # A-Z
        (3 * n, z0, adj),  # D-Z
        (0, w0, non),  # A-W, including each vertex's own copy
        (3 * n, w0, non),  # D-W
        (0, ap0, bulk),  # A-A' complete
        (3 * n, dp0, bulk),  # D-D' complete
        (0, 3 * n, direct),  # A-D for every non-demand pair, the diagonal included
    ]
    us, vs = _bipartite_edges(n, blocks)
    graph = Graph.from_endpoints(32 * n, us, vs)
    groups = {tag: range(i * n, (i + 1) * n) for i, tag in enumerate(H_GROUPS)}
    groups["Z"] = range(z0, z0 + n)
    groups["W"] = range(w0, w0 + n)
    groups["A'"] = range(ap0, ap0 + 10 * n)
    groups["D'"] = range(dp0, dp0 + 10 * n)
    inst = LabeledInstance.build(graph, groups)
    terminals = tuple(full) + tuple(range(3 * n, 4 * n))
    return HardInstance(
        inst,
        "steiner",
        n,
        uniform_threshold=steiner_threshold(n),
        terminals=terminals,
        demand=demand,
    )


def solve_edge_universal_via_steiner(
    g: Graph, demand: EdgeSet, steiner: SteinerHandle | None = None
) -> bool:
    """True iff every demand edge of g lies in a 4-clique, via J. Without a
    handle, the terminal pairs of J are queried in order, each capped at
    5n + 1, and the first pair below it answers no."""
    hard = build_j(g, demand)
    assert hard.terminals is not None and hard.uniform_threshold is not None
    thr = hard.uniform_threshold
    if steiner is not None:
        return steiner(hard.graph, hard.terminals) >= thr
    return steiner_at_least(hard.graph, hard.terminals, thr)


# ---------------------------------------------------------------------------
# Hard-instance serialization: edge list, label sidecar, threshold section.
# ---------------------------------------------------------------------------


def emit_hard_instance(hard: HardInstance) -> str:
    out = [emit_labeled(hard.inst).rstrip("\n"), "%thresholds"]
    out.append(f"kind {hard.kind}")
    out.append(f"source_n {hard.source_n}")
    if hard.kind == "apvc":
        assert hard.thresholds is not None
        for (a, d), thr in sorted(hard.thresholds.items()):
            out.append(f"pair {a} {d} {thr}")
    else:
        assert hard.uniform_threshold is not None and hard.terminals is not None
        out.append(f"uniform {hard.uniform_threshold}")
        out.append("terminals " + " ".join(str(t) for t in hard.terminals))
        assert hard.demand is not None
        for u, v in hard.demand:
            out.append(f"demand {u} {v}")
    return "\n".join(out) + "\n"


def parse_hard_instance(text: str) -> HardInstance:
    graph = parse_graph(text)
    groups = parse_labels(text)
    lines, line_no = section_lines(text, "%thresholds")
    try:
        start = lines.index("%thresholds")
    except ValueError:
        raise GraphParseError("missing %thresholds section") from None
    kind: str | None = None
    source_n: int | None = None
    thresholds: dict[Edge, int] = {}
    uniform: int | None = None
    terminals: tuple[int, ...] | None = None
    demand: list[Edge] = []
    for i, raw in enumerate(lines[start + 1 :], start=start + 2):
        parts = raw.split()
        if not parts:
            continue
        key = parts[0]
        try:
            if key == "kind":
                kind = parts[1]
            elif key == "source_n":
                source_n = int(parts[1])
            elif key == "pair":
                thresholds[(int(parts[1]), int(parts[2]))] = int(parts[3])
            elif key == "uniform":
                uniform = int(parts[1])
            elif key == "terminals":
                terminals = tuple(int(x) for x in parts[1:])
            elif key == "demand":
                demand.append((int(parts[1]), int(parts[2])))
            else:
                raise GraphParseError(f"unknown threshold entry {key!r}", line=line_no(i))
        except GraphParseError:
            raise
        except (IndexError, ValueError):
            raise GraphParseError(f"malformed threshold line {raw!r}", line=line_no(i)) from None
    if kind not in ("apvc", "steiner") or source_n is None:
        raise GraphParseError("threshold section must declare kind and source_n")
    inst = parsed_instance(graph, groups)
    if kind == "apvc":
        return HardInstance(inst, kind, source_n, thresholds=thresholds)
    try:
        demand_set = EdgeSet.of(demand)
    except ValueError as exc:
        raise GraphParseError(f"bad demand: {exc}") from None
    return HardInstance(
        inst,
        kind,
        source_n,
        uniform_threshold=uniform,
        terminals=terminals,
        demand=demand_set,
    )
