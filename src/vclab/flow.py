"""Unit-capacity max flow and the Menger primitives built on it.

Pairwise vertex connectivity uses the mixed-cut convention: a cut separating
u from v may contain non-endpoint vertices and edges. The flow encoding
splits every vertex v into v_in = 2v and v_out = 2v + 1 joined by an internal
arc; each undirected edge {u, v} becomes the two arcs u_out -> v_in and
v_out -> u_in of capacity 1. Internal arcs carry capacity 1, except the query
endpoints (or, for element connectivity, every terminal), which get capacity
n so they can never be cut. Max flow from u_in to v_out then equals the
minimum mixed cut, with no special case for adjacent endpoints.

"Unbounded" is encoded as n: no flow through a single vertex can exceed its
degree, which is below n, so capacity n never binds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .errors import QueryError
from .graphs import Edge, EdgeSet, Graph

# Arc origins, for translating a min cut back to graph elements.
VERT = "v"
EDGE = "e"


class FlowNetwork:
    """Directed flow network with paired reverse arcs.

    Arcs are appended in (forward, reverse) pairs, so arc i and arc i^1 are
    partners and every forward arc has an even index. `origin[i]` records the
    graph element a forward arc stands for: (VERT, v) for an internal arc,
    (EDGE, (u, v)) for an edge arc, None for reverse arcs.
    """

    __slots__ = ("num_nodes", "source", "sink", "frm", "to", "cap", "cap0", "adj", "origin")

    def __init__(self, num_nodes: int, source: int, sink: int):
        self.num_nodes = num_nodes
        self.source = source
        self.sink = sink
        self.frm: list[int] = []
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cap0: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(num_nodes)]
        self.origin: list[tuple[str, object] | None] = []

    def add_arc(self, u: int, v: int, capacity: int, origin: tuple[str, object] | None = None) -> int:
        i = len(self.to)
        self.frm += [u, v]
        self.to += [v, u]
        self.cap += [capacity, 0]
        self.cap0 += [capacity, 0]
        self.origin += [origin, None]
        self.adj[u].append(i)
        self.adj[v].append(i + 1)
        return i

    def reset(self) -> None:
        """Discard all flow, restoring the original capacities."""
        self.cap[:] = self.cap0

    def validate(self, big: int) -> None:
        """Assert the structural invariants (paired arcs, capacity alphabet)."""
        assert len(self.to) % 2 == 0
        for i in range(0, len(self.to), 2):
            assert self.frm[i] == self.to[i + 1] and self.to[i] == self.frm[i + 1]
            assert self.cap0[i + 1] == 0 and self.origin[i + 1] is None
            assert self.cap0[i] in (1, big), f"arc {i} capacity {self.cap0[i]}"
        internal = [i for i in range(0, len(self.to), 2) if self.origin[i] and self.origin[i][0] == VERT]
        assert len(internal) == self.num_nodes // 2, "one internal arc per split vertex"


@dataclass(frozen=True)
class CutCertificate:
    """A mixed vertex/edge cut witnessing a connectivity value."""

    cut_vertices: frozenset[int]
    cut_edges: EdgeSet
    value: int

    def __post_init__(self):
        assert self.value == len(self.cut_vertices) + len(self.cut_edges)


def _require_pair(g: Graph, u: int, v: int) -> None:
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise QueryError(f"vertex out of range: u={u}, v={v}, n={g.n}")
    if u == v:
        raise QueryError(f"query endpoints must differ, got {u}")


def _build_split_network(g: Graph, s: int, t: int, uncuttable: Iterable[int]) -> FlowNetwork:
    big = max(g.n, 2)
    net = FlowNetwork(2 * g.n, source=2 * s, sink=2 * t + 1)
    strong = set(uncuttable)
    for v in range(g.n):
        net.add_arc(2 * v, 2 * v + 1, big if v in strong else 1, (VERT, v))
    for u, v in g.edges():
        net.add_arc(2 * u + 1, 2 * v, 1, (EDGE, (u, v)))
        net.add_arc(2 * v + 1, 2 * u, 1, (EDGE, (u, v)))
    return net


def build_vc_network(g: Graph, s: int, t: int) -> FlowNetwork:
    """Network whose max flow is the mixed-cut vertex connectivity of (s, t)."""
    _require_pair(g, s, t)
    return _build_split_network(g, s, t, (s, t))


def build_element_network(g: Graph, terminals: Iterable[int], s: int, t: int) -> FlowNetwork:
    """Like build_vc_network, but every terminal is uncuttable."""
    term = set(terminals)
    _require_pair(g, s, t)
    if s not in term or t not in term:
        raise QueryError("both endpoints must be terminals")
    for v in term:
        if not 0 <= v < g.n:
            raise QueryError(f"terminal {v} out of range for n={g.n}")
    return _build_split_network(g, s, t, term)


# ---------------------------------------------------------------------------
# Blocking-flow max flow. Each phase labels nodes by their residual distance
# to the sink, found by a BFS from the sink over reversed residual arcs that
# stops once the source is labelled. The DFS from the source then takes only
# arcs that step one label closer to the sink, so every node it enters could
# reach the sink when the phase began; a node whose arcs run out is marked
# dead and no path enters it again in that phase. Arc order is fixed at build
# time and both searches scan arcs in that order, so values, flows, and cuts
# are deterministic for a given network.
# ---------------------------------------------------------------------------


def _sink_distances(net: FlowNetwork) -> list[int]:
    """Residual distance to the sink; -1 for nodes not reached before the source."""
    dist = [-1] * net.num_nodes
    s, t = net.source, net.sink
    dist[t] = 0
    cap, to, adj = net.cap, net.to, net.adj
    queue = [t]
    for w in queue:  # the list grows while it is walked: a FIFO queue
        nxt = dist[w] + 1
        for a in adj[w]:
            # arc a runs w -> x, so its partner a ^ 1 is the residual arc x -> w
            if cap[a ^ 1] > 0:
                x = to[a]
                if dist[x] < 0:
                    dist[x] = nxt
                    if x == s:
                        return dist
                    queue.append(x)
    return dist


def _blocking_flow(net: FlowNetwork, dist: list[int], budget: int | None) -> int:
    """Push a blocking flow along arcs that step one label toward the sink;
    optionally stop at budget. Dead ends get label -1, which no arc matches."""
    cap, to, frm, adj = net.cap, net.to, net.frm, net.adj
    it = [0] * net.num_nodes
    s, t = net.source, net.sink
    total = 0
    path: list[int] = []
    u = s
    while True:
        if u == t:
            push = min(cap[a] for a in path)
            if budget is not None and push > budget - total:
                push = budget - total
            for a in path:
                cap[a] -= push
                cap[a ^ 1] += push
            total += push
            if budget is not None and total >= budget:
                return total
            for i, a in enumerate(path):
                if cap[a] == 0:
                    del path[i:]
                    u = frm[a]
                    break
            continue
        arcs = it[u]
        out = adj[u]
        end = len(out)
        found = -1
        lu = dist[u] - 1
        while arcs < end:
            a = out[arcs]
            if cap[a] > 0 and dist[to[a]] == lu:
                found = a
                break
            arcs += 1
        it[u] = arcs
        if found >= 0:
            path.append(found)
            u = to[found]
        elif u == s:
            return total
        else:
            dist[u] = -1
            u = frm[path.pop()]
            it[u] += 1


def _dinic(net: FlowNetwork, cutoff: int | None = None) -> int:
    value = 0
    while cutoff is None or value < cutoff:
        dist = _sink_distances(net)
        if dist[net.source] < 0:
            break
        budget = None if cutoff is None else cutoff - value
        value += _blocking_flow(net, dist, budget)
    return value


def _residual_source_side(net: FlowNetwork) -> list[bool]:
    seen = [False] * net.num_nodes
    seen[net.source] = True
    queue = deque([net.source])
    cap, to, adj = net.cap, net.to, net.adj
    while queue:
        u = queue.popleft()
        for a in adj[u]:
            if cap[a] > 0 and not seen[to[a]]:
                seen[to[a]] = True
                queue.append(to[a])
    return seen


def max_flow(net: FlowNetwork, cutoff: int | None = None) -> tuple[int, list[int]]:
    """Maximum source-sink flow and a minimum cut as a sorted arc-index list.

    The network is mutated (residual capacities). With a cutoff, augmentation
    stops once `cutoff` units are routed; if the cutoff was hit the flow need
    not be maximum and the returned cut list is empty.
    """
    value = _dinic(net, cutoff)
    if cutoff is not None and value >= cutoff:
        return value, []
    seen = _residual_source_side(net)
    cut = [
        a
        for a in range(0, len(net.to), 2)
        if net.cap0[a] > 0 and seen[net.frm[a]] and not seen[net.to[a]]
    ]
    assert sum(net.cap0[a] for a in cut) == value, "cut capacity must equal flow value"
    return value, cut


def _prefer_internal_arcs(net: FlowNetwork, cut: list[int], endpoints: tuple[int, int]) -> list[int]:
    """Swap crossing edge arcs for internal arcs of non-endpoint vertices.

    The vertex cut {v} dominates the edge cut {(u,v)}: removing v's internal
    arc blocks every path that the edge arc carried, and that arc is saturated
    whenever the edge arc is (all flow through a capacity-1 vertex passes its
    internal arc). The swapped set is therefore still a minimum cut, but one
    that names vertices wherever the mixed-cut definition allows it.
    """
    refined: list[int] = []
    taken: set[int] = set()
    for a in cut:
        origin = net.origin[a]
        if origin is not None and origin[0] == VERT:
            refined.append(a)
            taken.add(a)
    for a in cut:
        origin = net.origin[a]
        if origin is not None and origin[0] == VERT:
            continue
        head = net.to[a] // 2
        tail = net.frm[a] // 2
        swapped = False
        for w in (head, tail):
            internal = 2 * w  # vertex arcs are added first, one pair per vertex
            if w not in endpoints and internal not in taken:
                refined.append(internal)
                taken.add(internal)
                swapped = True
                break
        if not swapped:
            refined.append(a)
    return sorted(refined)


def _cut_to_certificate(net: FlowNetwork, cut: list[int], value: int, endpoints: tuple[int, int]) -> CutCertificate:
    verts: set[int] = set()
    edges: list[Edge] = []
    for a in cut:
        origin = net.origin[a]
        assert origin is not None, "reverse arc in cut"
        kind, item = origin
        if kind == VERT:
            assert item not in endpoints, "endpoint internal arc in a minimum cut"
            verts.add(item)  # type: ignore[arg-type]
        else:
            edges.append(item)  # type: ignore[arg-type]
    assert len(edges) == len(set(edges)), "edge counted twice in one cut"
    return CutCertificate(frozenset(verts), EdgeSet.of(edges), value)


def vertex_connectivity(g: Graph, u: int, v: int) -> tuple[int, CutCertificate]:
    """kappa_G(u, v) with a mixed-cut certificate of the same size."""
    net = build_vc_network(g, u, v)
    value, cut = max_flow(net)
    cut = _prefer_internal_arcs(net, cut, (u, v))
    return value, _cut_to_certificate(net, cut, value, (u, v))


def element_connectivity(g: Graph, terminals: Iterable[int], u: int, v: int) -> int:
    """kappa'_{G,U}(u, v): only edges and non-terminal vertices are cuttable."""
    net = build_element_network(g, terminals, u, v)
    value, _ = max_flow(net)
    return value


def capped_vertex_connectivity(g: Graph, u: int, v: int, cap: int) -> int:
    """min(kappa_G(u, v), cap), stopping augmentation at the cap."""
    if cap < 1:
        raise QueryError(f"cap must be >= 1, got {cap}")
    net = build_vc_network(g, u, v)
    value, _ = max_flow(net, cutoff=cap)
    return value


def capped_element_connectivity(g: Graph, terminals: Iterable[int], u: int, v: int, cap: int) -> int:
    """min(kappa'_{G,U}(u, v), cap)."""
    if cap < 1:
        raise QueryError(f"cap must be >= 1, got {cap}")
    net = build_element_network(g, terminals, u, v)
    value, _ = max_flow(net, cutoff=cap)
    return value


def cut_disconnects(g: Graph, u: int, v: int, cert: CutCertificate) -> bool:
    """BFS check: does deleting the certificate's elements separate u from v?"""
    if u in cert.cut_vertices or v in cert.cut_vertices:
        return False
    gone_v = cert.cut_vertices
    gone_e = set(cert.cut_edges.pairs)
    seen = {u}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == v:
            return False
        for y in g.neighbors(x):
            if y in gone_v or y in seen:
                continue
            e = (x, y) if x < y else (y, x)
            if e in gone_e:
                continue
            seen.add(y)
            queue.append(y)
    return v not in seen


def vertex_disjoint_paths(g: Graph, u: int, v: int) -> list[list[int]]:
    """Decompose a max flow into kappa internally vertex-disjoint u-v paths.

    Any flow cycles left over by augmentation are cancelled on the fly, so
    every walk terminates at the sink.
    """
    net = build_vc_network(g, u, v)
    value = _dinic(net)
    used = [net.cap0[a] - net.cap[a] for a in range(len(net.to))]
    paths: list[list[int]] = []
    for _ in range(value):
        walk = [net.source]
        pos = {net.source: 0}
        walk_arcs: list[int] = []
        while walk[-1] != net.sink:
            x = walk[-1]
            for a in net.adj[x]:
                if a % 2 == 0 and used[a] > 0:
                    break
            else:
                raise AssertionError(f"flow conservation violated at node {x}")
            used[a] -= 1
            y = net.to[a]
            if y in pos:
                # revisit: the walk closed a flow cycle; its arcs are already
                # decremented, so truncating the walk cancels the cycle
                i = pos[y]
                for dead in walk[i + 1:]:
                    del pos[dead]
                del walk[i + 1:]
                del walk_arcs[i:]
            else:
                pos[y] = len(walk)
                walk.append(y)
                walk_arcs.append(a)
        paths.append([node // 2 for node in walk[::2]])
    return paths


class ConnectivitySweep:
    """Reusable template for many connectivity queries against one graph.

    Building the arc structure dominates a single query on small graphs;
    this builds it once and, between queries, only rewrites the two endpoint
    capacities (vertex mode) or just retargets source and sink (element
    mode, where all terminals are already uncuttable).
    """

    def __init__(self, g: Graph, terminals: Iterable[int] | None = None):
        self.g = g
        self.big = max(g.n, 2)
        self.terminals = None if terminals is None else frozenset(terminals)
        if self.terminals is not None:
            for x in self.terminals:
                if not 0 <= x < g.n:
                    raise QueryError(f"terminal {x} out of range for n={g.n}")
        strong = self.terminals or ()
        self.net = _build_split_network(g, 0, 0, strong)
        # internal arc of vertex v is arc 2v by construction order
        self._internal = [2 * v for v in range(g.n)]

    def query(self, u: int, v: int, cutoff: int | None = None) -> int:
        _require_pair(self.g, u, v)
        net = self.net
        if self.terminals is None:
            au, av = self._internal[u], self._internal[v]
            net.cap0[au] = net.cap0[av] = self.big
            try:
                net.source, net.sink = 2 * u, 2 * v + 1
                net.reset()
                return _dinic(net, cutoff)
            finally:
                net.cap0[au] = net.cap0[av] = 1
        if u not in self.terminals or v not in self.terminals:
            raise QueryError("both endpoints must be terminals")
        net.source, net.sink = 2 * u, 2 * v + 1
        net.reset()
        return _dinic(net, cutoff)
