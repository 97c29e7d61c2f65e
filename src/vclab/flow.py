"""Unit-capacity max flow and the Menger primitives built on it.

Pairwise vertex connectivity uses the mixed-cut convention: a cut separating
u from v may contain non-endpoint vertices and edges. The flow encoding
splits every vertex v into v_in = 2v and v_out = 2v + 1 joined by an internal
arc; each undirected edge {u, v} becomes the two arcs u_out -> v_in and
v_out -> u_in of capacity 1. Internal arcs carry capacity 1, except the query
endpoints (or, for element connectivity, every terminal), which get capacity
n so they can never be cut. Max flow from u_in to v_out then equals the
minimum mixed cut, with no special case for adjacent endpoints.

ConnectivitySweep builds this network once per graph and aims it at each
query; every value, cut and path family in vclab comes from one of its
queries. The arc layout is fixed, so an arc index alone names the graph
element it stands for, and the sweep fills the arc lists in bulk from it.
A query stops at min(deg u, deg v), which bounds every u-v flow, so a flow
that reaches it is maximum with no final search. Before Dinic runs, the
query routes the paths that need no search: the edge uv, u-w-v for each
common neighbour w, and then, greedily, u-w-x-v paths through a neighbour w
of u only and a neighbour x of v only. On the split layout, flow
conservation proves most arcs dead, and Dinic's two searches skip them (see
the comment above `_sink_distances`); a hand-built FlowNetwork gets the full
scans.

"Unbounded" is encoded as n: no flow through a single vertex can exceed its
degree, which is below n, so capacity n never binds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .errors import QueryError
from .graphs import Edge, EdgeSet, Graph

class FlowNetwork:
    """Directed flow network with paired reverse arcs.

    Arcs are appended in (forward, reverse) pairs, so arc i and arc i^1 are
    partners and every forward arc has an even index. Arc i runs from
    to[i ^ 1] to to[i]. `cap0` holds the capacities as built and is never
    written after that; forward arc a carries flow cap[a ^ 1] and has
    capacity cap[a] + cap[a ^ 1]. `split` is set only by ConnectivitySweep,
    on the network it builds, and lets the flow core skip arcs that the split
    layout proves dead and push one unit per path (see the comment above
    `_sink_distances`).
    """

    __slots__ = ("num_nodes", "source", "sink", "to", "cap", "cap0", "adj", "split")

    def __init__(self, num_nodes: int, source: int, sink: int):
        self.num_nodes = num_nodes
        self.source = source
        self.sink = sink
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cap0: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(num_nodes)]
        self.split = False

    def add_arc(self, u: int, v: int, capacity: int) -> int:
        i = len(self.to)
        self.to += [v, u]
        self.cap += [capacity, 0]
        self.cap0 += [capacity, 0]
        self.adj[u].append(i)
        self.adj[v].append(i + 1)
        return i

    def reset(self) -> None:
        """Discard all flow, restoring the capacities as built."""
        self.cap[:] = self.cap0

    def validate(self, big: int) -> None:
        """Assert the split-network invariants: the split mark, each arc
        listed once, at its tail, in ascending order (the searches' scan
        order), the capacity alphabet, and the layout (arc 2v is v's internal
        arc and heads both its nodes' arc lists, then two mirrored arcs per
        edge)."""
        to, cap0 = self.to, self.cap0
        arcs, inner = len(to), self.num_nodes
        assert self.split, "split layout on a network without the split mark"
        assert arcs >= inner and (arcs - inner) % 4 == 0
        assert sorted(a for out in self.adj for a in out) == list(range(arcs)), "an arc is not listed exactly once"
        for x, out in enumerate(self.adj):
            assert out[0] == x, f"node {x} does not list its internal arc first"
            assert all(to[a ^ 1] == x for a in out), f"node {x} lists an arc it is not the tail of"
            assert all(a < b for a, b in zip(out, out[1:])), f"node {x} lists its arcs out of order"
        for i in range(0, arcs, 2):
            assert cap0[i + 1] == 0
            assert cap0[i] in (1, big), f"arc {i} capacity {cap0[i]}"
            if i < inner:
                assert (to[i + 1], to[i]) == (i, i + 1), f"arc {i} is not internal"
        for i in range(inner, arcs, 4):
            assert cap0[i] == cap0[i + 2] == 1
            assert to[i + 1] % 2 == 1 and to[i] % 2 == 0, f"arc {i} is not out -> in"
            assert (to[i + 1] - 1, to[i] + 1) == (to[i + 2], to[i + 3])


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


class ConnectivitySweep:
    """Every connectivity query against one graph, on one split network.

    This is the only code that builds or aims a connectivity network. The
    arcs are built once, with every internal arc cuttable except, in element
    mode, the terminals'. Each query restores those capacities; a
    vertex-mode query then makes its two endpoints uncuttable, and an
    element-mode query only retargets source and sink. After a query, `net`
    holds that query's residual capacities, so a cut or a path family can be
    read off it.
    """

    def __init__(self, g: Graph, terminals: Iterable[int] | None = None):
        self.g = g
        self.big = big = max(g.n, 2)
        self.terminals = None if terminals is None else frozenset(terminals)
        uncuttable = self.terminals or frozenset()
        for x in uncuttable:
            if not 0 <= x < g.n:
                raise QueryError(f"terminal {x} out of range for n={g.n}")
        # arc 2v is v's internal arc v_in -> v_out; after them, edge g.edges()[i]
        # owns the forward arcs 2n + 4i (u_out -> v_in) and 2n + 4i + 2 (v_out -> u_in).
        # The lists are those that add_arc would build, filled in bulk
        n, nbrs = g.n, g.neighbors
        inner = 2 * n
        self.net = net = FlowNetwork(inner, source=0, sink=1)
        # u_in and v_in of each edge (u, v), u < v, in g.edges() order
        us = [2 * u for u in range(n) for v in nbrs(u) if u < v]
        vs = [2 * v for u in range(n) for v in nbrs(u) if u < v]
        arcs = inner + 4 * len(us)
        net.to = to = [0] * arcs
        to[0:inner:2] = range(1, inner, 2)
        to[1:inner:2] = range(0, inner, 2)
        to[inner::4] = vs
        to[inner + 1::4] = [x + 1 for x in us]
        to[inner + 2::4] = us
        to[inner + 3::4] = [x + 1 for x in vs]
        net.cap = cap = [1, 0] * (arcs // 2)
        for x in uncuttable:
            cap[2 * x] = big
        net.cap0 = cap[:]
        adj = net.adj
        for x, out in enumerate(adj):
            out.append(x)
        for a, u, v in zip(range(inner, arcs, 4), us, vs):
            adj[u + 1].append(a)
            adj[v].append(a + 1)
            adj[v + 1].append(a + 2)
            adj[u].append(a + 3)
        net.split = True

    def query(self, u: int, v: int, cutoff: int | None = None) -> int:
        """kappa(u, v), or kappa'(u, v) in element mode; with a cutoff,
        min(value, cutoff), stopping augmentation there."""
        g = self.g
        _require_pair(g, u, v)
        if cutoff is not None and cutoff < 0:
            raise QueryError(f"cutoff must be >= 0, got {cutoff}")
        terminals, net = self.terminals, self.net
        if terminals is not None and (u not in terminals or v not in terminals):
            raise QueryError("both endpoints must be terminals")
        net.source, net.sink = 2 * u, 2 * v + 1
        net.reset()
        if terminals is None:
            net.cap[2 * u] = net.cap[2 * v] = self.big
        # no u-v flow exceeds either endpoint's degree, and a flow that
        # reaches it is maximum, so Dinic need not prove that no path is left
        limit = min(g.degree(u), g.degree(v))
        if cutoff is not None and cutoff < limit:
            limit = cutoff
        warm = self._route_short_paths(u, v, limit)
        return warm + _dinic(net, limit - warm)

    def _route_short_paths(self, u: int, v: int, limit: int) -> int:
        """Push one unit along each path of at most three edges that needs no
        search, up to `limit`: the edge uv, if present, and u-w-v for each
        common neighbour w, in u_out's arc order; then u-w-x-v for each w in
        N(u) minus N[v], in u_out's arc order, with x the first vertex of
        N(v) minus N[u] in w_out's arc order that no earlier path used.

        The common neighbours, the w's and the x's are pairwise disjoint
        (w is not in N(v), x is not in N(u)), and each is used at most once.
        So the paths share no inner vertex and use each capacity-1 arc once;
        the endpoint internal arcs have capacity big > degree. Each path is
        pushed whole, so flow is conserved at every vertex. This is a
        feasible flow, and Dinic completes it to a maximum flow.
        """
        g, net = self.g, self.net
        cap, to, adj = net.cap, net.to, net.adj
        nu, nv = g.neighbor_set(u), g.neighbor_set(v)
        # after v_in's internal arc, arc a is the reverse of x_out -> v_in, and to[a] is x_out
        into_v = {to[a] >> 1: a ^ 1 for a in adj[2 * v][1:]}
        far = []  # the arcs u_out -> w_in with w in N(u) minus N[v]
        pushed = 0
        # a node's first arc is its internal arc; the rest of u_out's are u_out -> w_in
        for a in adj[2 * u + 1][1:]:
            if pushed >= limit:
                break
            w = to[a] >> 1
            if w == v:
                path: tuple[int, ...] = (a,)
            elif w in nv:
                path = (a, 2 * w, into_v[w])
            else:
                far.append(a)
                continue
            for b in path:
                cap[b] -= 1
                cap[b ^ 1] += 1
            pushed += 1
        free = set(nv).difference(nu, (u,))  # the x's not yet used
        for a in far:
            if pushed >= limit or not free:
                break
            w = to[a] >> 1
            for b in adj[2 * w + 1]:  # arc 0 leads to w_in, and w is not in free
                x = to[b] >> 1
                if x in free:
                    free.remove(x)
                    for c in (a, 2 * w, b, 2 * x, into_v[x]):
                        cap[c] -= 1
                        cap[c ^ 1] += 1
                    pushed += 1
                    break
        for b in (2 * u, 2 * v):
            cap[b] -= pushed
            cap[b ^ 1] += pushed
        return pushed


# ---------------------------------------------------------------------------
# Blocking-flow max flow. Each phase labels nodes by their residual distance
# to the sink, found by a BFS from the sink over reversed residual arcs that
# stops once the source is labelled (on a split network, once the source's
# v_out is). The DFS from the source then takes only arcs that step one
# label closer to the sink, so every node it enters could reach the sink
# when the phase began; a node whose arcs run out is marked dead and no path
# enters it again in that phase. Arc order is fixed at build time: each node
# lists its arcs in ascending index order (`validate` checks it on a split
# network). The warm start routes its paths of one, two and three edges in
# u_out's arc order (the third edge of a u-w-x-v path in w_out's), and both
# searches scan arcs in that order, so values, flows, and cuts are
# deterministic for a given network. A connectivity query hands Dinic a
# cutoff no larger than min(deg u, deg v) less the warm-started units, so a
# flow that reaches that bound skips the last, failing search. The warm
# start scans the arcs of u_out, v_in and each w_out, at most 2m + n in all,
# about one phase's work, and on dense graphs it often reaches the bound
# alone, so the query runs no phase at all.
#
# On a network that ConnectivitySweep built (`net.split`), flow
# conservation proves most arcs dead. There v_out has exactly one in-arc and
# v_in exactly one out-arc: v's internal arc 2v, which both list first. Every
# edge arc has capacity 1. An internal arc of capacity big never saturates,
# since the flow through a vertex is at most its degree, below n. So a
# saturated internal arc has capacity 1, and the tests below that name
# capacity 1 exclude endpoints and terminals by themselves. Each rule skips
# only arcs that would fail their residual or level test, so the labels that
# the DFS reads, the flows and the cuts are those of the full scan, arc for
# arc; a hand-built network keeps the full scan.
#
# - An idle capacity-1 v (cap[2v] == 1, cap[2v + 1] == 0). No flow enters
#   v_out, so none leaves it by an edge arc. So v_out's only residual
#   predecessor is v_in, and the BFS labels v_in without scanning v_out's
#   arcs.
# - A v_out whose internal arc is saturated (cap[2v] == 0). One unit enters
#   v_out, so exactly one edge arc v_out -> y_in carries it out. Its reverse
#   y_in -> v_out is v_out's only residual predecessor, and the BFS scans
#   v_out's arcs only until that one.
# - A capacity-1 v_in (cap[2v] + cap[2v + 1] == 1). At most one unit enters
#   v_in, so v_in has exactly one residual arc: its internal arc when v is
#   idle, and otherwise the reverse arc to the x_out that feeds it. A unit
#   that the DFS pushes through v_in leaves that one arc pointing back to
#   the node the unit came from, one level up. So the arc is admissible on
#   the DFS's first visit to v_in or not at all, and on any later visit v_in
#   is dead.
# - The source s = u_in. Its internal arc has capacity big, and no flow
#   enters s: the warm start's paths and the DFS's paths leave it and never
#   return. So s's only residual arc leads to s + 1, and the BFS reaches s
#   only through s + 1. It stops when it labels s + 1 and gives s the next
#   label; the DFS reads only s + 1 at that level, and every layer below it
#   is complete.
# - Unit pushes. Every augmenting path starts with s's internal arc, which
#   never saturates, and then a capacity-1 edge arc out of s + 1 (the arc
#   back to s leads one level up). So each augmentation pushes one unit,
#   saturates that second arc first, and resumes at s + 1.
# ---------------------------------------------------------------------------


def _sink_distances(net: FlowNetwork) -> list[int]:
    """Residual distance to the sink; -1 for nodes not reached before the
    source, or, on a split network, before the source's v_out."""
    dist = [-1] * net.num_nodes
    s, t = net.source, net.sink
    dist[t] = 0
    cap, to, adj, split = net.cap, net.to, net.adj, net.split
    stop = s + 1 if split else s
    queue = [t]
    for w in queue:  # the list grows while it is walked: a FIFO queue
        nxt = dist[w] + 1
        if split and w & 1:
            if cap[w - 1] == 0:
                # a v_out = w that carries flow: its one residual predecessor
                # is the y_in it feeds. That is not s + 1, an odd node, nor s,
                # which no flow enters, so the search does not stop there
                for a in adj[w]:
                    if cap[a ^ 1] > 0:
                        x = to[a]
                        if dist[x] < 0:
                            dist[x] = nxt
                            queue.append(x)
                        break
                continue
            if cap[w] == 0 and cap[w - 1] == 1:
                # an idle v_out = w: its only residual predecessor is its v_in,
                # which has no other residual successor, so it is unlabelled
                dist[w - 1] = nxt
                queue.append(w - 1)
                continue
        for a in adj[w]:
            # arc a runs w -> x, so its partner a ^ 1 is the residual arc x -> w
            if cap[a ^ 1] > 0:
                x = to[a]
                if dist[x] < 0:
                    dist[x] = nxt
                    if x == stop:
                        if split:
                            dist[s] = nxt + 1
                        return dist
                    queue.append(x)
    return dist


def _blocking_flow(net: FlowNetwork, dist: list[int], budget: int) -> int:
    """Push a blocking flow along arcs that step one label toward the sink,
    stopping at budget. Dead ends get label -1, which no arc matches."""
    cap, to, adj, split = net.cap, net.to, net.adj, net.split
    it = [0] * net.num_nodes
    s, t = net.source, net.sink
    total = 0
    path: list[int] = []
    u = s
    while True:
        if u == t:
            if split:
                # one unit, which saturates path[1] first (see above)
                for a in path:
                    cap[a] -= 1
                    cap[a ^ 1] += 1
                total += 1
                del path[1:]
                u = s + 1
            else:
                push = min(cap[a] for a in path)
                if push > budget - total:
                    push = budget - total
                for a in path:
                    cap[a] -= push
                    cap[a ^ 1] += push
                total += push
                for i, a in enumerate(path):
                    if cap[a] == 0:
                        del path[i:]
                        u = to[a ^ 1]
                        break
            if total >= budget:
                return total
            continue
        arcs = it[u]
        out = adj[u]
        end = len(out)
        if split:
            if u == s:
                end = 1  # s's one residual arc, to s + 1
            elif not u & 1 and cap[u] + cap[u + 1] == 1:
                # a capacity-1 v_in: test its one residual arc on the first visit only
                if arcs:
                    end = 0
                else:
                    while cap[out[arcs]] == 0:
                        arcs += 1
                    end = arcs + 1
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
            u = to[path.pop() ^ 1]
            it[u] += 1


def _dinic(net: FlowNetwork, cutoff: int) -> int:
    value = 0
    while value < cutoff:
        dist = _sink_distances(net)
        if dist[net.source] < 0:
            break
        value += _blocking_flow(net, dist, cutoff - value)
    return value


def _min_cut(net: FlowNetwork, value: int) -> list[int]:
    """The forward arcs leaving the residual source side, sorted. After a
    maximum flow of `value` units they are a minimum cut of that capacity."""
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
    # an arc from the source side to the rest is saturated: its capacity is its flow, cap[a ^ 1]
    cut = [a for a in range(0, len(to), 2) if seen[to[a ^ 1]] and not seen[to[a]] and cap[a ^ 1] > 0]
    assert sum(cap[a] + cap[a ^ 1] for a in cut) == value, "cut capacity must equal flow value"
    return cut


def max_flow(net: FlowNetwork, cutoff: int | None = None) -> tuple[int, list[int]]:
    """Maximum source-sink flow and a minimum cut as a sorted arc-index list.

    The network is mutated (residual capacities). With a cutoff, augmentation
    stops once `cutoff` units are routed; if the cutoff was hit the flow need
    not be maximum and the returned cut list is empty.
    """
    # an augmenting path leaves the source once and never returns to it, so
    # the flow cannot exceed the residual capacity out of the source
    limit = sum(net.cap[a] for a in net.adj[net.source]) if cutoff is None else cutoff
    value = _dinic(net, limit)
    if cutoff is not None and value >= cutoff:
        return value, []
    return value, _min_cut(net, value)


def _cut_certificate(
    sweep: ConnectivitySweep, cut: list[int], value: int, endpoints: tuple[int, int]
) -> CutCertificate:
    """Name the graph elements of a minimum cut of the sweep's network by the
    arc layout, swapping crossing edge arcs for internal arcs of non-endpoint
    vertices.

    The vertex cut {v} dominates the edge cut {(u,v)}: removing v's internal
    arc blocks every path that the edge arc carried, and that arc is saturated
    whenever the edge arc is (all flow through a capacity-1 vertex passes its
    internal arc). The swapped set is therefore still a minimum cut, but one
    that names vertices wherever the mixed-cut definition allows it.
    """
    to, inner, edges = sweep.net.to, sweep.net.num_nodes, sweep.g.edges()
    verts: set[int] = set()
    cut_edges: list[Edge] = []
    # the cut is sorted and internal arcs are the first num_nodes arcs, so
    # every cut vertex is known before the first edge arc is swapped
    for a in cut:
        assert a % 2 == 0, "reverse arc in cut"
        if a < inner:
            assert a // 2 not in endpoints, "endpoint internal arc in a minimum cut"
            verts.add(a // 2)
            continue
        for w in (to[a] // 2, to[a ^ 1] // 2):  # head, then tail
            if w not in endpoints and w not in verts:
                verts.add(w)
                break
        else:
            cut_edges.append(edges[(a - inner) // 4])
    assert len(cut_edges) == len(set(cut_edges)), "edge counted twice in one cut"
    return CutCertificate(frozenset(verts), EdgeSet.of(cut_edges), value)


def vertex_connectivity(g: Graph, u: int, v: int) -> tuple[int, CutCertificate]:
    """kappa_G(u, v) with a mixed-cut certificate of the same size."""
    sweep = ConnectivitySweep(g)
    value = sweep.query(u, v)
    return value, _cut_certificate(sweep, _min_cut(sweep.net, value), value, (u, v))


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


def paths_disjoint(g: Graph, u: int, v: int, paths: list[list[int]], value: int) -> bool:
    """Check: are `paths` exactly `value` internally vertex-disjoint u-v paths
    along edges of g? Two such paths can share an edge only if it is uv, so
    at most one path may be that edge."""
    if len(paths) != value:
        return False
    inner: set[int] = set()
    direct = 0
    for path in paths:
        if len(path) < 2 or path[0] != u or path[-1] != v:
            return False
        if not all(g.has_edge(a, b) for a, b in zip(path, path[1:])):
            return False
        middle = path[1:-1]
        inner.update(middle)
        direct += not middle
    # a repeated or shared inner vertex leaves fewer vertices than inner positions
    return direct <= 1 and len(inner) == sum(len(p) - 2 for p in paths) and u not in inner and v not in inner


def vertex_disjoint_paths(g: Graph, u: int, v: int) -> list[list[int]]:
    """Decompose a max flow into kappa internally vertex-disjoint u-v paths.

    Any flow cycles left over by augmentation are cancelled on the fly, so
    every walk terminates at the sink.
    """
    sweep = ConnectivitySweep(g)
    value = sweep.query(u, v)
    net = sweep.net
    used = [net.cap[a ^ 1] for a in range(len(net.to))]  # flow on each forward arc
    paths: list[list[int]] = []
    for _ in range(value):
        walk = [net.source]
        pos = {net.source: 0}
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
            else:
                pos[y] = len(walk)
                walk.append(y)
        paths.append([node // 2 for node in walk[::2]])
    return paths
