import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vclab import flow
from vclab.errors import QueryError
from vclab.flow import (
    ConnectivitySweep,
    FlowNetwork,
    _blocking_flow,
    _min_cut,
    _sink_distances,
    cut_disconnects,
    max_flow,
    paths_disjoint,
    vertex_connectivity,
    vertex_disjoint_paths,
)
from vclab.graphs import EdgeSet, Graph, gen_gnp, gen_planted_4clique
from vclab.oracles import MIXED_CUT_MAX_M, brute_mixed_cut
from vclab.reductions import build_h, build_j


@st.composite
def graph_pairs(draw, max_n=7):
    n = draw(st.integers(2, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    g = Graph.from_edges(n, chosen)
    u = draw(st.integers(0, n - 1))
    v = draw(st.integers(0, n - 1).filter(lambda x: x != u))
    return g, u, v


def p3():
    return Graph.from_edges(3, [(0, 1), (1, 2)])


def k4():
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def c4():
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def aimed(g, u, v, terminals=None):
    """A sweep's network aimed at (u, v), with no flow routed yet."""
    sweep = ConnectivitySweep(g, terminals)
    assert sweep.query(u, v, cutoff=0) == 0
    return sweep.net


def test_vertex_connectivity_pinned():
    value, cert = vertex_connectivity(p3(), 0, 2)
    assert value == 1
    assert cert.cut_vertices == frozenset({1})
    assert len(cert.cut_edges) == 0

    value, cert = vertex_connectivity(k4(), 0, 3)
    assert value == 3 and cert.value == 3
    # two relay vertices plus the direct edge, which has no removable endpoint
    assert cert.cut_vertices == frozenset({1, 2})
    assert cert.cut_edges.pairs == ((0, 3),)

    value, cert = vertex_connectivity(c4(), 0, 2)
    assert value == 2
    assert cert.cut_vertices == frozenset({1, 3})

    apart = Graph.from_edges(4, [(0, 1), (2, 3)])
    value, cert = vertex_connectivity(apart, 0, 3)
    assert value == 0
    assert not cert.cut_vertices and len(cert.cut_edges) == 0


def test_adjacent_pair_cuts_the_edge():
    value, cert = vertex_connectivity(Graph.from_edges(2, [(0, 1)]), 0, 1)
    assert value == 1
    assert not cert.cut_vertices
    assert cert.cut_edges.pairs == ((0, 1),)


def test_query_guards():
    with pytest.raises(QueryError):
        vertex_connectivity(p3(), 1, 1)
    with pytest.raises(QueryError):
        vertex_connectivity(p3(), 0, 5)
    sweep = ConnectivitySweep(p3())
    with pytest.raises(QueryError):
        sweep.query(0, 2, cutoff=-1)
    # a zero cutoff is a valid query that routes nothing
    assert sweep.query(0, 2, cutoff=0) == 0
    with pytest.raises(QueryError):
        ConnectivitySweep(p3(), (0, 2)).query(0, 2, cutoff=-1)


def test_split_network_shape():
    g = p3()
    net = aimed(g, 0, 2)
    net.validate(big=max(g.n, 2))
    # one internal arc per vertex plus two directed arcs per edge
    assert len(net.to) == 2 * (g.n + 2 * g.m)
    # forward arcs sit at even indices, each followed by its zero-cap reverse
    for i in range(0, len(net.to), 2):
        assert net.cap0[i + 1] == 0
    # an arc's tail is its partner's head, and each node lists the arcs it is the tail of
    for x, arcs in enumerate(net.adj):
        assert all(net.to[a ^ 1] == x for a in arcs)
    # arc 2v is v's internal arc; edge i owns arcs 2n + 4i and 2n + 4i + 2
    for v in range(g.n):
        assert (net.to[2 * v + 1], net.to[2 * v]) == (2 * v, 2 * v + 1)
    for i, (x, y) in enumerate(g.edges()):
        a = 2 * g.n + 4 * i
        assert (net.to[a + 1], net.to[a]) == (2 * x + 1, 2 * y)
        assert (net.to[a + 3], net.to[a + 2]) == (2 * y + 1, 2 * x)


def reference_sweep_network(g, terminals=None):
    """The sweep's network built one arc at a time through add_arc: the
    reference for the sweep's bulk build."""
    big = max(g.n, 2)
    uncuttable = frozenset(terminals or ())
    net = FlowNetwork(2 * g.n, source=0, sink=1)
    for v in range(g.n):
        net.add_arc(2 * v, 2 * v + 1, big if v in uncuttable else 1)
    for u, v in g.edges():
        net.add_arc(2 * u + 1, 2 * v, 1)
        net.add_arc(2 * v + 1, 2 * u, 1)
    net.split = True
    return net


def test_bulk_build_matches_the_reference_builder():
    rng = random.Random(77)
    graphs = [Graph.from_edges(0, []), Graph.from_edges(1, []), Graph.from_edges(5, []), p3(), k4()]
    graphs += [gen_gnp(rng.randint(2, 30), rng.choice((0.1, 0.3, 0.6, 0.9)), rng.randrange(10**6)) for _ in range(40)]
    graphs.append(build_h(gen_gnp(6, 0.5, rng.randrange(10**6))).graph)
    source = gen_planted_4clique(5, 0.4, True, rng.randrange(10**6))
    graphs.append(build_j(source, EdgeSet.of(source.edges()[:2])).graph)
    for g in graphs:
        for terminals in (None, rng.sample(range(g.n), rng.randint(0, g.n))):
            net = ConnectivitySweep(g, terminals).net
            ref = reference_sweep_network(g, terminals)
            assert net.to == ref.to
            assert net.cap == ref.cap
            assert net.cap0 == ref.cap0
            assert net.adj == ref.adj
            assert (net.num_nodes, net.source, net.sink) == (ref.num_nodes, 0, 1)
            net.validate(big=max(g.n, 2))


def test_validate_checks_each_arc_is_listed_once_in_order():
    g = k4()
    ConnectivitySweep(g).net.validate(big=4)
    dropped = ConnectivitySweep(g).net
    dropped.adj[3].pop()
    with pytest.raises(AssertionError, match="exactly once"):
        dropped.validate(big=4)
    reordered = ConnectivitySweep(g).net
    out = reordered.adj[3]
    out[1], out[2] = out[2], out[1]
    with pytest.raises(AssertionError, match="out of order"):
        reordered.validate(big=4)


def test_sweep_net_holds_the_last_query():
    g = k4()
    sweep = ConnectivitySweep(g)

    def internal():
        cap = sweep.net.cap
        return [cap[2 * v] + cap[2 * v + 1] for v in range(g.n)]

    assert sweep.query(0, 3) == 3
    assert internal() == [4, 1, 1, 4]
    assert (sweep.net.source, sweep.net.sink) == (0, 7)
    # the routed flow stays in the residual capacities
    assert sweep.net.cap != sweep.net.cap0
    assert sweep.query(1, 2, cutoff=1) == 1
    assert internal() == [1, 4, 4, 1]


def test_vertex_queries_leave_cap0_as_built():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(3, 12)
        g = gen_gnp(n, rng.uniform(0.2, 0.8), rng.randrange(10**6))
        sweep = ConnectivitySweep(g)
        built = list(sweep.net.cap0)
        # every internal arc is cuttable until a query aims the network
        assert built[: 2 * n : 2] == [1] * n
        for _ in range(5):
            u, v = rng.sample(range(n), 2)
            sweep.query(u, v, cutoff=rng.choice((None, 1)))
            assert sweep.net.cap0 == built
            # the query's own capacities: both endpoints uncuttable, nothing else changed
            cap = sweep.net.cap
            want = list(built)
            want[2 * u] = want[2 * v] = sweep.big
            assert [cap[a] + cap[a + 1] for a in range(0, len(cap), 2)] == want[0::2]


def test_max_flow_on_hand_built_network():
    net = FlowNetwork(4, source=0, sink=3)
    a = net.add_arc(0, 1, 2)
    net.add_arc(1, 3, 1)
    net.add_arc(0, 2, 1)
    net.add_arc(2, 3, 2)
    value, cut = max_flow(net)
    assert value == 2
    assert a not in cut  # arc 0->1 has residual room
    net.reset()
    value_again, _ = max_flow(net)
    assert value_again == 2


def reference_max_flow(net, cutoff=None):
    """One BFS augmenting path per unit of flow; the cut is the residual
    source side left by the last, exhaustive BFS."""
    cap, to, adj = net.cap, net.to, net.adj
    value = 0
    while True:
        parent = {net.source: -1}
        queue = deque([net.source])
        while queue and net.sink not in parent:
            x = queue.popleft()
            for a in adj[x]:
                if cap[a] > 0 and to[a] not in parent:
                    parent[to[a]] = a
                    queue.append(to[a])
        if net.sink not in parent or value == cutoff:
            break
        x = net.sink
        while x != net.source:
            a = parent[x]
            cap[a] -= 1
            cap[a ^ 1] += 1
            x = to[a ^ 1]
        value += 1
    if value == cutoff:
        return value, []
    cut = [a for a in range(0, len(to), 2) if net.cap0[a] > 0 and to[a ^ 1] in parent and to[a] not in parent]
    return value, cut


@pytest.mark.parametrize("element", [False, True])
def test_max_flow_matches_reference(element):
    rng = random.Random(2024 + element)
    for _ in range(60):
        n = rng.randint(2, 40)
        g = gen_gnp(n, rng.choice((0.05, 0.15, 0.3, 0.6)), rng.randrange(10**6))
        u, v = rng.sample(range(n), 2)
        terminals = {u, v} | set(rng.sample(range(n), rng.randint(0, n)))
        for cutoff in (None, rng.randint(1, max(1, n // 2))):
            a, b = (aimed(g, u, v, terminals if element else None) for _ in range(2))
            # identical cut arc lists pin byte-identical certificates
            assert max_flow(a, cutoff) == reference_max_flow(b, cutoff)


def k6():
    return Graph.from_edges(6, itertools.combinations(range(6), 2))


def k25():
    """K_{2,5}: hubs 0 and 1, not adjacent, share the five leaves 2..6."""
    return Graph.from_edges(7, [(h, x) for h in (0, 1) for x in range(2, 7)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def k33_matched():
    """u = 0 and v = 1 share no neighbour; their private neighbours 2, 3, 4
    and 5, 6, 7 are joined by K_{3,3}, so three u-w-x-v paths compete for
    the same x's."""
    return Graph.from_edges(8, [(0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)]
                            + [(w, x) for w in (2, 3, 4) for x in (5, 6, 7)])


def short_path_count(g, u, v):
    """How many paths the warm start routes when no limit stops it."""
    sweep = ConnectivitySweep(g)
    sweep.query(u, v, cutoff=0)  # aims the network and routes nothing
    return sweep._route_short_paths(u, v, g.n)


def warm_start_cases():
    """(graph, u, v, extra terminals): adjacent endpoints, degree-0 endpoints,
    terminals among the common neighbours, pairs joined only by u-w-x-v
    paths (some through terminals), and random graphs."""
    yield k6(), 0, 1, ()
    yield k6(), 2, 5, (1, 3)  # two of the four common neighbours are terminals
    yield k25(), 0, 1, (4,)
    yield k25(), 2, 3, (0,)
    yield k25(), 0, 2, ()  # the edge, then 0-w-1-2 for one leaf w
    yield k25(), 0, 2, (1, 3, 4)  # the only x and two of the w's are terminals
    yield p3(), 0, 2, (1,)
    path_and_isolated = Graph.from_edges(4, [(0, 1), (1, 2)])
    yield path_and_isolated, 0, 3, (1,)
    yield path_and_isolated, 3, 1, ()
    yield cycle(6), 0, 3, ()  # two u-w-x-v paths and nothing shorter
    yield cycle(6), 0, 3, (1, 2, 4, 5)  # every private neighbour is a terminal
    yield cycle(8), 0, 4, (2,)  # no path of three edges or fewer
    yield k33_matched(), 0, 1, ()
    yield k33_matched(), 0, 1, (2, 5, 6)
    # w = 2 takes x = 4, the only x of w = 3, so Dinic must reroute it
    yield Graph.from_edges(6, [(0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4)]), 0, 1, ()
    rng = random.Random(4711)
    for _ in range(40):
        n = rng.randint(2, 14)
        g = gen_gnp(n, rng.choice((0.2, 0.5, 0.8)), rng.randrange(10**6))
        u, v = rng.sample(range(n), 2)
        yield g, u, v, tuple(rng.sample(range(n), rng.randint(0, n)))


@pytest.mark.parametrize("element", [False, True])
def test_warm_started_query_matches_reference(element):
    for g, u, v, extra in warm_start_cases():
        terminals = {u, v, *extra} if element else None
        paths = short_path_count(g, u, v)
        # cutoffs at and below the number of warm paths stop the warm start itself
        for cutoff in (None, 0, 1, max(paths - 1, 0), paths, paths + 1):
            sweep = ConnectivitySweep(g, terminals)
            value = sweep.query(u, v, cutoff)
            ref_value, ref_cut = reference_max_flow(aimed(g, u, v, terminals), cutoff)
            assert value == ref_value, (g.edges(), u, v, terminals, cutoff)
            if cutoff is None:
                # the warm start leaves the same residual source side
                assert _min_cut(sweep.net, value) == ref_cut


def test_query_at_the_degree_bound_runs_no_search(monkeypatch):
    searches = []
    search = flow._sink_distances
    monkeypatch.setattr(flow, "_sink_distances", lambda net: searches.append(net) or search(net))
    # the edge and four common neighbours, then five common neighbours, reach
    # min(deg u, deg v) = 5 before Dinic starts
    assert ConnectivitySweep(k6()).query(0, 1) == 5
    assert ConnectivitySweep(k25()).query(0, 1) == 5
    assert searches == []
    assert ConnectivitySweep(c4()).query(0, 2) == 2
    assert searches == []
    assert ConnectivitySweep(p3()).query(0, 1) == 1
    assert searches == []
    # hub 0 and leaf 2 share no neighbour: the edge, then the path 0-3-1-2
    assert ConnectivitySweep(k25()).query(0, 2) == 2
    assert searches == []
    # the only paths of C8 from 0 to 4 have four edges, so they need a search
    assert ConnectivitySweep(cycle(8)).query(0, 4) == 2
    assert searches


def test_dead_end_next_to_the_sink_is_pruned():
    # s=0, a=1, b=2, c=3, d=4, t=5. The first path s-a-c-t fills c's only
    # arc to the sink, so when b tries c next, c is a dead end one step from
    # the sink; b must fall back to d.
    def build():
        net = FlowNetwork(6, source=0, sink=5)
        for x, y in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 5), (2, 4), (4, 5)]:
            net.add_arc(x, y, 1)
        return net

    net = build()
    dist = _sink_distances(net)
    assert dist == [3, 2, 2, 1, 1, 0]
    assert _blocking_flow(net, dist, 2) == 2
    assert dist[3] == -1  # c was marked dead during the phase
    assert _sink_distances(net)[0] == -1  # the flow is maximum
    assert max_flow(build()) == reference_max_flow(build()) == (2, [0, 2])


def full_scan_sink_distances(net):
    """The sink BFS without the split-layout shortcut: every arc of every
    dequeued node is scanned."""
    dist = [-1] * net.num_nodes
    dist[net.sink] = 0
    queue = deque([net.sink])
    while queue:
        w = queue.popleft()
        for a in net.adj[w]:
            x = net.to[a]
            if net.cap[a ^ 1] > 0 and dist[x] < 0:
                dist[x] = dist[w] + 1
                if x == net.source:
                    return dist
                queue.append(x)
    return dist


@pytest.mark.parametrize("element", [False, True])
def test_split_scan_matches_full_scan(monkeypatch, element):
    phases = []
    search = flow._sink_distances

    def checked(net):
        dist = search(net)
        if net.split:
            ref = full_scan_sink_distances(net)
            s = net.source
            layer = ref[s]
            assert dist[s] == layer
            if layer < 0:  # the source was not reached: every label is final
                assert dist == ref
            else:
                # the search stops at the source's v_out, one layer below the
                # source, so only the layers below that one are complete
                assert dist[s + 1] == layer - 1
                below = lambda d: {x: dx for x, dx in enumerate(d) if 0 <= dx < layer - 1}
                assert below(dist) == below(ref)
                assert all(dx == ref[x] for x, dx in enumerate(dist) if dx >= 0)
            phases.append(net)
        return dist

    monkeypatch.setattr(flow, "_sink_distances", checked)
    rng = random.Random(808 + element)
    # (graph, the vertices that the query pairs and element-mode terminals are drawn from)
    cases = []
    for _ in range(80):
        g = gen_gnp(rng.randint(2, 30), rng.choice((0.1, 0.2, 0.4, 0.7)), rng.randrange(10**6))
        cases.append((g, range(g.n)))
    # H's layers give long phases in which the DFS revisits many nodes
    for _ in range(6):
        g = build_h(gen_gnp(8, 0.5, rng.randrange(10**6))).graph
        cases.append((g, range(g.n)))
    # J is what the Steiner pipeline queries, on pairs of its terminals
    for plant in (True, False):
        source = gen_planted_4clique(5, 0.5, plant, rng.randrange(10**6))
        hard = build_j(source, EdgeSet.of(rng.sample(source.edges(), min(2, source.m))))
        cases.append((hard.graph, sorted(hard.terminals)))
    for g, pool in cases:
        for _ in range(1 + g.n // 8):
            u, v = rng.sample(pool, 2)
            terminals = {u, v} | set(rng.sample(pool, rng.randint(0, len(pool)))) if element else None
            for cutoff in (None, rng.randint(0, g.n)):
                split = ConnectivitySweep(g, terminals)
                full = ConnectivitySweep(g, terminals)
                full.net.split = False
                value = split.query(u, v, cutoff)
                assert value == full.query(u, v, cutoff)
                # the same flow, arc by arc, so the same cuts and path families
                assert split.net.cap == full.net.cap
                if cutoff is None:
                    assert _min_cut(split.net, value) == _min_cut(full.net, value)
    assert len(phases) > 100


def test_hand_built_network_keeps_the_full_scan():
    # nodes are numbered 2v / 2v + 1 and arc 2v runs 2v -> 2v + 1, but the
    # arc 0 -> 3 enters an odd node directly, which the split layout forbids.
    # Node 3's only residual predecessor is then not node 2.
    def build():
        net = FlowNetwork(6, source=0, sink=5)
        for x, y in [(0, 1), (2, 3), (4, 5), (0, 3), (3, 4)]:
            net.add_arc(x, y, 1)
        return net

    assert max_flow(build()) == reference_max_flow(build()) == (1, [6])
    assert not build().split
    with pytest.raises(AssertionError):
        build().validate(big=2)
    # with the mark forced on, the layout shortcut strands the source: only
    # a sweep, whose network has the layout, may set it
    wrong = build()
    wrong.split = True
    assert max_flow(wrong)[0] == 0
    # a sweep's network is valid only with its mark
    net = aimed(p3(), 0, 2)
    net.split = False
    with pytest.raises(AssertionError, match="split mark"):
        net.validate(big=3)


def test_max_flow_cutoff_stops_early():
    net = aimed(k4(), 0, 3)
    value, cut = max_flow(net, cutoff=2)
    assert value == 2
    assert cut == []


def test_vertex_connectivity_matches_brute():
    rng = random.Random(12)
    for _ in range(120):
        n = rng.randint(2, 7)
        g = gen_gnp(n, rng.uniform(0.1, 0.95), rng.randrange(10**6))
        if g.m > MIXED_CUT_MAX_M:
            continue
        u, v = rng.sample(range(n), 2)
        value, cert = vertex_connectivity(g, u, v)
        assert value == brute_mixed_cut(g, u, v)
        assert cert.value == value


@given(graph_pairs())
@settings(max_examples=60, deadline=None)
def test_certificate_disconnects(gp):
    g, u, v = gp
    value, cert = vertex_connectivity(g, u, v)
    assert u not in cert.cut_vertices and v not in cert.cut_vertices
    assert len(cert.cut_vertices) + len(cert.cut_edges) == value
    # removing the certificate always separates the pair
    assert cut_disconnects(g, u, v, cert)


@given(graph_pairs())
@settings(max_examples=60, deadline=None)
def test_symmetry_and_degree_bound(gp):
    g, u, v = gp
    value, _ = vertex_connectivity(g, u, v)
    assert value == vertex_connectivity(g, v, u)[0]
    bound = min(g.degree(u), g.degree(v))
    assert value <= bound


@given(graph_pairs())
@settings(max_examples=40, deadline=None)
def test_path_packing(gp):
    g, u, v = gp
    value, _ = vertex_connectivity(g, u, v)
    paths = vertex_disjoint_paths(g, u, v)
    assert len(paths) == value
    interior: set[int] = set()
    used_edges: set[tuple[int, int]] = set()
    for path in paths:
        assert path[0] == u and path[-1] == v
        for a, b in zip(path, path[1:]):
            assert g.has_edge(a, b)
            e = (a, b) if a < b else (b, a)
            assert e not in used_edges
            used_edges.add(e)
        inner = set(path[1:-1])
        assert len(inner) == len(path) - 2
        assert not (inner & interior)
        interior |= inner
    assert paths_disjoint(g, u, v, paths, value)
    assert not paths_disjoint(g, u, v, paths, value + 1)


def test_capped_queries():
    assert ConnectivitySweep(k4()).query(0, 3, cutoff=2) == 2
    assert ConnectivitySweep(k4()).query(0, 3, cutoff=3) == 3
    assert ConnectivitySweep(k4()).query(0, 3, cutoff=50) == 3
    assert ConnectivitySweep(p3()).query(0, 2, cutoff=5) == 1


def test_capped_matches_min_of_true_value_and_cap():
    rng = random.Random(77)
    for _ in range(500):
        n = rng.randint(2, 7)
        g = gen_gnp(n, rng.uniform(0.2, 0.95), rng.randrange(10**6))
        u, v = rng.sample(range(n), 2)
        cap = rng.randint(1, n)
        true, _ = vertex_connectivity(g, u, v)
        assert ConnectivitySweep(g).query(u, v, cutoff=cap) == min(true, cap)


def test_element_connectivity_pinned():
    g = p3()
    assert ConnectivitySweep(g, (0, 1, 2)).query(0, 2) == 1
    assert ConnectivitySweep(g, (0, 2)).query(0, 2) == 1
    k = k4()
    assert ConnectivitySweep(k, tuple(range(4))).query(0, 3) == 3
    with pytest.raises(QueryError):
        ConnectivitySweep(g, (0, 1)).query(0, 2)
    with pytest.raises(QueryError):
        ConnectivitySweep(g, (0, 2)).query(0, 2, cutoff=-1)


def test_element_when_terminals_are_the_pair():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 7)
        g = gen_gnp(n, rng.uniform(0.2, 0.9), rng.randrange(10**6))
        u, v = rng.sample(range(n), 2)
        assert ConnectivitySweep(g, (u, v)).query(u, v) == vertex_connectivity(g, u, v)[0]


def test_element_dominates_vertex_connectivity():
    rng = random.Random(6)
    for _ in range(80):
        n = rng.randint(3, 7)
        g = gen_gnp(n, rng.uniform(0.2, 0.9), rng.randrange(10**6))
        terminals = tuple(sorted(rng.sample(range(n), rng.randint(2, n))))
        u, v = rng.sample(terminals, 2)
        ec = ConnectivitySweep(g, terminals).query(u, v)
        vc, _ = vertex_connectivity(g, u, v)
        assert ec >= vc
        if g.m <= MIXED_CUT_MAX_M:
            assert ec == brute_mixed_cut(g, u, v, terminals=terminals)


def test_element_network_protects_terminals():
    g = p3()
    net = aimed(g, 0, 2, terminals=(0, 1, 2))
    big = max(g.n, 2)
    net.validate(big=big)
    caps = [net.cap0[i] for i in range(0, len(net.to), 2)]
    assert caps.count(big) == 3  # every terminal keeps an uncuttable internal arc


def test_sweep_matches_fresh_queries():
    rng = random.Random(90)
    for _ in range(20):
        n = rng.randint(2, 8)
        g = gen_gnp(n, rng.uniform(0.2, 0.9), rng.randrange(10**6))
        sweep = ConnectivitySweep(g)
        for _ in range(6):
            u, v = rng.sample(range(n), 2)
            assert sweep.query(u, v) == vertex_connectivity(g, u, v)[0]
        u, v = rng.sample(range(n), 2)
        assert sweep.query(u, v, cutoff=1) == min(vertex_connectivity(g, u, v)[0], 1)


def test_sweep_element_mode():
    rng = random.Random(91)
    for _ in range(20):
        n = rng.randint(3, 8)
        g = gen_gnp(n, rng.uniform(0.3, 0.9), rng.randrange(10**6))
        terminals = tuple(sorted(rng.sample(range(n), rng.randint(2, n))))
        sweep = ConnectivitySweep(g, terminals=terminals)
        for _ in range(4):
            u, v = rng.sample(terminals, 2)
            assert sweep.query(u, v) == ConnectivitySweep(g, terminals).query(u, v)
            if g.m <= MIXED_CUT_MAX_M:
                assert sweep.query(u, v) == brute_mixed_cut(g, u, v, terminals=terminals)
