import itertools
import random
import tracemalloc

import pytest

from vclab.errors import DemandError, GraphParseError, QueryError
from vclab.flow import ConnectivitySweep, vertex_connectivity
from vclab.graphs import EdgeSet, Graph, gen_gnp, gen_planted_4clique
from vclab.oracles import brute_4clique, brute_edge_universal
from vclab.reductions import (
    H_GROUPS,
    apvc_threshold,
    attach_gadget,
    build_filter_b,
    build_filter_c,
    build_h,
    build_h_hat,
    build_isolating_gadget,
    build_j,
    emit_hard_instance,
    filter_b_offset,
    filter_b_reduced_host,
    filter_c_offset,
    filter_c_reduced_host,
    four_partite,
    gadget_reduced_host,
    h_chain_offset,
    parse_hard_instance,
    solve_4clique_via_apvc,
    solve_edge_universal_via_steiner,
    steiner_threshold,
)
from vclab.solvers import apvc_naive, steiner_vc


def k2():
    return Graph.from_edges(2, [(0, 1)])


def k4():
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def c5():
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


# ---------------------------------------------------------------------------
# four_partite
# ---------------------------------------------------------------------------


def test_four_partite_k3():
    fp = four_partite(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))
    assert fp.g.n == 3
    assert fp.inst.graph.n == 12
    assert fp.inst.graph.m == 36  # 12 group-ordered copies per original edge


def test_four_partite_structure():
    g = gen_gnp(5, 0.5, 17)
    fp = four_partite(g)
    blown = fp.inst.graph
    n = g.n
    group_of = {v: tag for tag in "ABCD" for v in fp.inst.group(tag)}
    for x in range(4 * n):
        for y in range(x + 1, 4 * n):
            want = group_of[x] != group_of[y] and g.has_edge(fp.orig[x], fp.orig[y])
            assert blown.has_edge(x, y) == want
    assert four_partite(Graph.from_edges(3, [])).inst.graph.m == 0


def test_four_partite_preserves_4cliques():
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(1, 12)
        g = gen_gnp(n, rng.uniform(0.1, 0.9), rng.randrange(10**6))
        has = brute_4clique(g) is not None
        assert (brute_4clique(four_partite(g).inst.graph) is not None) == has


def test_copy_neighborhood_helpers():
    fp = four_partite(k2())
    assert fp.b_adjacent(0) == frozenset({3})  # B-copy of v, the only neighbor
    assert fp.b_nonadjacent(0) == frozenset({2})
    assert fp.c_adjacent(fp.d_of(1)) == frozenset({4})
    assert fp.b_nonadjacent(fp.d_of(1)) == frozenset({3})


# ---------------------------------------------------------------------------
# isolating gadget
# ---------------------------------------------------------------------------


def test_gadget_singleton_sides():
    inst = build_isolating_gadget([0], [1])
    g = inst.graph
    assert g.n == 6 and g.m == 6
    assert vertex_connectivity(g, 0, 1)[0] == 2  # |X| + |Y|


def test_gadget_size_and_standalone_value():
    rng = random.Random(13)
    for _ in range(20):
        p, q = rng.randint(1, 6), rng.randint(1, 6)
        ids = rng.sample(range(30), p + q)
        xs, ys = ids[:p], ids[p:]
        inst = build_isolating_gadget(xs, ys)
        nonisolated = sum(1 for v in range(inst.graph.n) if inst.graph.degree(v) > 0)
        assert nonisolated == 3 * (p + q)
        x, y = rng.choice(xs), rng.choice(ys)
        assert vertex_connectivity(inst.graph, x, y)[0] == p + q


def test_gadget_rejects_bad_sides():
    with pytest.raises(QueryError):
        build_isolating_gadget([], [1])
    with pytest.raises(QueryError):
        build_isolating_gadget([0, 1], [1, 2])


def _random_host(rng, max_n):
    n = rng.randint(2, max_n)
    return gen_gnp(n, rng.uniform(0.1, 0.8), rng.randrange(10**6))


def test_gadget_identity_on_random_hosts():
    rng = random.Random(14)
    done = 0
    while done < 40:
        r = _random_host(rng, 10)
        verts = list(range(r.n))
        rng.shuffle(verts)
        p = rng.randint(1, max(1, r.n // 2))
        q = rng.randint(1, max(1, r.n - p))
        xs, ys = verts[:p], verts[p : p + q]
        x, y = rng.choice(xs), rng.choice(ys)
        if r.has_edge(x, y):
            continue  # the identity is only claimed for non-adjacent pairs
        whole = attach_gadget(r, xs, ys)
        reduced = gadget_reduced_host(r, xs, ys, x, y)
        lhs = vertex_connectivity(whole, x, y)[0]
        rhs = vertex_connectivity(reduced, x, y)[0] + len(xs) + len(ys)
        assert lhs == rhs
        done += 1


def test_gadget_on_edgeless_host():
    r = Graph.from_edges(6, [])
    whole = attach_gadget(r, [0, 1, 2], [3, 4])
    assert vertex_connectivity(whole, 0, 3)[0] == 5


# ---------------------------------------------------------------------------
# set-intersection filters
# ---------------------------------------------------------------------------


def test_filter_b_on_k2():
    fp = four_partite(k2())
    a, d = 0, fp.d_of(1)
    inst = build_filter_b(fp, a, d)
    g = inst.graph
    live = [v for v in range(g.n) if g.degree(v) > 0]
    assert len(live) == 6  # {a} + B + B' + {d} for n = 2
    assert set(inst.group("B")) == {2, 3}
    assert fp.b_nonadjacent(d) == frozenset({3})
    assert fp.b_adjacent(a) == frozenset({3})
    assert filter_b_offset(fp, a, d) == 3
    with pytest.raises(QueryError):
        build_filter_b(fp, 5, d)


def test_filter_c_on_k2():
    fp = four_partite(k2())
    a, d = 0, fp.d_of(1)
    inst = build_filter_c(fp, a, d)
    live = [v for v in range(inst.graph.n) if inst.graph.degree(v) > 0]
    assert len(live) == 6
    assert filter_c_offset(fp, a, d) == 3


def _filter_host(rng, fp, a, d, extra_ids):
    """A host touching only {a} u B u {d} plus ids outside the filter's copy."""
    n = fp.n
    allowed = [a, d] + list(fp.inst.group("B")) + list(extra_ids)
    edges = set()
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.sample(allowed, 2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(6 * n, sorted(edges))


def test_filter_b_identity():
    rng = random.Random(15)
    for _ in range(30):
        g = _random_host(rng, 5)
        fp = four_partite(g)
        a = rng.choice(fp.inst.group("A"))
        d = rng.choice(fp.inst.group("D"))
        host = _filter_host(rng, fp, a, d, fp.inst.group("C"))
        whole = host.union(build_filter_b(fp, a, d).graph)
        lhs = vertex_connectivity(whole, a, d)[0]
        reduced = filter_b_reduced_host(fp, host, a, d)
        rhs = vertex_connectivity(reduced, a, d)[0] + filter_b_offset(fp, a, d)
        assert lhs == rhs


def test_filter_c_identity():
    rng = random.Random(16)
    for _ in range(30):
        g = _random_host(rng, 5)
        fp = four_partite(g)
        a = rng.choice(fp.inst.group("A"))
        d = rng.choice(fp.inst.group("D"))
        n = fp.n
        allowed = [a, d] + list(fp.inst.group("C")) + list(fp.inst.group("B"))
        edges = set()
        for _ in range(rng.randint(0, 3 * n)):
            u, v = rng.sample(allowed, 2)
            edges.add((min(u, v), max(u, v)))
        host = Graph.from_edges(6 * n, sorted(e for e in edges if e[0] != e[1]))
        whole = host.union(build_filter_c(fp, a, d).graph)
        lhs = vertex_connectivity(whole, a, d)[0]
        reduced = filter_c_reduced_host(fp, host, a, d)
        rhs = vertex_connectivity(reduced, a, d)[0] + filter_c_offset(fp, a, d)
        assert lhs == rhs


def test_filter_offsets_alone():
    # a host with no a-d paths leaves exactly the offset
    rng = random.Random(17)
    for _ in range(10):
        g = _random_host(rng, 5)
        fp = four_partite(g)
        a = rng.choice(fp.inst.group("A"))
        d = rng.choice(fp.inst.group("D"))
        empty = Graph.from_edges(6 * fp.n, [])
        whole = empty.union(build_filter_b(fp, a, d).graph)
        assert vertex_connectivity(whole, a, d)[0] == filter_b_offset(fp, a, d)
        whole = empty.union(build_filter_c(fp, a, d).graph)
        assert vertex_connectivity(whole, a, d)[0] == filter_c_offset(fp, a, d)


# ---------------------------------------------------------------------------
# the APVC hard instance H
# ---------------------------------------------------------------------------


def test_h_sizes_and_groups():
    for n in (1, 2, 4):
        g = gen_gnp(n, 0.5, n)
        hard = build_h(g)
        assert hard.graph.n == 10 * n
        assert tuple(hard.inst.groups) == H_GROUPS
        assert all(len(hard.inst.group(t)) == n for t in H_GROUPS)
        assert hard.thresholds is not None and len(hard.thresholds) == n * n


def test_h_closed_form_equals_pairwise_union():
    rng = random.Random(18)
    for _ in range(6):
        n = rng.randint(1, 4)
        g = gen_gnp(n, rng.uniform(0.2, 0.9), rng.randrange(10**6))
        fp = four_partite(g)
        expected: set[tuple[int, int]] = set()
        for a in fp.inst.group("A"):
            for d in fp.inst.group("D"):
                expected |= set(build_filter_b(fp, a, d).graph.edges())
                expected |= set(build_filter_c(fp, a, d).graph.edges())
        bc = set(range(n, 3 * n))
        expected |= {e for e in fp.inst.graph.edges() if e[0] in bc and e[1] in bc}
        gadget = build_isolating_gadget(range(n), range(3 * n, 4 * n), base_n=6 * n)
        expected |= set(gadget.graph.edges())
        assert set(build_h(g).graph.edges()) == expected


def test_h_on_single_vertex():
    hard = build_h(Graph.from_edges(1, []))
    assert hard.graph.n == 10
    a, d = 0, 3
    assert vertex_connectivity(hard.graph, a, d)[0] >= 4  # 4n with n = 1
    assert solve_4clique_via_apvc(Graph.from_edges(1, [])) is False


def test_h_rejects_empty():
    with pytest.raises(QueryError):
        build_h(Graph.from_edges(0, []))


def complement_threshold(g, a, d):
    """The definition: 4n + |N(a) int ~N(d)| + |~N(a) int N(d)| + 1, with ~N(v) = V - N(v)."""
    everything = frozenset(range(g.n))
    na, nd = g.neighbor_set(a), g.neighbor_set(d)
    return 4 * g.n + len(na & (everything - nd)) + len((everything - na) & nd) + 1


def test_threshold_matches_complement_definition():
    rng = random.Random(20)
    graphs = [k4(), c5(), Graph.from_edges(1, [])]
    graphs += [gen_gnp(rng.randint(1, 12), rng.random(), seed) for seed in range(40)]
    for g in graphs:
        for a in range(g.n):
            for d in range(g.n):
                assert apvc_threshold(g, a, d) == complement_threshold(g, a, d)
        thresholds = build_h(g).thresholds
        assert thresholds == {
            (a, 3 * g.n + d): complement_threshold(g, a, d) for a in range(g.n) for d in range(g.n)
        }


def test_threshold_values():
    g = k4()
    assert apvc_threshold(g, 0, 1) == 19
    for a, d in itertools.combinations(range(4), 2):
        assert apvc_threshold(g, a, d) == apvc_threshold(g, d, a)
    edgeless = Graph.from_edges(5, [])
    assert all(
        apvc_threshold(edgeless, a, d) == 4 * 5 + 1
        for a in range(5)
        for d in range(5)
        if a != d
    )


def test_h_lower_bound():
    rng = random.Random(19)
    for _ in range(12):
        n = rng.randint(1, 5)
        g = gen_gnp(n, rng.uniform(0.1, 0.9), rng.randrange(10**6))
        hard = build_h(g)
        sweep = ConnectivitySweep(hard.graph)
        for (a, d), thr in hard.thresholds.items():
            # kappa_H is always within 1 of the threshold; reaching it means a clique
            assert sweep.query(a, d, cutoff=thr) >= thr - 1


def test_k4_reaches_threshold():
    hard = build_h(k4())
    a, d = 0, 3 * 4 + 1  # adjacent original pair (0, 1)
    assert hard.thresholds[(a, d)] == 19
    assert vertex_connectivity(hard.graph, a, d)[0] >= 19


def test_h_hat_witness():
    fp = four_partite(k4())
    core = build_h_hat(fp, 0, fp.d_of(1))
    assert vertex_connectivity(core, 0, fp.d_of(1))[0] >= 1
    tri_free = Graph.from_edges(4, [(0, 1), (2, 3), (0, 2), (1, 3)])  # C4
    fp2 = four_partite(tri_free)
    core2 = build_h_hat(fp2, 0, fp2.d_of(1))
    assert vertex_connectivity(core2, 0, fp2.d_of(1))[0] == 0


def test_h_chain_identity():
    rng = random.Random(20)
    for _ in range(8):
        n = rng.randint(1, 5)
        g = gen_gnp(n, rng.uniform(0.2, 0.9), rng.randrange(10**6))
        fp = four_partite(g)
        hard = build_h(g)
        sweep = ConnectivitySweep(hard.graph)
        a = rng.choice(fp.inst.group("A"))
        d = rng.choice(fp.inst.group("D"))
        lhs = sweep.query(a, d)
        rhs = vertex_connectivity(build_h_hat(fp, a, d), a, d)[0] + h_chain_offset(fp, a, d)
        assert lhs == rhs


def test_chain_offset_formula():
    g = gen_gnp(5, 0.5, 23)
    fp = four_partite(g)
    for a in fp.inst.group("A"):
        for d in fp.inst.group("D"):
            spelled = (
                2 * fp.n
                + len(fp.b_nonadjacent(d))
                + len(fp.b_adjacent(a))
                + len(fp.b_adjacent(d) - fp.b_adjacent(a))
                + len(fp.c_adjacent(d))
                + len(fp.c_nonadjacent(a))
                + len(fp.c_adjacent(a) - fp.c_adjacent(d))
            )
            assert h_chain_offset(fp, a, d) == spelled


# ---------------------------------------------------------------------------
# clique pipelines
# ---------------------------------------------------------------------------


def test_apvc_pipeline_pinned():
    assert solve_4clique_via_apvc(k4()) is True
    assert solve_4clique_via_apvc(gen_planted_4clique(9, 0.3, True, 2)) is True
    bipartite = Graph.from_edges(6, [(u, v + 3) for u in range(3) for v in range(3)])
    assert solve_4clique_via_apvc(bipartite) is False  # triangle-free
    assert solve_4clique_via_apvc(Graph.from_edges(3, [])) is False  # n < 4


def test_apvc_pipeline_matches_oracle():
    rng = random.Random(22)
    for _ in range(25):
        n = rng.randint(4, 9)
        g = gen_gnp(n, rng.uniform(0.1, 0.9), rng.randrange(10**6))
        assert solve_4clique_via_apvc(g) == (brute_4clique(g) is not None)


def test_apvc_pipeline_with_matrix_handle():
    for seed in (1, 2):
        g = gen_gnp(5, 0.65, seed)
        via_handle = solve_4clique_via_apvc(g, apvc=apvc_naive)
        assert via_handle == solve_4clique_via_apvc(g)
        assert via_handle == (brute_4clique(g) is not None)


# ---------------------------------------------------------------------------
# the Steiner hard instance J
# ---------------------------------------------------------------------------


def test_j_structure():
    g = c5()
    n = g.n
    demand = EdgeSet.of([(0, 1), (2, 3)])
    hard = build_j(g, demand)
    assert hard.graph.n == 32 * n
    assert len(hard.inst.group("A'")) == 10 * n
    assert len(hard.inst.group("D'")) == 10 * n
    assert hard.terminals == tuple(range(n)) + tuple(range(3 * n, 4 * n))
    assert hard.uniform_threshold == steiner_threshold(n) == 5 * n + 1
    graph = hard.graph
    z = set(hard.inst.group("Z"))
    w = set(hard.inst.group("W"))
    for u in range(n):
        # adjacency and non-adjacency mirrors partition V, so Z+W degree is n
        assert sum(1 for x in graph.neighbors(u) if x in z or x in w) == n
        assert sum(1 for x in graph.neighbors(3 * n + u) if x in z or x in w) == n
        assert graph.has_edge(u, 3 * n + u)  # diagonal A-D edge always present
    assert not graph.has_edge(0, 3 * n + 1)  # demand pair loses its direct edge
    assert graph.has_edge(0, 3 * n + 2)  # non-demand pair keeps it


def test_j_rejects_bad_demand():
    with pytest.raises(DemandError):
        build_j(c5(), EdgeSet.of([(0, 2)]))
    for pair in [(0, 7), (-1, 0)]:  # -1 would index vertex 4, a neighbour of 0
        with pytest.raises(DemandError):
            build_j(c5(), EdgeSet.of([pair]))
    with pytest.raises(QueryError):
        build_j(Graph.from_edges(0, []), EdgeSet.of([]))


def test_j_extends_h():
    """Below id 10n, J is H plus the direct A-D edges of the non-demand pairs."""
    rng = random.Random(21)
    for seed in range(12):
        g = gen_gnp(rng.randint(1, 9), rng.uniform(0.2, 0.9), seed)
        n = g.n
        demand = EdgeSet.of(rng.sample(g.edges(), min(2, g.m)))
        direct = {
            (u, 3 * n + v)
            for u in range(n)
            for v in range(n)
            if u == v or (min(u, v), max(u, v)) not in demand
        }
        h_edges = build_h(g).graph.edges()
        inner = [e for e in build_j(g, demand).graph.edges() if e[1] < 10 * n]
        assert not direct & set(h_edges)
        assert inner == sorted(set(h_edges) | direct)


def test_j_demand_pair_without_clique_sits_at_5n():
    g = c5()
    hard = build_j(g, EdgeSet.of([(0, 1)]))
    n = g.n
    assert vertex_connectivity(hard.graph, 0, 3 * n + 1)[0] == 5 * n


def test_j_demand_pair_with_clique_clears_threshold():
    g = gen_planted_4clique(5, 0.9, True, 8)
    wit = brute_4clique(g)
    u, v = wit[0], wit[1]
    hard = build_j(g, EdgeSet.of([(u, v)]))
    n = g.n
    assert vertex_connectivity(hard.graph, u, 3 * n + v)[0] >= 5 * n + 1


def test_steiner_pipeline_pinned():
    assert solve_edge_universal_via_steiner(c5(), EdgeSet.of([])) is True
    assert solve_edge_universal_via_steiner(k4(), EdgeSet.of(k4().edges())) is True
    assert solve_edge_universal_via_steiner(c5(), EdgeSet.of([(1, 2)])) is False


def test_steiner_pipeline_matches_oracle():
    rng = random.Random(24)
    for _ in range(10):
        n = rng.randint(2, 6)
        g = gen_gnp(n, rng.uniform(0.2, 0.9), rng.randrange(10**6))
        edges = g.edges()
        demand = EdgeSet.of(rng.sample(edges, rng.randint(0, len(edges))))
        want, _ = brute_edge_universal(g, demand)
        assert solve_edge_universal_via_steiner(g, demand) == want


def test_steiner_pipeline_with_handle():
    g = gen_gnp(4, 0.8, 30)
    demand = EdgeSet.of(g.edges())
    via_handle = solve_edge_universal_via_steiner(
        g, demand, steiner=lambda graph, terms: steiner_vc(graph, terms)
    )
    assert via_handle == solve_edge_universal_via_steiner(g, demand)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_hard_instance_round_trip_apvc():
    hard = build_h(gen_gnp(3, 0.6, 44))
    text = emit_hard_instance(hard)
    back = parse_hard_instance(text)
    assert back.kind == "apvc" and back.source_n == 3
    assert back.graph == hard.graph
    assert back.inst.groups == hard.inst.groups
    assert back.thresholds == hard.thresholds
    assert emit_hard_instance(back) == text


def test_hard_instance_round_trip_steiner():
    g = gen_gnp(3, 0.7, 45)
    demand = EdgeSet.of(g.edges()[:1])
    hard = build_j(g, demand)
    back = parse_hard_instance(emit_hard_instance(hard))
    assert back.kind == "steiner"
    assert back.uniform_threshold == hard.uniform_threshold
    assert back.terminals == hard.terminals
    assert back.demand == hard.demand
    assert back.graph == hard.graph


def test_hard_instance_parse_errors():
    hard = build_h(k2())
    text = emit_hard_instance(hard)
    with pytest.raises(GraphParseError):
        parse_hard_instance(text.replace("%thresholds", "%nothing"))
    broken = text.replace("kind apvc", "flavor apvc")
    with pytest.raises(GraphParseError, match="unknown threshold entry 'flavor'") as err:
        parse_hard_instance(broken)
    assert err.value.line == text.splitlines().index("kind apvc") + 1
    assert "pair 0 6 " in text
    with pytest.raises(GraphParseError):
        parse_hard_instance(text.replace("pair 0 6 ", "pair 0 x "))


def test_hard_instances_build_no_neighbor_sets():
    g = gen_gnp(9, 0.5, 46)
    for hard in (build_h(g), build_j(g, EdgeSet.of(g.edges()[:2]))):
        assert hard.graph._sets == [None] * hard.graph.n
        back = parse_hard_instance(emit_hard_instance(hard))
        assert back.graph._sets == [None] * back.graph.n


def test_j_round_trip_allocation_peak():
    # one (u, v) tuple per edge in the build and in the parse, plus a
    # frozenset per vertex, peaked at 13.5 MiB here; flat endpoint lists and
    # neighbour sets built on first use peak at 6.2 MiB
    g = gen_gnp(40, 0.3, 1)
    demand = EdgeSet.of(g.edges()[:3])
    tracemalloc.start()
    try:
        hard = parse_hard_instance(emit_hard_instance(build_j(g, demand)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hard.graph.n == 32 * 40 and hard.demand == demand
    assert peak < 9 * 2**20
