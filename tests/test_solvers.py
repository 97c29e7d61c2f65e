import concurrent.futures
import itertools
import os
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vclab import flow, solvers
from vclab.errors import InconsistencyError, QueryError
from vclab.flow import ConnectivitySweep, vertex_connectivity
from vclab.graphs import EdgeSet, Graph, gen_gnp
from vclab.oracles import MIXED_CUT_MAX_M, all_pairs_brute, brute_edge_universal, brute_mixed_cut
from vclab.reductions import build_j, solve_edge_universal_via_steiner, steiner_threshold
from vclab.solvers import (
    DIAG,
    ConnectivityMatrix,
    apvc_naive,
    capped_apvc_sampled,
    capped_ssvc_sampled,
    degree_split,
    draw_sample_family,
    fast_apvc,
    fast_ssvc,
    global_vc,
    global_vc_pair,
    sample_set_count,
    ssvc,
    steiner_at_least,
    steiner_vc,
    steiner_vc_pair,
    _verified_entry,
)


def k4():
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def c5():
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


def test_matrix_basics():
    mat = ConnectivityMatrix.empty(3, cap=2)
    assert mat.entry(0, 0) == DIAG
    assert mat.entry(0, 1) == 2
    mat.put(0, 1, 1)
    assert mat.entry(1, 0) == 1
    mat.validate()
    assert mat.min_offdiag() == 1


def test_matrix_tsv_round_trip():
    mat = apvc_naive(c5())
    text = mat.to_tsv()
    assert text.splitlines()[0] == "5"
    back = ConnectivityMatrix.from_tsv(text)
    assert back == mat
    back.validate()


def test_apvc_naive_pinned():
    mat = apvc_naive(k4())
    assert all(mat.entry(u, v) == 3 for u, v in itertools.combinations(range(4), 2))
    empty = apvc_naive(Graph.from_edges(3, []))
    assert all(empty.entry(u, v) == 0 for u, v in itertools.combinations(range(3), 2))
    mat_c5 = apvc_naive(c5())
    assert all(mat_c5.entry(u, v) == 2 for u, v in itertools.combinations(range(5), 2))


def test_apvc_naive_matches_oracle():
    rng = random.Random(21)
    for _ in range(25):
        n = rng.randint(2, 6)
        g = gen_gnp(n, rng.uniform(0.2, 0.9), rng.randrange(10**6))
        if g.m > MIXED_CUT_MAX_M:
            continue
        mat = apvc_naive(g)
        mat.validate()
        for p, want in all_pairs_brute(g).items():
            assert mat.entry(*p) == want


def test_ssvc_rows():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert ssvc(star, 0) == [DIAG, 1, 1, 1]
    assert ssvc(star, 1) == [1, DIAG, 1, 1]
    g = gen_gnp(7, 0.5, 11)
    mat = apvc_naive(g)
    for s in (0, 3, 6):
        row = ssvc(g, s)
        assert row[s] == DIAG
        assert all(row[v] == mat.entry(s, v) for v in range(7) if v != s)
    with pytest.raises(QueryError):
        ssvc(g, 9)


def test_global_and_steiner():
    assert global_vc(k4()) == 3
    assert global_vc(c5()) == 2
    assert global_vc(Graph.from_edges(4, [(0, 1), (2, 3)])) == 0
    with pytest.raises(QueryError):
        global_vc(Graph.from_edges(1, []))

    g = gen_gnp(7, 0.5, 19)
    mat = apvc_naive(g)
    assert global_vc(g) == mat.min_offdiag()
    terminals = (1, 3, 4, 6)
    want = min(mat.entry(u, v) for u, v in itertools.combinations(terminals, 2))
    assert steiner_vc(g, terminals) == want
    assert steiner_vc(g, (2, 5)) == mat.entry(2, 5)
    assert steiner_vc(g, range(7)) == global_vc(g)
    with pytest.raises(QueryError):
        steiner_vc(g, (3,))


def test_steiner_cutoff():
    g = k4()
    assert steiner_vc(g, (0, 1, 2), cutoff=2) == 2
    assert steiner_vc(g, (0, 1, 2), cutoff=0) == 0
    with pytest.raises(QueryError):
        steiner_vc(gen_gnp(30, 0.5, 1), [0, 1, 2], cutoff=-3)


def test_steiner_at_least_matches_steiner_vc():
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(2, 12)
        g = gen_gnp(n, rng.uniform(0.1, 0.9), rng.randrange(10**6))
        terminals = rng.sample(range(n), rng.randint(2, n))
        kappa = steiner_vc(g, terminals)
        for thr in (0, 1, kappa, kappa + 1):
            assert steiner_at_least(g, terminals, thr) == (kappa >= thr), (g.edges(), terminals, thr)
    with pytest.raises(QueryError):
        steiner_at_least(k4(), (3,), 1)
    with pytest.raises(QueryError):
        steiner_at_least(k4(), (0, 4), 0)


def test_steiner_pipeline_stops_at_the_first_pair_below_threshold(monkeypatch):
    # no 4-clique at all, so every demand pair of J sits at 5n, below 5n + 1
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 2)])
    demand = EdgeSet.of([(1, 2), (0, 1)])
    assert not brute_edge_universal(g, demand)[0]
    asked = []
    query = ConnectivitySweep.query

    def recorded_query(self, u, v, cutoff=None):
        value = query(self, u, v, cutoff=cutoff)
        asked.append((u, v, cutoff, value))
        return value

    monkeypatch.setattr(ConnectivitySweep, "query", recorded_query)
    assert solve_edge_universal_via_steiner(g, demand) is False
    thr = steiner_threshold(g.n)
    pairs = list(itertools.combinations(sorted(build_j(g, demand).terminals), 2))
    # terminal pairs in order, each capped at thr, up to and including the
    # first that falls short; the A-A pairs before it all pass
    assert [(u, v) for u, v, _, _ in asked] == pairs[: len(asked)]
    assert all(cutoff == thr for _, _, cutoff, _ in asked)
    assert all(value >= thr for _, _, _, value in asked[:-1])
    assert asked[-1][3] < thr
    assert asked[-1][:2] == (0, 3 * g.n + 1)  # the demand pair (0, 1), A side to D side
    assert len(asked) < len(pairs)


def complete(n):
    return Graph.from_edges(n, list(itertools.combinations(range(n), 2)))


def test_global_vc_special_graphs():
    assert global_vc(Graph.from_edges(2, [])) == 0
    assert global_vc(Graph.from_edges(2, [(0, 1)])) == 1
    assert global_vc(Graph.from_edges(6, [])) == 0
    for n in (3, 5, 8):  # every degree ties; the pivot is vertex 0
        assert global_vc(complete(n)) == n - 1
    # disconnected, every vertex of degree 2 or more
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert global_vc(two_triangles) == 0
    # the pivot is leaf 1, not the centre 0
    star = Graph.from_edges(6, [(0, v) for v in range(1, 6)])
    assert global_vc(star) == 1
    # two K4s joined by the edge 34: vertices 0-2 and 5-7 tie at degree 3
    right = [(u + 4, v + 4) for u, v in itertools.combinations(range(4), 2)]
    k4_pair = complete(4).union(Graph.from_edges(8, right + [(3, 4)]))
    assert global_vc(k4_pair) == 1
    # two K6s joined only through vertex 6, the one vertex of degree 4: the
    # only minimum cut is {6}, every pair (6, w) has kappa 2, and only the
    # neighbour pairs such as (4, 7) find 1
    right = [(u + 7, v + 7) for u, v in itertools.combinations(range(6), 2)]
    bridge = [(4, 6), (5, 6), (6, 7), (6, 8)]
    k6_pair = complete(6).union(Graph.from_edges(13, right + bridge))
    assert min(ssvc(k6_pair, 6)[w] for w in range(13) if w != 6) == 2
    assert global_vc(k6_pair) == 1


def test_global_vc_matches_all_pairs_seeded():
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(2, 12)
        g = gen_gnp(n, rng.uniform(0.05, 0.95), rng.randrange(10**6))
        assert global_vc(g) == apvc_naive(g).min_offdiag()


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 12))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [p for p, k in zip(pairs, keep) if k])


@given(small_graphs())
@settings(max_examples=150, deadline=None)
def test_global_vc_matches_all_pairs(g):
    assert global_vc(g) == apvc_naive(g).min_offdiag()


def test_min_pairs_attain_the_minimum():
    rng = random.Random(14)
    for _ in range(40):
        n = rng.randint(2, 12)
        g = gen_gnp(n, rng.uniform(0.2, 0.9), rng.randrange(10**6))
        value, (u, v) = global_vc_pair(g)
        assert value == global_vc(g) == vertex_connectivity(g, u, v)[0]
        terms = rng.sample(range(n), rng.randint(2, n))
        value, (u, v) = steiner_vc_pair(g, terms)
        assert value == steiner_vc(g, terms) == vertex_connectivity(g, u, v)[0]
        assert {u, v} <= set(terms)


def test_global_vc_queries_only_the_pivot_pairs(monkeypatch):
    asked = []
    query = ConnectivitySweep.query

    def counted_query(self, u, v, cutoff=None):
        asked.append((u, v))
        return query(self, u, v, cutoff=cutoff)

    monkeypatch.setattr(ConnectivitySweep, "query", counted_query)
    g = dense_exact_graph()
    delta = min(map(g.degree, range(g.n)))
    pivot = min(v for v in range(g.n) if g.degree(v) == delta)
    want = apvc_naive(g).min_offdiag()
    asked.clear()
    assert global_vc(g) == want
    assert len(asked) <= (g.n - 1) + delta * (delta - 1) // 2 < 435
    nbrs = g.neighbor_set(pivot)
    assert all(pivot in p or set(p) <= nbrs for p in asked)


def test_degree_split():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
    split = degree_split(g, 2)
    split.validate(g)
    assert split.high == (0,)
    assert set(split.low) == {1, 2, 3, 4}
    all_low = degree_split(g, 10)
    assert all_low.high == ()
    edgeless = degree_split(Graph.from_edges(3, []), 0)
    assert edgeless.high == ()


def test_sample_family_shape():
    fam = draw_sample_family(12, 3, seed=5)
    assert fam.t == sample_set_count(12, 3, 4.0)
    fam.validate(12)
    assert fam == draw_sample_family(12, 3, seed=5)  # deterministic in the seed
    assert fam != draw_sample_family(12, 3, seed=6)
    assert sample_set_count(1, 3, 4.0) == 0
    with pytest.raises(QueryError):
        draw_sample_family(12, 0, seed=5)


def test_sample_family_force():
    fam = draw_sample_family(15, 3, seed=2, force=7)
    assert all(7 in u_i for u_i in fam.sets)


def test_sample_family_inclusion_rate():
    # each vertex lands in a set with probability 1/k
    fam = draw_sample_family(40, 2, seed=9)
    rate = sum(len(u_i) for u_i in fam.sets) / (fam.t * 40)
    assert abs(rate - 0.5) < 0.05


def test_sampled_with_fallback_is_exact():
    rng = random.Random(33)
    for _ in range(15):
        n = rng.randint(2, 10)
        g = gen_gnp(n, rng.uniform(0.2, 0.9), rng.randrange(10**6))
        k = rng.randint(1, 4)
        mat = capped_apvc_sampled(g, k, seed=rng.randrange(10**6))
        mat.validate()
        for u, v in itertools.combinations(range(n), 2):
            true, _ = vertex_connectivity(g, u, v)
            assert mat.entry(u, v) == min(true, k)


def test_sampled_without_fallback_dominates():
    rng = random.Random(34)
    for _ in range(10):
        n = rng.randint(3, 12)
        g = gen_gnp(n, rng.uniform(0.3, 0.9), rng.randrange(10**6))
        k = rng.randint(1, 4)
        mat = capped_apvc_sampled(g, k, seed=rng.randrange(10**6), fallback=False)
        for u, v in itertools.combinations(range(n), 2):
            true, _ = vertex_connectivity(g, u, v)
            assert mat.entry(u, v) >= min(true, k)
            assert mat.entry(u, v) <= k


def test_verified_entry_catches_an_undershoot():
    sweep = ConnectivitySweep(k4())
    assert _verified_entry(sweep, (0, 1), est=3, k=3) == 3
    with pytest.raises(InconsistencyError):
        _verified_entry(sweep, (0, 1), est=1, k=3)  # the true value is 3


def test_sampled_pairs_restriction():
    g = gen_gnp(8, 0.5, 3)
    k = 2
    mat = capped_apvc_sampled(g, k, seed=1, pairs=[(0, 1), (5, 2)])
    true01, _ = vertex_connectivity(g, 0, 1)
    true25, _ = vertex_connectivity(g, 2, 5)
    assert mat.entry(0, 1) == min(true01, k)
    assert mat.entry(2, 5) == min(true25, k)
    assert mat.entry(3, 4) == k  # untouched entries keep the cap fill


def test_capped_ssvc_sampled():
    g = gen_gnp(9, 0.5, 8)
    k = 3
    row = capped_ssvc_sampled(g, 4, k, seed=7)
    assert row[4] == DIAG
    for v in range(9):
        if v == 4:
            continue
        true, _ = vertex_connectivity(g, 4, v)
        assert row[v] == min(true, k)


def test_fast_names_are_the_definitional_solvers():
    # every query stops at the smaller endpoint degree, so the degree split
    # of the paper's fast algorithms changes no flow and is not run
    assert fast_apvc is apvc_naive
    assert fast_ssvc is ssvc
    with pytest.raises(QueryError):
        fast_ssvc(k4(), -1)


@given(st.integers(0, 40), st.floats(0.1, 0.9), st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_fast_apvc_matches_naive(n, p, seed):
    g = gen_gnp(min(n, 9), p, seed)
    assert fast_apvc(g) == apvc_naive(g)
    assert fast_apvc(g, threads=2) == apvc_naive(g)


def test_fast_ssvc_matches_ssvc():
    rng = random.Random(56)
    for _ in range(8):
        n = rng.randint(2, 10)
        g = gen_gnp(n, rng.uniform(0.2, 0.8), rng.randrange(10**6))
        s = rng.randrange(n)
        assert fast_ssvc(g, s) == ssvc(g, s)
        assert fast_ssvc(g, s, threads=2) == ssvc(g, s)
    with pytest.raises(QueryError):
        fast_ssvc(g, -1)


def test_threads_do_not_change_answers():
    g = gen_gnp(12, 0.5, 42)
    assert apvc_naive(g, threads=2) == apvc_naive(g, threads=1)
    one = capped_apvc_sampled(g, 3, seed=9, threads=1)
    two = capped_apvc_sampled(g, 3, seed=9, threads=2)
    assert one == two
    assert fast_apvc(g, threads=2) == fast_apvc(g, threads=1)
    # sparse: most vertices are low-degree (5 is m^(1/3) rounded up, m = 86)
    sparse = gen_gnp(40, 0.1, 7)
    low = degree_split(sparse, 5).low
    assert len(low) > sparse.n // 2
    assert fast_apvc(sparse, threads=2) == fast_apvc(sparse, threads=1) == apvc_naive(sparse)
    s = low[0]
    assert fast_ssvc(sparse, s, threads=2) == fast_ssvc(sparse, s, threads=1) == ssvc(sparse, s)
    assert ssvc(sparse, s, threads=2) == ssvc(sparse, s)
    # enough work for the pool: the matrix is computed in two worker processes
    big = pooled_graph()
    assert apvc_naive(big, threads=2) == apvc_naive(big, threads=1)


def dense_exact_graph():
    """A graph of the benchmark's dense-exact size: n = 30, m = 218."""
    edges = random.Random(1).sample(list(itertools.combinations(range(30), 2)), 218)
    return Graph.from_edges(30, edges)


def pooled_graph():
    """G(36, 1/2), whose apvc_naive batch has enough work for a pool."""
    g = gen_gnp(36, 0.5, 1)
    assert g.m * 36 * 35 // 2 > solvers._MIN_POOLED_WORK
    return g


def test_most_dense_queries_run_no_search(monkeypatch):
    searches = []
    search = flow._sink_distances
    searched = []  # per query: did it run a sink BFS?
    query = ConnectivitySweep.query

    def counted_query(self, u, v, cutoff=None):
        before = len(searches)
        value = query(self, u, v, cutoff=cutoff)
        searched.append(len(searches) > before)
        return value

    monkeypatch.setattr(flow, "_sink_distances", lambda net: searches.append(net) or search(net))
    monkeypatch.setattr(ConnectivitySweep, "query", counted_query)
    # the edge and the paths of two and three edges reach min(deg u, deg v)
    # before Dinic starts in most pairs of a density-1/2 graph
    apvc_naive(dense_exact_graph())
    assert len(searched) == 435
    assert searched.count(False) > len(searched) / 2


@pytest.fixture
def pools(monkeypatch):
    """The worker count of every pool `_fan_out` opens, on a host with two
    CPUs; the pools run in process."""
    opened = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records each pool, maps in process."""

        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # _fan_out imports the pool class when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return opened


def test_fan_out_pools_only_work_worth_a_pool(monkeypatch, pools):
    builds = []
    build = ConnectivitySweep.__init__

    def counted_build(self, *args, **kwargs):
        builds.append(args)
        build(self, *args, **kwargs)

    monkeypatch.setattr(ConnectivitySweep, "__init__", counted_build)
    # 66 queries on m = 36 and 39 on m = 228: forking costs more than the flows
    small = gen_gnp(12, 0.5, 1)
    in_process = apvc_naive(small, threads=2)
    assert len(builds) == 1  # both in-process chunks query one network
    assert in_process == apvc_naive(small)
    mid = gen_gnp(40, 0.3, 1)
    assert ssvc(mid, 0, threads=2) == ssvc(mid, 0)
    assert pools == []
    # dense-exact's batch, 435 queries on m = 218, runs in process too: on
    # two CPUs it took a median 21 ms there against 25 ms in a pool of 2
    dense = dense_exact_graph()
    assert apvc_naive(dense, threads=2) == apvc_naive(dense)
    assert pools == []
    # 630 queries on m = 303 are above the threshold, so they are pooled
    big = pooled_graph()
    assert apvc_naive(big, threads=2) == apvc_naive(big)
    assert pools == [2]


def test_fan_out_starts_at_most_one_worker_per_cpu(monkeypatch, pools):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    big = pooled_graph()
    # 10 000 threads deal the 630 pairs one to a chunk, over three workers
    assert apvc_naive(big, threads=10_000) == apvc_naive(big)
    assert pools == [3]
    # ssvc's 35 queries are too little work for a pool at any thread count
    assert ssvc(big, 0, threads=10_000) == ssvc(big, 0)
    assert pools == [3]


def test_sampled_estimates_hold_one_network_at_a_time(monkeypatch):
    built = []  # a weak reference to each sweep, in build order
    others_alive = []  # at each build, how many earlier sweeps are still alive
    build = ConnectivitySweep.__init__

    def counted_build(self, *args, **kwargs):
        others_alive.append(sum(ref() is not None for ref in built))
        built.append(weakref.ref(self))
        build(self, *args, **kwargs)

    monkeypatch.setattr(ConnectivitySweep, "__init__", counted_build)
    g = gen_gnp(12, 0.5, 1)
    mat = capped_apvc_sampled(g, 3, seed=9)
    # one job per sample set with a pair in it; a job reuses the sweep only
    # when its set equals the previous job's, then one fallback sweep
    jobs = [u for u in draw_sample_family(12, 3, seed=9).sets if len(u) >= 2]
    assert len(built) == 1 + sum(a != b for a, b in zip([None] + jobs, jobs))
    assert len(built) > 20
    assert max(others_alive) == 0
    exact = apvc_naive(g)
    for u, v in itertools.combinations(range(12), 2):
        assert mat.entry(u, v) == min(exact.entry(u, v), 3)
