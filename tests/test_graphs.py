import itertools
import pickle
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vclab.errors import GraphParseError
from vclab.flow import vertex_connectivity
from vclab.graphs import (
    MAX_VERTICES,
    EdgeSet,
    Graph,
    LabeledInstance,
    emit_graph,
    emit_labeled,
    gen_gnp,
    gen_planted_4clique,
    parse_edge_pairs,
    parse_graph,
    parse_labeled,
)
from vclab.oracles import brute_4clique


@st.composite
def graphs(draw, min_n=0, max_n=8):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    if not pairs:
        return Graph.from_edges(n, [])
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return Graph.from_edges(n, chosen)


def test_parse_path():
    g = parse_graph("3 2\n0 1\n1 2")
    assert (g.n, g.m) == (3, 2)
    assert g.neighbors(1) == (0, 2)


def test_parse_edgeless():
    g = parse_graph("2 0")
    assert (g.n, g.m) == (2, 0)


def test_parse_k4():
    g = parse_graph("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3")
    assert g.m == 6
    assert all(g.degree(v) == 3 for v in range(4))


@pytest.mark.parametrize(
    "doc, line",
    [
        ("", 1),
        ("3", 1),
        ("3 2\n0 1\nx 2", 3),
        ("3 2\n0 1\n1 5", 3),
        ("3 2\n0 1\n1 1", 3),
        ("3 3\n0 1\n1 2\n0 1", 4),
        ("3 3\n0 1\n1 0", 3),  # duplicate in reversed orientation
        ("3 5\n0 1\n1 2", 1),  # header count mismatch reported at header
        ("100000000000 0\n", 1),  # above MAX_VERTICES, rejected before allocating
        ("100000000000 1\n0 1\n", 1),
        ("3 100000000000\n0 1\n", 1),  # huge m, rejected before its separators are built
        (f"{MAX_VERTICES + 1} 0\n", 1),
    ],
)
def test_parse_errors_name_the_line(doc, line):
    with pytest.raises(GraphParseError) as err:
        parse_graph(doc)
    assert err.value.line == line


@given(graphs())
@settings(max_examples=60)
def test_round_trip_and_invariants(g):
    g.validate()
    assert parse_graph(emit_graph(g)) == g


def test_emit_is_canonical():
    a = Graph.from_edges(3, [(2, 1), (1, 0)])
    b = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert emit_graph(a) == emit_graph(b) == "3 2\n0 1\n1 2\n"


def test_from_edges_rejects_garbage():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_endpoints(3, [0, 1], [1])


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 1), (1, 0), (2, 3)], "duplicate edge (0, 1)"),  # before a range error
        ([(1, 2), (2, 2), (2, 1)], "self-loop at vertex 2"),  # before a duplicate
        ([(0, 1), (0, 3), (1, 1)], "edge (0, 3) out of range for n=3"),  # before a loop
        ([(0, 1), (1, 2), (-1, 2)], "edge (-1, 2) out of range for n=3"),
    ],
)
def test_from_edges_names_the_first_bad_edge(edges, message):
    with pytest.raises(ValueError) as err:
        Graph.from_edges(3, edges)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        Graph.from_edges(3, iter(edges))
    assert str(err.value) == message


def _reference_reject(n, edges):
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
    raise AssertionError("every edge is valid")


def reference_from_edges(n, edges):
    """The builder as one loop over (u, v) tuples: from_edges and
    from_endpoints must give its graph, or its error message."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    edges = list(edges)
    adj = [()] * n
    for v in range(n) if 2 * len(edges) >= n else {x for e in edges for x in e if 0 <= x < n}:
        adj[v] = []
    for u, v in edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            _reference_reject(n, edges)
        adj[u].append(v)
        adj[v].append(u)
    for nbrs in filter(None, adj):
        nbrs.sort()
    if sum(len(set(nbrs)) for nbrs in adj) != 2 * len(edges):
        _reference_reject(n, edges)
    return Graph(n, adj)


@st.composite
def edge_lists(draw):
    """n in -1..10 and a list of distinct edges in random orientation, with
    up to three bad entries inserted: a duplicate in either orientation, a
    self-loop, an out-of-range or negative endpoint, or a non-pair."""
    n = draw(st.integers(-1, 10))
    pairs = list(itertools.combinations(range(max(n, 0)), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    edges = [e[::-1] if draw(st.booleans()) else e for e in edges]
    endpoint = st.integers(-2, max(n, 0) + 1)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["duplicate", "loop", "range", "non-pair"]))
        if kind == "duplicate" and edges:
            e = draw(st.sampled_from(edges))
            bad = e[::-1] if draw(st.booleans()) else e
        elif kind == "loop":
            bad = (draw(endpoint),) * 2
        elif kind == "non-pair":
            bad = tuple(draw(st.lists(endpoint, min_size=1, max_size=3).filter(lambda t: len(t) != 2)))
        else:
            bad = (draw(endpoint), draw(endpoint))
        edges.insert(draw(st.integers(0, len(edges))), bad)
    return n, edges


def _outcome(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


@given(edge_lists())
@example((0, []))
@example((5, []))
@example((9, [(0, 8)]))  # 2m < n: only the endpoints get a list
@example((9, [(0, 8), (8, 0)]))
@example((9, [(0, 1), (1, 0), (2, 3, 4)]))  # a non-pair after a duplicate
@settings(max_examples=300)
def test_builders_match_the_reference_builder(case):
    n, edges = case
    expected = _outcome(lambda: reference_from_edges(n, edges))
    assert _outcome(lambda: Graph.from_edges(n, edges)) == expected
    assert _outcome(lambda: Graph.from_edges(n, iter(edges))) == expected
    if all(len(e) == 2 for e in edges):
        us, vs = [u for u, _ in edges], [v for _, v in edges]
        assert _outcome(lambda: Graph.from_endpoints(n, us, vs)) == expected
    if isinstance(expected, Graph):
        expected.validate()


def test_without_vertices_keeps_ids():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    h = g.without_vertices([1])
    assert h.n == 4
    assert h.edges() == [(2, 3)]
    assert h.degree(1) == 0


def test_isolated_vertices_share_one_neighbor_set():
    g = parse_graph("5 1\n1 3\n")
    assert g.neighbor_set(0) == frozenset()
    assert g.neighbor_set(0) is g.neighbor_set(2) is g.neighbor_set(4)
    h = g.without_vertices([1])
    assert h.neighbor_set(3) is h.neighbor_set(1) is g.neighbor_set(0)


def test_isolated_vertices_cost_no_adjacency_list():
    # the finished graph holds three 8 MiB tables (neighbors, the neighbor
    # set cache, the list they are built from); a list per vertex peaked at
    # 160 MiB
    tracemalloc.start()
    try:
        g = parse_graph(f"{2**20} 1\n0 {2**20 - 1}\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.neighbors(0) == (2**20 - 1,) and g.degree(1) == 0
    assert peak < 40 * 2**20


def test_neighbor_sets_are_built_on_first_use():
    g = gen_gnp(12, 0.5, 3)
    assert g._sets == [None] * g.n
    for v in range(g.n):
        s = g.neighbor_set(v)
        assert s == frozenset(g.neighbors(v))
        assert g.neighbor_set(v) is s
    h = gen_gnp(12, 0.5, 3)
    assert [[h.has_edge(u, v) for v in range(h.n)] for u in range(h.n)] == [
        [v in g.neighbors(u) for v in range(g.n)] for u in range(g.n)
    ]


def test_graph_with_built_sets_pickles():
    g = gen_gnp(10, 0.4, 2)
    g.neighbor_set(0)
    g.has_edge(3, 4)
    back = pickle.loads(pickle.dumps(g))
    assert back == g and back.m == g.m
    assert [back.neighbor_set(v) for v in range(g.n)] == [g.neighbor_set(v) for v in range(g.n)]


def test_with_edges_and_union():
    g = Graph.from_edges(3, [(0, 1)])
    assert g.with_edges([(1, 2), (0, 1)]).edges() == [(0, 1), (1, 2)]
    other = Graph.from_edges(4, [(2, 3)])
    assert g.union(other).edges() == [(0, 1), (2, 3)]
    assert g.union(other).n == 4


def test_edge_set_canonicalizes():
    es = EdgeSet.of([(2, 1), (1, 2), (0, 3)])
    assert es.pairs == ((0, 3), (1, 2))
    assert (1, 2) in es and (2, 1) in es
    assert (0, 1) not in es and (1, 3) not in es and (3, 2) not in es and (4, 5) not in es
    assert len(es) == 2
    with pytest.raises(ValueError):
        EdgeSet.of([(1, 1)])


def test_edge_pairs_round_trip():
    es = parse_edge_pairs("0 1\n3 2\n")
    assert es.pairs == ((0, 1), (2, 3))


@pytest.mark.parametrize("doc, line", [("0 1\n\n1 1\n", 3), ("0 x\n", 1), ("0 1 2\n", 1)])
def test_edge_pair_errors_name_the_line(doc, line):
    with pytest.raises(GraphParseError) as err:
        parse_edge_pairs(doc)
    assert err.value.line == line


def test_labeled_instance_partition():
    g = Graph.from_edges(4, [(0, 1)])
    inst = LabeledInstance.build(g, {"X": [0, 1], "Y": [3]})
    assert inst.group("plain") == (2,)
    inst.validate()
    with pytest.raises(ValueError):
        LabeledInstance.build(g, {"X": [0, 1], "Y": [1]})


def test_labeled_round_trip():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    inst = LabeledInstance.build(g, {"X": [0, 1], "Y": [2, 3]})
    text = emit_labeled(inst)
    back = parse_labeled(text)
    assert back.graph == g
    assert back.groups == inst.groups
    assert emit_labeled(back) == text


def test_gnp_extremes():
    assert gen_gnp(5, 0.0, 1).m == 0
    assert gen_gnp(5, 1.0, 1).m == 10
    assert gen_gnp(5, 0.5, 123) == gen_gnp(5, 0.5, 123)


def test_gnp_mean_edge_count():
    # expectation p * C(20, 2) = 57
    total = sum(gen_gnp(20, 0.3, seed).m for seed in range(1000))
    assert abs(total / 1000 - 57) <= 3


def test_planted_clique():
    assert brute_4clique(gen_planted_4clique(10, 0.1, True, 5)) is not None
    assert brute_4clique(gen_planted_4clique(10, 0.0, False, 5)) is None
    assert brute_4clique(gen_planted_4clique(4, 1.0, False, 5)) is not None
    with pytest.raises(ValueError):
        gen_planted_4clique(3, 0.5, True, 1)


def test_padding_preserves_connectivity():
    rng = random.Random(9)
    for _ in range(10):
        g = gen_gnp(rng.randint(2, 7), rng.uniform(0.3, 0.8), rng.randrange(10**6))
        padded = Graph.from_edges(g.n + rng.randint(0, 4), g.edges())
        assert padded.m == g.m
        u, v = rng.sample(range(g.n), 2)
        assert vertex_connectivity(g, u, v)[0] == vertex_connectivity(padded, u, v)[0]
