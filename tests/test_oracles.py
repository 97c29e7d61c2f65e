import itertools
import random

import pytest

from vclab.errors import DemandError, QueryError, SizeGuardError
from vclab.flow import ConnectivitySweep
from vclab.graphs import EdgeSet, Graph, gen_gnp, gen_planted_4clique
from vclab.oracles import (
    brute_4clique,
    brute_4clique_exhaustive,
    brute_edge_universal,
    brute_mixed_cut,
    random_edge_subset,
)
from vclab.solvers import global_vc


def k4_plus_tail():
    return Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])


def test_4clique_pinned():
    assert brute_4clique(k4_plus_tail()) == (0, 1, 2, 3)
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert brute_4clique(c5) is None
    assert brute_4clique(Graph.from_edges(3, [])) is None


def test_4clique_witness_is_a_clique():
    g = gen_planted_4clique(12, 0.4, True, 77)
    wit = brute_4clique(g)
    assert wit is not None
    a, b, c, d = wit
    for x, y in [(a, b), (a, c), (a, d), (b, c), (b, d), (c, d)]:
        assert g.has_edge(x, y)


def test_4clique_agrees_with_exhaustive():
    # two independent enumeration orders must land on the same verdict
    rng = random.Random(31)
    for _ in range(500):
        n = rng.randint(0, 9)
        g = gen_gnp(n, rng.uniform(0.2, 0.9), rng.randrange(10**6))
        fast = brute_4clique(g)
        slow = brute_4clique_exhaustive(g)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert fast == slow  # both report the lexicographically first witness


def test_edge_universal_cases():
    g = k4_plus_tail()
    ok, witness = brute_edge_universal(g, EdgeSet.of([]))
    assert ok and witness is None
    ok, witness = brute_edge_universal(g, EdgeSet.of([(0, 1), (2, 3)]))
    assert ok and witness is None
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    ok, witness = brute_edge_universal(c5, EdgeSet.of([(1, 2)]))
    assert not ok
    assert witness == (1, 2)
    with pytest.raises(DemandError):
        brute_edge_universal(c5, EdgeSet.of([(0, 2)]))


def test_edge_universal_witness_has_no_clique():
    # the reported edge really fails: no 4-clique uses it
    g = gen_gnp(8, 0.55, 40)
    ok, witness = brute_edge_universal(g, EdgeSet.of(g.edges()))
    if not ok:
        u, v = witness
        common = g.neighbor_set(u) & g.neighbor_set(v)
        assert not any(
            g.has_edge(x, y) for x in common for y in common if x < y
        )


def test_mixed_cut_pinned():
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert brute_mixed_cut(p3, 0, 2) == 1
    k4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert brute_mixed_cut(k4, 0, 3) == 3
    two = Graph.from_edges(2, [])
    assert brute_mixed_cut(two, 0, 1) == 0
    edge = Graph.from_edges(2, [(0, 1)])
    assert brute_mixed_cut(edge, 0, 1) == 1  # only the edge itself is removable


def test_mixed_cut_element_mode():
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    # vertex 1 is a terminal, so only edges may be cut
    assert brute_mixed_cut(p3, 0, 2, terminals=(0, 1, 2)) == 1
    assert brute_mixed_cut(p3, 0, 2, terminals=(0, 2)) == 1
    k4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert brute_mixed_cut(k4, 0, 3, terminals=(0, 1, 2, 3)) == 3


def test_mixed_cut_guards():
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(QueryError):
        brute_mixed_cut(p3, 1, 1)
    with pytest.raises(QueryError):
        brute_mixed_cut(p3, 0, 2, terminals=(1, 2))
    big = gen_gnp(12, 0.9, 3)
    with pytest.raises(SizeGuardError):
        brute_mixed_cut(big, 0, 1)


def test_mixed_cut_symmetry():
    rng = random.Random(8)
    for _ in range(30):
        g = gen_gnp(rng.randint(2, 6), rng.uniform(0.2, 0.9), rng.randrange(10**6))
        u, v = rng.sample(range(g.n), 2)
        assert brute_mixed_cut(g, u, v) == brute_mixed_cut(g, v, u)


def test_random_edge_subset():
    g = gen_gnp(10, 0.7, 4)
    assert len(random_edge_subset(g, 0.0, random.Random(1))) == 0
    assert len(random_edge_subset(g, 1.0, random.Random(1))) == g.m
    sub = random_edge_subset(g, 0.5, random.Random(2))
    assert all(g.has_edge(u, v) for u, v in sub)


@pytest.mark.parametrize("n, p", [(50, 0.2), (100, 0.1), (200, 0.05)])
def test_sweep_matches_networkx(n, p):
    """A second max-flow implementation at medium n. networkx cuts vertices
    only, so an adjacent pair's kappa is 1 + its kappa without the edge.
    Only vertices 0-2 keep edges across the two halves, so a pair across
    them has kappa <= 3, below its degrees."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.connectivity import build_auxiliary_node_connectivity, local_node_connectivity
    from networkx.algorithms.flow import build_residual_network

    half = n // 2
    g = gen_gnp(n, p, 8000 + n)
    g = Graph.from_edges(n, [(a, b) for a, b in g.edges() if a < 3 or (a < half) == (b < half)])
    nxg = nx.Graph(g.edges())
    nxg.add_nodes_from(range(n))
    aux = build_auxiliary_node_connectivity(nxg)
    residual = build_residual_network(aux, "capacity")
    rng = random.Random(n)
    adjacent = rng.sample(g.edges(), 5)
    apart = [(u, v) for u, v in (rng.sample(range(n), 2) for _ in range(40)) if not g.has_edge(u, v)][:15]
    sweep = ConnectivitySweep(g)
    for u, v in apart:
        assert sweep.query(u, v) == local_node_connectivity(nxg, u, v, auxiliary=aux, residual=residual)
    for u, v in adjacent:
        nxg.remove_edge(u, v)
        assert sweep.query(u, v) == 1 + local_node_connectivity(nxg, u, v)
        nxg.add_edge(u, v)


@pytest.mark.parametrize("n, p", [(50, 0.4), (100, 0.2), (200, 0.1)])
def test_global_vc_matches_networkx(n, p):
    """The glued graph joins its halves through vertices 0-2, so its kappa
    is at most 3, below its typical degree."""
    nx = pytest.importorskip("networkx")
    half = n // 2
    plain = gen_gnp(n, p, 8100 + n)
    glued = Graph.from_edges(n, [(a, b) for a, b in plain.edges() if a < 3 or (a < half) == (b < half)])
    # networkx cuts vertices only, which suffices: outside K_n a non-adjacent pair attains the minimum
    for g in (plain, glued, Graph.from_edges(n // 10, list(itertools.combinations(range(n // 10), 2)))):
        nxg = nx.Graph(g.edges())
        nxg.add_nodes_from(range(g.n))
        assert global_vc(g) == nx.node_connectivity(nxg)
