"""What does each Dinic phase of a connectivity query do?

For each point (a solver on a seeded instance) this script counts, over all
of the solver's connectivity queries: the queries, the units the warm start
routes before Dinic runs, and, for each sink search, the source's residual
distance, the nodes it labels and the units the phase after it routes. It
wraps `ConnectivitySweep.query`, `ConnectivitySweep._route_short_paths`,
`flow._sink_distances` and `flow._blocking_flow` from outside, so vclab
itself carries no counters. It prints one table per point:

    source distance | searches | units | units per phase | labelled per search

with one row per distance the searches reached, and a row "none" for the
searches that found no path (they end a query that the degree bound or the
cutoff did not stop). Standard library only; run it from the repository
root:

    PYTHONPATH=src python3 experiments/flow_phases.py [--small]

The points are the 4-clique pipeline on H of an unplanted G(12, 0.2), the
Steiner pipeline on J of G(5, 0.3) with a planted 4-clique and three demand
edges inside it, and `apvc_naive` on G(30, 1/2). Each pipeline runs without
a handle, one capped query per pair, as `clique-pipelines` runs it. H's
answer is no and J's is yes, so neither stops early: H's pipeline queries
every edge of its source and J's every terminal pair. `--small` runs the
points at n = 5, 4 and 10 instead (the smoke test's size).
"""

from __future__ import annotations

import argparse
import itertools
import random
from collections import defaultdict

from vclab import flow, reductions, solvers
from vclab.graphs import EdgeSet, gen_gnp, gen_planted_4clique
from vclab.oracles import brute_4clique

SEED = 1


class Counts:
    """The counters of one point, filled by the wrappers of `recording`."""

    def __init__(self) -> None:
        self.queries = 0
        self.warm = 0
        self.searches: dict[int, list[int]] = defaultdict(lambda: [0, 0, 0])  # searches, units, labelled


def recording(counts: Counts):
    """Install wrappers that count into `counts`; returns the undo function."""
    sweep = flow.ConnectivitySweep
    originals = (sweep.query, sweep._route_short_paths, flow._sink_distances, flow._blocking_flow)
    query, route, search, block = originals

    def counted_query(self, u, v, cutoff=None):
        counts.queries += 1
        return query(self, u, v, cutoff)

    def counted_route(self, u, v, limit):
        pushed = route(self, u, v, limit)
        counts.warm += pushed
        return pushed

    def counted_search(net):
        dist = search(net)
        d = dist[net.source]
        row = counts.searches[d]
        row[0] += 1
        row[2] += sum(1 for x in dist if x >= 0)
        return dist

    def counted_block(net, dist, budget):
        # the phase's source distance, read before the DFS marks dead nodes
        d = dist[net.source]
        units = block(net, dist, budget)
        counts.searches[d][1] += units
        return units

    sweep.query, sweep._route_short_paths = counted_query, counted_route
    flow._sink_distances, flow._blocking_flow = counted_search, counted_block

    def undo() -> None:
        sweep.query, sweep._route_short_paths, flow._sink_distances, flow._blocking_flow = originals

    return undo


def points(small: bool):
    hn, jn, gn = (5, 4, 10) if small else (12, 5, 30)
    h_source = gen_gnp(hn, 0.2, SEED)
    yield f"4-clique via H, unplanted G({hn}, 0.2)", lambda: reductions.solve_4clique_via_apvc(h_source)
    # a demand inside the planted clique: the answer is yes, so every terminal pair is queried
    j_source = gen_planted_4clique(jn, 0.3, True, SEED)
    clique = brute_4clique(j_source)
    demand = EdgeSet.of(random.Random(SEED).sample(list(itertools.combinations(clique, 2)), 3))
    yield f"edge-universal via J, planted G({jn}, 0.3)", lambda: reductions.solve_edge_universal_via_steiner(
        j_source, demand
    )
    dense = gen_gnp(gn, 0.5, SEED)
    yield f"`apvc_naive` on G({gn}, 0.5)", lambda: solvers.apvc_naive(dense)


def report(name: str, counts: Counts) -> list[str]:
    lines = [
        f"## {name}: {counts.queries} queries, {counts.warm} warm-started units",
        "| source distance | searches | units | units per phase | labelled per search |",
        "|---|---|---|---|---|",
    ]
    # failing searches (distance -1) last
    for d in sorted(counts.searches, key=lambda d: (d < 0, d)):
        searches, units, labelled = counts.searches[d]
        per_phase = f"{units / searches:.2f}" if d >= 0 else "-"
        lines.append(f"| {d if d >= 0 else 'none'} | {searches} | {units} | {per_phase} | {labelled / searches:.1f} |")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--small", action="store_true", help="run every point at its smallest size")
    args = parser.parse_args()
    for name, run in points(args.small):
        counts = Counts()
        undo = recording(counts)
        try:
            run()
        finally:
            undo()
        print("\n".join(report(name, counts)))


if __name__ == "__main__":
    main()
