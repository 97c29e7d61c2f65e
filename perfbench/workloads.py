"""The benchmark's four workloads: seeded instances, references, jobs, checks.

A job is one public solver, pipeline or I/O call on one instance, the unit a
vclab user waits for. Jobs are grouped into rounds; a run repeats rounds and
stops only at a round boundary, so every run executes the same mix of job
kinds whatever its length. Instance sizes are fixed per workload (reduce-io
draws them from fixed strata) and mostly only the edges depend on the seed,
which keeps the figures of runs with different seeds comparable.

Each workload has two steps:

- `setup(vclab, seed, tiny)` generates the instances and constructs their
  Graphs (timed as part of `setup_s`);
- `plan(vclab, instances, corrupt)` computes references outside the timed
  set-up and returns the rounds. `corrupt` perturbs one reference, which the
  self-test uses to prove that the checks catch a wrong answer.

The program receives only the generated graphs; the seed never reaches it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Job:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    workers: int = 1  # processes the job fans out to


def _gnm_edges(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """G(n, M): M distinct edges drawn uniformly, i.e. G(n, p) at p = M / C(n, 2)
    conditioned on its expected edge count, so seeds differ in structure only."""
    return sorted(rng.sample(list(itertools.combinations(range(n), 2)), m))


def _planted_edges(rng: random.Random, n: int, m: int, plant: bool):
    """G(n, M) edges and, when planted, a 4-clique completed on random vertices."""
    edges = set(_gnm_edges(rng, n, m))
    four: tuple[int, ...] = ()
    if plant:
        four = tuple(sorted(rng.sample(range(n), 4)))
        edges.update(itertools.combinations(four, 2))
    return sorted(edges), four


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _equals(expected) -> Callable[[Any], bool]:
    return lambda out: out == expected


# ---------------------------------------------------------------------------
# sparse-fast: fast_apvc and fast_ssvc at the default thresholds, threads=1,
# on sparse random graphs of mean degree 5. Most vertices fall below the
# degree threshold, so the sampled low-degree path does nearly all the work.
# Every job gets a graph of its own, which makes the jobs of a run
# independent samples. A source below the mean degree costs fast_ssvc about
# twice what one above it costs, so the sides are stratified: three low
# sources and one high source per round put the median in the middle of the
# low-source jobs, where a random mix would move it from seed to seed.
# ---------------------------------------------------------------------------

SPARSE_N, SPARSE_M = 16, 40
SPARSE_LOW_SOURCES, SPARSE_HIGH_SOURCES = 3, 1
SPARSE_ROUNDS = 48


def setup_sparse_fast(vc, seed: int, tiny: bool):
    rng = _rng("sparse-fast", seed)
    (n, m), count = ((8, 12), 2) if tiny else ((SPARSE_N, SPARSE_M), SPARSE_ROUNDS)
    mean_degree = 2 * m / n

    def graph():
        return vc.Graph.from_edges(n, _gnm_edges(rng, n, m))

    def graph_and_source(low: bool):
        while True:
            g = graph()
            side = [v for v in range(n) if (g.degree(v) < mean_degree) == low]
            if side:
                return g, rng.choice(side)

    return [
        (graph(), [graph_and_source(low) for low in [True] * SPARSE_LOW_SOURCES + [False] * SPARSE_HIGH_SOURCES])
        for _ in range(count)
    ]


def plan_sparse_fast(vc, instances, corrupt: bool):
    rounds = []
    for i, (g, sources) in enumerate(instances):
        ref = vc.apvc_naive(g)
        if corrupt and i == 0:
            ref.put(0, 1, ref.entry(0, 1) + 1)
        round_ = [Job("fast_apvc", lambda g=g: vc.fast_apvc(g, threads=1).to_tsv(), _equals(ref.to_tsv()))]
        for h, s in sources:
            round_.append(Job("fast_ssvc", lambda h=h, s=s: vc.fast_ssvc(h, s, threads=1), _equals(vc.ssvc(h, s))))
        rounds.append(round_)
    return rounds


# ---------------------------------------------------------------------------
# dense-exact: the definitional solvers on random graphs of density 1/2.
# Direct Dinic flows and the 2-worker fan-out of apvc_naive do all the work;
# the sampler never runs. A round is one graph: its matrix, its global
# connectivity, two of its rows, and one pair certified from both sides.
# ---------------------------------------------------------------------------

DENSE_N, DENSE_M = 30, 218
DENSE_SOURCES = 2
DENSE_ROUNDS = 16


def setup_dense_exact(vc, seed: int, tiny: bool):
    rng = _rng("dense-exact", seed)
    (n, m), count = ((9, 18), 2) if tiny else ((DENSE_N, DENSE_M), DENSE_ROUNDS)
    out = []
    for _ in range(count):
        g = vc.Graph.from_edges(n, _gnm_edges(rng, n, m))
        sources = rng.sample(range(n), DENSE_SOURCES)
        pair = tuple(sorted(rng.sample(range(n), 2)))
        out.append((g, sources, pair))
    return out


def _paths_certify(g, u: int, v: int, paths, value: int) -> bool:
    """`value` internally vertex-disjoint u-v paths along edges of g."""
    if len(paths) != value:
        return False
    inner: set[int] = set()
    for path in paths:
        if path[0] != u or path[-1] != v or len(path) < 2:
            return False
        if any(not g.has_edge(a, b) for a, b in zip(path, path[1:])):
            return False
        middle = path[1:-1]
        if u in middle or v in middle or inner.intersection(middle) or len(set(middle)) != len(middle):
            return False
        inner.update(middle)
    # the direct edge may carry one path; it has no inner vertex to share
    return sum(len(p) == 2 for p in paths) <= 1


def plan_dense_exact(vc, instances, corrupt: bool):
    rounds = []
    for i, (g, sources, (u, v)) in enumerate(instances):
        ref = vc.apvc_naive(g)
        if corrupt and i == 0:
            ref.put(u, v, ref.entry(u, v) + 1)
        kappa = ref.entry(u, v)

        def cut_job(g=g, u=u, v=v):
            value, cert = vc.vertex_connectivity(g, u, v)
            return value, cert, vc.cut_disconnects(g, u, v, cert)

        def cut_ok(out, kappa=kappa):
            value, cert, disconnects = out
            return disconnects and value == cert.value == kappa

        round_ = [
            Job("apvc_naive", lambda g=g: vc.apvc_naive(g, threads=2).to_tsv(), _equals(ref.to_tsv()), workers=2),
            Job("global_vc", lambda g=g: vc.global_vc(g), _equals(ref.min_offdiag())),
        ]
        for s in sources:
            row = [int(x) for x in ref.values[s]]
            round_.append(Job("ssvc", lambda g=g, s=s: vc.ssvc(g, s), _equals(row)))
        round_.append(Job("vertex_connectivity", cut_job, cut_ok))
        round_.append(
            Job(
                "vertex_disjoint_paths",
                lambda g=g, u=u, v=v: vc.vertex_disjoint_paths(g, u, v),
                lambda paths, g=g, u=u, v=v, kappa=kappa: _paths_certify(g, u, v, paths, kappa),
            )
        )
        rounds.append(round_)
    return rounds


# ---------------------------------------------------------------------------
# clique-pipelines: both reductions run end to end without handles, on
# sources with and without a planted 4-clique. The flow core runs on the
# large structured networks H (10n vertices) and J (32n vertices). A round
# is five sources, each of its own: H with a plant and twice without, J with
# a demand inside a planted clique and J with a demand that is not. The
# unplanted H jobs hold the median and the J jobs the 90th percentile.
# ---------------------------------------------------------------------------

H_N, H_M = 12, 14
J_N, J_M = 5, 3
J_DEMAND = 3
CLIQUE_ROUNDS = 64


def setup_clique_pipelines(vc, seed: int, tiny: bool):
    rng = _rng("clique-pipelines", seed)
    (hn, hm), (jn, jm), count = (((5, 4), (4, 2), 2) if tiny else ((H_N, H_M), (J_N, J_M), CLIQUE_ROUNDS))
    out = []
    for _ in range(count):
        round_ = []
        for plant in (True, False, False):
            edges, _ = _planted_edges(rng, hn, hm, plant)
            round_.append(("h", vc.Graph.from_edges(hn, edges), None))
        for plant in (True, False):
            edges, four = _planted_edges(rng, jn, jm, plant)
            # a planted round asks about edges of the clique only
            pool = list(itertools.combinations(four, 2)) if plant else edges
            demand = rng.sample(pool, min(J_DEMAND, len(pool)))
            round_.append(("j", vc.Graph.from_edges(jn, edges), vc.EdgeSet.of(demand)))
        out.append(round_)
    return out


def plan_clique_pipelines(vc, instances, corrupt: bool):
    rounds = []
    for r, instance_round in enumerate(instances):
        round_ = []
        for i, (kind, g, demand) in enumerate(instance_round):
            flip = corrupt and r == 0 and i == 0
            if kind == "h":
                truth = (vc.brute_4clique(g) is not None) != flip
                round_.append(Job("solve_4clique_via_apvc", lambda g=g: vc.solve_4clique_via_apvc(g), _equals(truth)))
            else:
                truth = vc.brute_edge_universal(g, demand)[0] != flip
                round_.append(
                    Job(
                        "solve_edge_universal_via_steiner",
                        lambda g=g, d=demand: vc.solve_edge_universal_via_steiner(g, d),
                        _equals(truth),
                    )
                )
        rounds.append(round_)
    return rounds


# ---------------------------------------------------------------------------
# reduce-io: build H and J and round-trip them, and the source graph, through
# the text formats. No flow runs; graphs and reductions do all the work.
# ---------------------------------------------------------------------------

IO_SIZE_STRATA = tuple(range(20, 61, 5))
IO_DENSITY = 0.3
IO_DEMAND = 3
IO_ROUNDS = 6


def setup_reduce_io(vc, seed: int, tiny: bool):
    """A round draws one source size from each stratum [lo, lo + 5), so the
    latencies of a round spread evenly instead of sitting in a few clusters
    whose order would decide the percentiles."""
    rng = _rng("reduce-io", seed)
    strata, width, count = ((6, 8), 1, 1) if tiny else (IO_SIZE_STRATA, 5, IO_ROUNDS)
    out = []
    for _ in range(count):
        round_ = []
        for lo in strata:
            n = lo + rng.randrange(width)
            edges = _gnm_edges(rng, n, round(IO_DENSITY * n * (n - 1) / 2))
            round_.append((vc.Graph.from_edges(n, edges), vc.EdgeSet.of(rng.sample(edges, IO_DEMAND))))
        out.append(round_)
    return out


def _header(g) -> str:
    return f"{g.n} {g.m}\n"


def _same_hard(a, b) -> bool:
    return (
        a.graph == b.graph
        and a.inst.groups == b.inst.groups
        and (a.kind, a.source_n, a.thresholds, a.uniform_threshold, a.terminals, a.demand)
        == (b.kind, b.source_n, b.thresholds, b.uniform_threshold, b.terminals, b.demand)
    )


def _graph_round_trip(vc, g):
    """Jobs emit -> parse of a source graph; the parse must give it back."""
    state = {}

    def emit_job():
        state["text"] = vc.emit_graph(g)
        return state["text"]

    return [
        Job("emit_graph", emit_job, lambda text: text.startswith(_header(g))),
        Job("parse_graph", lambda: vc.parse_graph(state.pop("text")), _equals(g)),
    ]


def _hard_round_trip(vc, name, build, vertices):
    """Jobs build -> emit -> parse of a hard instance; the parse must give it back."""
    state = {}

    def build_job():
        state["built"] = build()
        return state["built"]

    def emit_job():
        state["text"] = vc.emit_hard_instance(state["built"])
        return state["text"]

    return [
        Job(name, build_job, lambda hard: hard.graph.n == vertices),
        Job("emit_hard_instance", emit_job, lambda text: text.startswith(_header(state["built"].graph))),
        Job(
            "parse_hard_instance",
            lambda: vc.parse_hard_instance(state.pop("text")),
            lambda hard: _same_hard(hard, state.pop("built")),
        ),
    ]


def plan_reduce_io(vc, instances, corrupt: bool):
    rounds = []
    for r, instance_round in enumerate(instances):
        round_ = []
        for i, (g, demand) in enumerate(instance_round):
            h_vertices = 10 * g.n + (corrupt and r == 0 and i == 0)
            round_ += _graph_round_trip(vc, g)
            round_ += _hard_round_trip(vc, "build_h", lambda g=g: vc.build_h(g), h_vertices)
            round_ += _hard_round_trip(vc, "build_j", lambda g=g, d=demand: vc.build_j(g, d), 32 * g.n)
        rounds.append(round_)
    return rounds


# name -> (setup, plan, rounds of the traced run). The traced run covers a
# fixed number of rounds, about ten seconds of jobs at the time of writing,
# so that its counts repeat exactly for a seed.
WORKLOADS = {
    "sparse-fast": (setup_sparse_fast, plan_sparse_fast, 10),
    "dense-exact": (setup_dense_exact, plan_dense_exact, DENSE_ROUNDS),
    "clique-pipelines": (setup_clique_pipelines, plan_clique_pipelines, 24),
    "reduce-io": (setup_reduce_io, plan_reduce_io, 2),
}
