"""Acceptance gate: ten go/no-go checks at fixed scales and tolerances.

Each test prints exactly one `criterion N: PASS/FAIL` line (visible under
`pytest -s`); the asserts carry the details when something breaks.
"""

import contextlib
import io
import itertools
import random
import time

from vclab.cli import main
from vclab.graphs import Graph, emit_graph, gen_gnp, gen_planted_4clique
from vclab.reductions import (
    H_GROUPS,
    apvc_threshold,
    build_h,
    build_j,
)
from vclab.oracles import random_edge_subset
from vclab.solvers import (
    apvc_naive,
    capped_apvc_sampled,
    ssvc,
)
from vclab.verify import (
    suite_filter,
    suite_flow,
    suite_gadget,
    suite_h_chain,
    suite_pipeline_apvc,
    suite_pipeline_steiner,
    suite_sampler,
)


def _criterion(number: int, description: str, budget_s: float, run):
    t0 = time.time()
    try:
        detail = run()
    except BaseException:
        print(f"\ncriterion {number}: FAIL - {description}")
        raise
    elapsed = time.time() - t0
    tail = f"{detail}, " if detail else ""
    if elapsed > budget_s:
        print(f"\ncriterion {number}: FAIL - {description} ({tail}over budget: {elapsed:.1f}s > {budget_s:.0f}s)")
        raise AssertionError(f"criterion {number} exceeded its {budget_s:.0f}s budget: {elapsed:.1f}s")
    print(f"\ncriterion {number}: PASS - {description} ({tail}{elapsed:.1f}s)")


def _assert_suite(result, minimum_cases):
    assert result.cases >= minimum_cases, f"only {result.cases} cases"
    assert result.ok, result.summary()
    return f"{result.cases} cases"


def test_criterion_1_menger_vs_brute():
    def run():
        return _assert_suite(suite_flow(trials=300, max_n=7, seed=101), 300)

    _criterion(1, "vertex/element connectivity equals brute mixed cut, n <= 7", 60, run)


def test_criterion_2_gadget_identity():
    def run():
        return _assert_suite(suite_gadget(trials=200, max_n=12, seed=102), 200)

    _criterion(2, "isolating-gadget additive identity on random hosts", 120, run)


def test_criterion_3_filter_identities():
    def run():
        # each trial checks one B-filter host and one C-filter host
        return _assert_suite(suite_filter(trials=100, seed=103), 200)

    _criterion(3, "both set-intersection filter offsets, 100 hosts each", 120, run)


def test_criterion_4_h_chain():
    def run():
        return _assert_suite(suite_h_chain(trials=50, max_n=8, seed=104), 50)

    _criterion(4, "composed H chain identity over all n^2 pairs, 50 graphs", 300, run)


def test_criterion_5_apvc_pipeline():
    def run():
        return _assert_suite(suite_pipeline_apvc(trials=200, max_n=12, seed=105), 200)

    _criterion(5, "4-clique via APVC matches brute force, 200 graphs n <= 12", 600, run)


def test_criterion_6_steiner_pipeline():
    def run():
        return _assert_suite(suite_pipeline_steiner(trials=200, max_n=8, seed=106), 200)

    _criterion(6, "edge-universal via Steiner matches brute force + J floor bounds", 900, run)


def test_criterion_7_sampler():
    def run():
        exact = suite_sampler(trials=100, max_n=30, seed=107, fallback=True)
        _assert_suite(exact, 100)

        # no-fallback failure rate, fixed n=30 k=3 c=4
        misses = 0
        pair_trials = 0
        for i, p in enumerate((0.1, 0.2, 0.3)):
            g = gen_gnp(30, p, 9000 + i)
            naive = apvc_naive(g)
            raw = capped_apvc_sampled(g, 3, seed=9100 + i, fallback=False)
            for u, v in itertools.combinations(range(30), 2):
                want = min(naive.entry(u, v), 3)
                have = raw.entry(u, v)
                assert have >= want, f"dominance breach at ({u},{v}): {have} < {want}"
                pair_trials += 1
                misses += int(have != want)
        assert pair_trials >= 500
        rate = misses / pair_trials
        assert rate < 0.01, f"failure rate {rate:.2%} over {pair_trials} pair-trials"
        return f"exact on {exact.cases} graphs; overshoot {misses}/{pair_trials} ({rate:.2%})"

    _criterion(7, "capped sampler: exact with fallback, <1% overshoot without", 600, run)


def test_criterion_8_fast_solver_exactness():
    def run():
        rng = random.Random(108)
        instances = [
            gen_gnp(n, p, rng.randrange(10**6))
            for n in (6, 10, 14)
            for p in (0.2, 0.5, 0.8)
        ]
        instances.append(Graph.from_edges(10, [(0, v) for v in range(1, 10)]))  # star
        instances.append(Graph.from_edges(10, [(v, v + 1) for v in range(9)]))  # path
        instances.append(gen_planted_4clique(12, 0.3, True, 5))
        checks = 0
        for g in instances:
            want = apvc_naive(g)
            for s in range(g.n):
                for threads in (1, 2):
                    row = ssvc(g, s, threads=threads)
                    assert row == [int(x) for x in want.values[s]], f"s={s} on {emit_graph(g)}"
                    checks += 1
        # reference scale: one random source per graph
        for seed in range(100):
            g = gen_gnp(20, 0.3, 7000 + seed)
            want = apvc_naive(g)
            s = rng.randrange(g.n)
            for threads in (1, 2):
                assert ssvc(g, s, threads=threads) == [int(x) for x in want.values[s]], f"seed {seed}"
                checks += 1
        return f"{len(instances)} instances x every source + 100 at n=20, {checks} comparisons"

    _criterion(8, "ssvc rows equal apvc_naive rows, threads 1 and 2", 600, run)


def test_criterion_9_structural_constants():
    def run():
        rng = random.Random(109)
        built = 0
        for n in range(1, 9):
            g = gen_gnp(n, 0.5, rng.randrange(10**6))
            hard = build_h(g)
            assert hard.graph.n == 10 * n
            assert all(len(hard.inst.group(t)) == n for t in H_GROUPS)
            for (a, d), thr in hard.thresholds.items():
                assert thr == apvc_threshold(g, a, d - 3 * n)
            demand = random_edge_subset(g, 0.5, rng)
            j = build_j(g, demand)
            assert j.graph.n == 32 * n
            assert len(j.inst.group("A'")) == 10 * n
            assert len(j.inst.group("D'")) == 10 * n
            built += 2
        k4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert apvc_threshold(k4, 0, 1) == 19
        assert build_h(k4).thresholds[(0, 13)] == 19
        return f"{built} instances, n up to 8"

    _criterion(9, "|V(H)|=10n, |V(J)|=32n, |A'|=|D'|=10n, K4 threshold 19", 60, run)


def test_criterion_10_determinism(tmp_path):
    def run():
        src = tmp_path / "src.txt"
        src.write_text(emit_graph(gen_gnp(14, 0.5, 7)))
        demand = tmp_path / "demand.txt"
        demand.write_text("")
        commands = {
            "gen": ["gen", "gnp", "--n", "18", "--p", "0.4", "--seed", "11"],
            "st": ["vc", "st", "--graph", str(src), "--s", "0", "--t", "5"],
            "apvc-naive": ["vc", "apvc", "--graph", str(src), "--threads", "1"],
            "apvc-fast": ["vc", "apvc", "--graph", str(src), "--algo", "fast", "--seed", "11"],
            "apvc-sampled": ["vc", "apvc", "--graph", str(src), "--algo", "sampled",
                             "--k", "3", "--seed", "11"],
            "ssvc-sampled": ["vc", "ssvc", "--graph", str(src), "--algo", "sampled",
                             "--s", "2", "--k", "3", "--seed", "11"],
            "reduce-apvc": ["reduce", "apvc", "--graph", str(src)],
            "reduce-steiner": ["reduce", "steiner", "--graph", str(src),
                               "--demand", str(demand)],
        }
        runs = 0
        for name, argv in commands.items():
            outputs = set()
            for attempt, threads in enumerate(("1", "2", "1")):
                out = tmp_path / f"{name}.{attempt}"
                extra = ["--threads", threads] if argv[0] == "vc" and "--threads" not in argv else []
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv + extra + ["--out", str(out)]) == 0
                outputs.add(out.read_bytes())
                runs += 1
            assert len(outputs) == 1, f"{name} payload varies across runs/threads"
        return f"{len(commands)} commands x 3 runs"

    _criterion(10, "seeded payloads byte-identical across runs and thread counts", 120, run)
