"""Randomized property suites behind the `verify` command.

Each suite draws fresh instances from a base seed, checks one family of
identities, and reports every violation with the instance document and the
per-trial seed so a failure is reproducible from the command line alone.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field

from .errors import VclabError
from .flow import ConnectivitySweep, cut_disconnects, vertex_connectivity
from .graphs import Graph, emit_graph, gen_gnp, gen_planted_4clique
from .oracles import (
    MIXED_CUT_MAX_N,
    brute_4clique,
    brute_edge_universal,
    brute_mixed_cut,
    random_edge_subset,
)
from .reductions import (
    apvc_threshold,
    attach_gadget,
    build_filter_b,
    build_filter_c,
    build_h,
    build_h_hat,
    build_j,
    filter_b_offset,
    filter_b_reduced_host,
    filter_c_offset,
    filter_c_reduced_host,
    four_partite,
    gadget_reduced_host,
    h_chain_offset,
    solve_4clique_via_apvc,
    solve_edge_universal_via_steiner,
    steiner_threshold,
)
from .solvers import apvc_naive, capped_apvc_sampled


@dataclass
class SuiteResult:
    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)
    seconds: float = 0.0
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        state = "pass" if self.ok else f"FAIL ({len(self.failures)} violations)"
        out = f"suite {self.name}: {state}, {self.cases} cases in {self.seconds:.1f}s"
        for note in self.notes:
            out += f"\n  {note}"
        for f in self.failures[:5]:
            out += f"\n  {f}"
        if len(self.failures) > 5:
            out += f"\n  ... and {len(self.failures) - 5} more"
        return out


def _require_max_n(max_n: int, low: int, high: int | None = None) -> None:
    """Every trial draws its size from [low, max_n], so that range must not be
    empty; a suite checked by brute force also caps max_n at `high`."""
    if max_n < low:
        raise VclabError(f"max instance size must be >= {low} for this suite, got {max_n}")
    if high is not None and max_n > high:
        raise VclabError(f"max instance size must be <= {high} for this suite, got {max_n}")


def _record(res: SuiteResult, cond: bool, trial_seed: int, message: str, g: Graph) -> None:
    res.cases += 1
    if not cond:
        res.failures.append(f"seed {trial_seed}: {message}\n{emit_graph(g)}")


def suite_flow(trials: int = 300, max_n: int = 7, seed: int = 0) -> SuiteResult:
    """Flow-based connectivity vs the subset-enumeration cut search."""
    _require_max_n(max_n, 2, MIXED_CUT_MAX_N)
    res = SuiteResult("flow")
    t0 = time.perf_counter()
    rng = random.Random(seed)
    done = 0
    while done < trials:
        trial_seed = rng.randrange(10**9)
        sub = random.Random(trial_seed)
        n = sub.randint(2, max_n)
        g = gen_gnp(n, sub.uniform(0.1, 0.9), trial_seed)
        if g.m > 14:
            continue
        u, v = sub.sample(range(n), 2)
        kappa, cert = vertex_connectivity(g, u, v)
        ref = brute_mixed_cut(g, u, v)
        _record(res, kappa == ref, trial_seed, f"vertex kappa({u},{v}) {kappa} != brute {ref}", g)
        _record(res, cut_disconnects(g, u, v, cert), trial_seed, f"certificate for ({u},{v}) fails to disconnect", g)
        terms = set(sub.sample(range(n), sub.randint(2, n))) | {u, v}
        ke = ConnectivitySweep(g, terms).query(u, v)
        refe = brute_mixed_cut(g, u, v, terminals=terms)
        _record(res, ke == refe, trial_seed, f"element kappa'({u},{v}) {ke} != brute {refe} (U={sorted(terms)})", g)
        done += 1
    res.seconds = time.perf_counter() - t0
    return res


def suite_gadget(trials: int = 200, max_n: int = 12, seed: int = 0) -> SuiteResult:
    """Additive isolation identity of the gadget, non-adjacent pairs only."""
    _require_max_n(max_n, 2)
    res = SuiteResult("gadget")
    t0 = time.perf_counter()
    rng = random.Random(seed)
    done = 0
    while done < trials:
        trial_seed = rng.randrange(10**9)
        sub = random.Random(trial_seed)
        n = sub.randint(2, max_n)
        r = gen_gnp(n, sub.uniform(0.1, 0.7), trial_seed)
        verts = list(range(n))
        sub.shuffle(verts)
        xs = sub.randint(1, max(1, n // 2))
        ys = sub.randint(1, max(1, n - xs))
        x_side, y_side = sorted(verts[:xs]), sorted(verts[xs : xs + ys])
        free = [(x, y) for x in x_side for y in y_side if not r.has_edge(x, y)]
        if not free:
            continue
        x, y = sub.choice(free)
        lhs = vertex_connectivity(attach_gadget(r, x_side, y_side), x, y)[0]
        rhs = vertex_connectivity(gadget_reduced_host(r, x_side, y_side, x, y), x, y)[0]
        rhs += len(x_side) + len(y_side)
        _record(res, lhs == rhs, trial_seed, f"gadget identity {lhs} != {rhs} (X={x_side}, Y={y_side}, x={x}, y={y})", r)
        done += 1
    res.seconds = time.perf_counter() - t0
    return res


def _random_host(n6: int, allowed: list[int], p: float, rng: random.Random) -> Graph:
    edges = [e for e in itertools.combinations(sorted(allowed), 2) if rng.random() < p]
    return Graph.from_edges(n6, edges)


def suite_filter(trials: int = 100, max_n: int = 6, seed: int = 0) -> SuiteResult:
    """Additive offset identities of both filters, on random hosts."""
    _require_max_n(max_n, 2)
    res = SuiteResult("filter")
    t0 = time.perf_counter()
    rng = random.Random(seed)
    for _ in range(trials):
        trial_seed = rng.randrange(10**9)
        sub = random.Random(trial_seed)
        n = sub.randint(2, max_n)
        g = gen_gnp(n, sub.uniform(0.2, 0.8), trial_seed)
        fp = four_partite(g)
        a = sub.randrange(n)
        d = 3 * n + sub.randrange(n)
        # the host may touch anything except the filter's private copy layer
        extra = sub.sample(fp.inst.group("C"), sub.randint(0, n))
        host = _random_host(6 * n, [a, d] + list(fp.inst.group("B")) + extra, sub.uniform(0.2, 0.6), sub)
        lhs = vertex_connectivity(host.union(build_filter_b(fp, a, d).graph), a, d)[0]
        rhs = vertex_connectivity(filter_b_reduced_host(fp, host, a, d), a, d)[0]
        rhs += filter_b_offset(fp, a, d)
        _record(res, lhs == rhs, trial_seed, f"B filter identity {lhs} != {rhs} (a={a}, d={d})", g)

        extra = sub.sample(fp.inst.group("B"), sub.randint(0, n))
        host = _random_host(6 * n, [a, d] + list(fp.inst.group("C")) + extra, sub.uniform(0.2, 0.6), sub)
        lhs = vertex_connectivity(host.union(build_filter_c(fp, a, d).graph), a, d)[0]
        rhs = vertex_connectivity(filter_c_reduced_host(fp, host, a, d), a, d)[0]
        rhs += filter_c_offset(fp, a, d)
        _record(res, lhs == rhs, trial_seed, f"C filter identity {lhs} != {rhs} (a={a}, d={d})", g)
    res.seconds = time.perf_counter() - t0
    return res


def suite_h_chain(trials: int = 50, max_n: int = 8, seed: int = 0) -> SuiteResult:
    """kappa_H(a, d) minus the witness core equals the fixed offset, all pairs."""
    _require_max_n(max_n, 1)
    res = SuiteResult("h-chain")
    t0 = time.perf_counter()
    rng = random.Random(seed)
    for _ in range(trials):
        trial_seed = rng.randrange(10**9)
        sub = random.Random(trial_seed)
        n = sub.randint(1, max_n)
        g = gen_gnp(n, sub.uniform(0.1, 0.9), trial_seed)
        fp = four_partite(g)
        hard = build_h(g)
        sweep = ConnectivitySweep(hard.graph)
        for a in range(n):
            for dv in range(n):
                d = 3 * n + dv
                kh = sweep.query(a, d)
                hat = vertex_connectivity(build_h_hat(fp, a, d), a, d)[0]
                want = hat + h_chain_offset(fp, a, d)
                _record(res, kh == want, trial_seed, f"chain at (a={a}, d={d}): {kh} != {want}", g)
                thr = apvc_threshold(g, a, dv)
                _record(res, kh >= thr - 1, trial_seed, f"lower bound at (a={a}, d={d}): {kh} < {thr - 1}", g)
    res.seconds = time.perf_counter() - t0
    return res


def suite_pipeline_apvc(trials: int = 200, max_n: int = 12, seed: int = 0) -> SuiteResult:
    """solve_4clique_via_apvc against the brute-force clique search."""
    _require_max_n(max_n, 4)
    res = SuiteResult("pipeline-apvc")
    t0 = time.perf_counter()
    rng = random.Random(seed)
    for i in range(trials):
        trial_seed = rng.randrange(10**9)
        sub = random.Random(trial_seed)
        n = sub.randint(4, max_n)
        if i % 5 == 0:
            g = gen_planted_4clique(n, sub.uniform(0.05, 0.4), True, trial_seed)
        else:
            g = gen_gnp(n, sub.uniform(0.1, 0.9), trial_seed)
        want = brute_4clique(g) is not None
        got = solve_4clique_via_apvc(g)
        _record(res, got == want, trial_seed, f"apvc pipeline says {got}, brute says {want}", g)
    res.seconds = time.perf_counter() - t0
    return res


def suite_pipeline_steiner(trials: int = 200, max_n: int = 8, seed: int = 0) -> SuiteResult:
    """Steiner pipeline against the brute universal-4-clique check, plus the
    same-side and cross-pair floor bounds on every built J."""
    _require_max_n(max_n, 2)
    res = SuiteResult("pipeline-steiner")
    t0 = time.perf_counter()
    rng = random.Random(seed)
    for i in range(trials):
        trial_seed = rng.randrange(10**9)
        sub = random.Random(trial_seed)
        n = sub.randint(2, max_n)
        g = gen_gnp(n, sub.uniform(0.2, 0.9), trial_seed)
        if i % 3 == 0:
            demand = random_edge_subset(g, 1.0, sub)  # demand = E(g)
        elif i % 3 == 1:
            demand = random_edge_subset(g, 0.0, sub)  # empty demand
        else:
            demand = random_edge_subset(g, sub.uniform(0.2, 0.8), sub)
        hard = build_j(g, demand)
        thr = steiner_threshold(n)
        sweep = ConnectivitySweep(hard.graph)
        side_pairs = list(itertools.combinations(range(n), 2))
        for u, v in side_pairs:
            va = sweep.query(u, v, cutoff=10 * n)
            _record(res, va >= 10 * n, trial_seed, f"same-side A ({u},{v}): {va} < {10*n}", g)
            vd = sweep.query(3 * n + u, 3 * n + v, cutoff=10 * n)
            _record(res, vd >= 10 * n, trial_seed, f"same-side D ({u},{v}): {vd} < {10*n}", g)
        dset = set(demand.pairs)
        for u in range(n):
            for v in range(n):
                if u != v and tuple(sorted((u, v))) in dset:
                    continue
                val = sweep.query(u, 3 * n + v, cutoff=thr)
                _record(res, val >= thr, trial_seed, f"non-demand ({u},{v}): {val} < {thr}", g)
        want, _ = brute_edge_universal(g, demand)
        got = solve_edge_universal_via_steiner(g, demand)
        _record(res, got == want, trial_seed, f"steiner pipeline says {got}, brute says {want} (demand {list(demand)})", g)
    res.seconds = time.perf_counter() - t0
    return res


def suite_sampler(
    trials: int = 100,
    max_n: int = 30,
    seed: int = 0,
    fallback: bool = True,
    c: float = 4.0,
) -> SuiteResult:
    """Sampled capped solver vs the naive matrix.

    With fallback: exact equality to entrywise min(kappa, k). Without:
    dominance is enforced and the empirical per-pair failure rate reported.
    """
    _require_max_n(max_n, 5)
    res = SuiteResult("sampler")
    t0 = time.perf_counter()
    rng = random.Random(seed)
    pair_trials = 0
    misses = 0
    for _ in range(trials):
        trial_seed = rng.randrange(10**9)
        sub = random.Random(trial_seed)
        n = sub.randint(5, max_n)
        g = gen_gnp(n, sub.uniform(0.1, 0.5), trial_seed)
        k = sub.randint(1, 5)
        naive = apvc_naive(g)
        got = capped_apvc_sampled(g, k, seed=trial_seed, fallback=fallback, c=c)
        bad = None
        for u in range(n):
            for v in range(u + 1, n):
                want = min(naive.entry(u, v), k)
                have = got.entry(u, v)
                pair_trials += 1
                if have < want:
                    bad = f"dominance breach at ({u},{v}): {have} < {want} (k={k})"
                elif have != want:
                    misses += 1
                    if fallback:
                        bad = f"fallback inexact at ({u},{v}): {have} != {want} (k={k})"
        _record(res, bad is None, trial_seed, bad or "", g)
    res.seconds = time.perf_counter() - t0
    rate = misses / pair_trials if pair_trials else 0.0
    res.notes.append(
        f"fallback={fallback} c={c}: {misses}/{pair_trials} overshoot pairs ({100 * rate:.2f}%)"
    )
    return res


SUITES = {
    "flow": suite_flow,
    "gadget": suite_gadget,
    "filter": suite_filter,
    "h-chain": suite_h_chain,
    "pipeline-apvc": suite_pipeline_apvc,
    "pipeline-steiner": suite_pipeline_steiner,
    "sampler": suite_sampler,
}
