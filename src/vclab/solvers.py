"""Pairwise, single-source, global, and Steiner vertex connectivity.

Two layers:

- exact solvers: apvc_naive and ssvc run one max flow per pair they report,
  steiner_vc one per terminal pair, and global_vc at most n - 1 + C(delta, 2)
  from a minimum-degree pivot (its docstring has the proof). The decision
  steiner_at_least, which the Steiner pipeline uses at threshold 5n + 1,
  stops at the first terminal pair below the threshold. global_vc_pair and
  steiner_vc_pair also name a pair that attains the minimum, so that its
  cut and its paths can certify the value. fast_apvc and
  fast_ssvc are apvc_naive and ssvc under the names of the paper's fast
  algorithms. Those split V at a degree threshold k and cap every flow that
  touches a low vertex at k, which is exact because kappa is at most the
  smaller endpoint degree. Every query already stops at that degree, so the
  split would change no flow and nothing here calls it; degree_split remains
  as the paper's partition;
- the paper's sampled capped estimator (capped_apvc_sampled,
  capped_ssvc_sampled): t random terminal sets, capped element connectivity
  inside each, entrywise minima as estimates that never undershoot
  min(kappa, k). It pays off only with a near-linear element-connectivity
  Gomory-Hu tree, which vclab lacks, so the exact solvers do not use it.

Every randomized routine takes an explicit seed, and each sample set gets
its own derived RNG, so serial and parallel runs draw identical sets. All
pooled work goes through one fan-out helper, which hands the graph object
and a chunk of jobs to each worker process.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import GraphParseError, InconsistencyError, QueryError
from .flow import ConnectivitySweep
from .graphs import Edge, Graph, canonical_edge

DIAG = -1  # diagonal sentinel: kappa(v, v) is undefined


@dataclass
class ConnectivityMatrix:
    """Symmetric pairwise connectivity values; optionally capped at k."""

    n: int
    values: list[list[int]]
    cap: int | None = None

    @classmethod
    def empty(cls, n: int, cap: int | None = None) -> "ConnectivityMatrix":
        fill = cap if cap is not None else 0
        values = [[fill] * n for _ in range(n)]
        for v in range(n):
            values[v][v] = DIAG
        return cls(n, values, cap)

    def entry(self, u: int, v: int) -> int:
        return self.values[u][v]

    def put(self, u: int, v: int, value: int) -> None:
        self.values[u][v] = value
        self.values[v][u] = value

    def validate(self) -> None:
        assert len(self.values) == self.n and all(len(row) == self.n for row in self.values)
        for u, row in enumerate(self.values):
            assert row[u] == DIAG, "diagonal sentinel missing"
            for v in range(u + 1, self.n):
                assert row[v] == self.values[v][u], "matrix not symmetric"
                assert row[v] >= 0, "negative connectivity entry"
                if self.cap is not None:
                    assert row[v] <= self.cap, "entry above the cap"

    def min_offdiag(self) -> int:
        assert self.n >= 2
        return min(self.values[u][v] for u in range(self.n) for v in range(u + 1, self.n))

    def to_tsv(self) -> str:
        lines = [str(self.n)]
        lines += ["\t".join(map(str, row)) for row in self.values]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_tsv(cls, text: str, cap: int | None = None) -> "ConnectivityMatrix":
        """Parse to_tsv's document; GraphParseError names a malformed line."""
        lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
        if not lines:
            raise GraphParseError("missing matrix size", line=1)
        head_no, head = lines[0]
        try:
            n = int(head)
        except ValueError:
            raise GraphParseError(f"non-integer matrix size {head!r}", line=head_no) from None
        if n < 0:
            raise GraphParseError(f"negative matrix size {n}", line=head_no)
        rows = lines[1 : n + 1]
        if len(rows) != n:
            raise GraphParseError(f"expected {n} rows, found {len(rows)}", line=head_no)
        values = []
        for i, ln in rows:
            try:
                row = [int(x) for x in ln.split("\t")]
            except ValueError:
                raise GraphParseError(f"non-integer entry in {ln!r}", line=i) from None
            if len(row) != n:
                raise GraphParseError(f"expected {n} entries, found {len(row)}", line=i)
            values.append(row)
        return cls(n, values, cap)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConnectivityMatrix)
            and self.n == other.n
            and self.values == other.values
        )


@dataclass(frozen=True)
class SampleFamily:
    """The t random terminal sets of the capped solver."""

    k: int
    t: int
    sets: tuple[tuple[int, ...], ...]
    seed: int

    def validate(self, n: int) -> None:
        assert self.t == len(self.sets)
        for u_i in self.sets:
            assert list(u_i) == sorted(set(u_i))
            assert all(0 <= v < n for v in u_i)


@dataclass(frozen=True)
class DegreeSplit:
    """Partition of V by the degree threshold k."""

    k: int
    high: tuple[int, ...]
    low: tuple[int, ...]

    def validate(self, g: Graph) -> None:
        assert sorted(self.high + self.low) == list(range(g.n))
        assert all(g.degree(v) > self.k for v in self.high)
        assert all(g.degree(v) <= self.k for v in self.low)
        if self.k >= 1:
            assert len(self.high) <= 2 * g.m / self.k


def degree_split(g: Graph, k: int) -> DegreeSplit:
    """The paper's partition at k; no solver here calls it (module docstring)."""
    high = tuple(v for v in range(g.n) if g.degree(v) > k)
    low = tuple(v for v in range(g.n) if g.degree(v) <= k)
    return DegreeSplit(k, high, low)


# ---------------------------------------------------------------------------
# Exact solvers.
# ---------------------------------------------------------------------------


def _all_pairs(n: int) -> list[Edge]:
    return list(itertools.combinations(range(n), 2))


# A job is (terminals or None, pairs, cutoff): one sweep over the graph, in
# element mode when terminals are given, queried once per pair.
Job = tuple[tuple[int, ...] | None, list[Edge], int | None]

# A flow phase scans O(m) arcs, so queries x m measures a batch's work;
# below this, starting worker processes costs more than it saves.
# experiments/pool_breakeven.py measured it on a 2-CPU VM in October 2026:
# a pool of 2 against one process on 33 batches of apvc_naive and ssvc on
# dense and sparse G(n, p), 54k to 1.5M units, 60 alternating pairs each.
# The geometric-mean loss to the faster choice was least with the threshold
# between 122k and 127k. Warm-started dense queries cost less per unit than
# sparse ones, so on G(n, 1/2) the pool pays only from about 200k to 300k
# (apvc) or 400k to 800k (ssvc), and on sparse graphs from about 100k.
_MIN_POOLED_WORK = 125_000


def _run_jobs(g: Graph, jobs: Sequence[Job]) -> list[list[int]]:
    """Each job's query values; a pool worker's whole task. A job with the
    previous job's terminals reuses its sweep (every query resets the
    network), and only one sweep is alive at a time."""
    sweep: ConnectivitySweep | None = None
    out = []
    for terminals, pairs, cutoff in jobs:
        if sweep is None or terminals != last:
            sweep = None  # free the previous network before building the next
            sweep, last = ConnectivitySweep(g, terminals=terminals), terminals
        out.append([sweep.query(u, v, cutoff=cutoff) for u, v in pairs])
    return out


def _fan_out(g: Graph, jobs: Sequence[Job], threads: int) -> list[list[int]]:
    """Each job's query values, in job order.

    Jobs are dealt round-robin over at most `threads` worker processes, and
    never more than there are CPUs or jobs. Each worker receives the graph
    itself (a Graph is immutable and pickles) with its chunk of jobs, and
    runs them in turn with `_run_jobs`. A batch with less work than
    `_MIN_POOLED_WORK` runs in the calling process instead.
    """
    if threads <= 1 or sum(len(job[1]) for job in jobs) * g.m < _MIN_POOLED_WORK:
        return _run_jobs(g, jobs)
    # the fork start method starts every worker at once
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    if workers == 1:
        return _run_jobs(g, jobs)
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

    chunks = [jobs[i::workers] for i in range(workers)]
    out: list[list[int]] = [[] for _ in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for i, part in enumerate(pool.map(_run_jobs, [g] * workers, chunks)):
            out[i::workers] = part
    return out


def _solve_pairs(g: Graph, pairs: Sequence[Edge], threads: int) -> list[int]:
    """kappa of each pair, in pair order, by one flow each; the pairs are
    dealt round-robin over `threads` chunks."""
    step = min(max(threads, 1), len(pairs))
    out = [0] * len(pairs)
    jobs = [(None, pairs[i::step], None) for i in range(step)]
    for i, values in enumerate(_fan_out(g, jobs, threads)):
        out[i::step] = values
    return out


def apvc_naive(g: Graph, threads: int = 1) -> ConnectivityMatrix:
    """kappa for every pair, by one max flow each."""
    mat = ConnectivityMatrix.empty(g.n)
    pairs = _all_pairs(g.n)
    for (u, v), value in zip(pairs, _solve_pairs(g, pairs, threads)):
        mat.put(u, v, value)
    return mat


def ssvc(g: Graph, s: int, threads: int = 1) -> list[int]:
    """kappa(s, v) for every v, by one max flow each; the source slot holds
    the diagonal sentinel."""
    if not 0 <= s < g.n:
        raise QueryError(f"source {s} out of range for n={g.n}")
    row = _solve_pairs(g, [(s, v) for v in range(g.n) if v != s], threads)
    row.insert(s, DIAG)
    return row


# The paper's fast algorithms run exactly these flows here (module docstring).
fast_apvc = apvc_naive
fast_ssvc = ssvc


def _min_over_pairs(
    g: Graph, pairs: Iterable[Edge], cutoff: int | None
) -> tuple[int, Edge | None]:
    """min kappa over the pairs (at most cutoff), and the last pair that
    lowered the running minimum, or None when none fell below cutoff.
    Queries are capped at the running minimum, so that pair's flow stopped
    below its cap and its value is exact."""
    sweep = ConnectivitySweep(g)
    best, arg = cutoff, None
    for u, v in pairs:
        value = sweep.query(u, v, cutoff=best)
        if best is None or value < best:
            best, arg = value, (u, v)
        if best == 0:
            break
    assert best is not None
    return best, arg


def global_vc(g: Graph) -> int:
    """min kappa over all pairs: global_vc_pair without the pair."""
    return global_vc_pair(g)[0]


def global_vc_pair(g: Graph) -> tuple[int, Edge]:
    """min kappa over all pairs and a pair that attains it, from at most
    n - 1 + C(delta, 2) flows (Esfahanian and Hakimi 1984).

    The pivot v is a vertex of minimum degree delta, the lowest id on ties.
    The minimum is taken over the pairs (v, w) for every w != v and over the
    pairs of neighbours of v. Every pair value is at least kappa, so it
    suffices that one of these pairs attains kappa. Let S be a minimum mixed
    cut separating some a from some b, with vertex part S_V and edge part S_E.

    - If v is not in S_V, then v stays in G - S, where a and b lie in
      different components. v is apart from at least one of them (v may be
      a or b itself), so S separates v from a or from b.
    - If v is in S_V, minimality gives two facts. No edge of S_E touches v,
      or dropping that edge would leave a smaller cut. And S - v no longer
      separates a from b, so some simple a-b path in G - (S - v) passes
      through v. Its neighbours x and y on that path are joined to a and
      to b in G - S, so x, y are not in S_V, and S separates x from y.
    """
    if g.n < 2:
        raise QueryError(f"global connectivity needs n >= 2, got n={g.n}")
    v = min(range(g.n), key=g.degree)
    pairs = itertools.chain(
        ((v, w) for w in range(g.n) if w != v),
        itertools.combinations(g.neighbors(v), 2),
    )
    value, pair = _min_over_pairs(g, pairs, None)
    assert pair is not None
    return value, pair


def _terminal_pairs(g: Graph, terminals: Iterable[int]) -> Iterator[Edge]:
    term = sorted(set(terminals))
    if len(term) < 2:
        raise QueryError(f"need at least 2 terminals, got {len(term)}")
    for x in term:
        if not 0 <= x < g.n:
            raise QueryError(f"terminal {x} out of range for n={g.n}")
    return itertools.combinations(term, 2)


def steiner_vc(g: Graph, terminals: Iterable[int], cutoff: int | None = None) -> int:
    """min kappa over terminal pairs; with a cutoff, min(true value, cutoff)."""
    return _min_over_pairs(g, _terminal_pairs(g, terminals), cutoff)[0]


def steiner_vc_pair(g: Graph, terminals: Iterable[int]) -> tuple[int, Edge]:
    """min kappa over terminal pairs and a terminal pair that attains it."""
    value, pair = _min_over_pairs(g, _terminal_pairs(g, terminals), None)
    assert pair is not None
    return value, pair


def steiner_at_least(g: Graph, terminals: Iterable[int], thr: int) -> bool:
    """steiner_vc(g, terminals) >= thr, deciding it from the first terminal
    pair below thr: pairs are queried in order on one sweep, each capped at
    thr, and the first that falls short ends the search."""
    pairs = _terminal_pairs(g, terminals)
    sweep = ConnectivitySweep(g)
    return all(sweep.query(u, v, cutoff=thr) >= thr for u, v in pairs)


# ---------------------------------------------------------------------------
# Sampled capped solver.
# ---------------------------------------------------------------------------


def sample_set_count(n: int, k: int, c: float) -> int:
    """t = ceil(c k^2 ln n); QueryError when c k^2 ln n is not a finite number."""
    if n < 2:
        return 0
    try:
        t = c * k * k * math.log(n)
    except OverflowError:  # k too large for a float
        t = math.inf
    if not math.isfinite(t):
        raise QueryError(f"sample-set count c k^2 ln n is not finite for c={c}, k={k}, n={n}")
    return math.ceil(t)

# A set much larger than its n/k expectation only hurts running time, never
# correctness, so oversized draws are redrawn instead of aborting the run.
_RESAMPLE_ATTEMPTS = 1000


def _size_limit(n: int, k: int) -> int:
    return math.ceil(4.0 * (n / k) * math.log(max(n, 2))) + 4


def draw_sample_family(
    n: int, k: int, seed: int, c: float = 4.0, force: int | None = None
) -> SampleFamily:
    """t = ceil(c k^2 ln n) subsets, each vertex kept with probability 1/k."""
    if k < 1:
        raise QueryError(f"cap must be >= 1, got {k}")
    if not (c > 0 and math.isfinite(c)):
        raise QueryError(f"sample constant c must be a positive number, got {c}")
    t = sample_set_count(n, k, c)
    limit = _size_limit(n, k)
    p = 1.0 / k
    sets = []
    for i in range(t):
        rng = random.Random(seed * 1_000_003 + i)
        for _ in range(_RESAMPLE_ATTEMPTS):
            drawn = [v for v in range(n) if rng.random() < p]
            if len(drawn) <= limit:
                break
        if force is not None and force not in drawn:
            drawn = sorted(drawn + [force])
        sets.append(tuple(drawn))
    fam = SampleFamily(k=k, t=t, sets=tuple(sets), seed=seed)
    fam.validate(n)
    return fam


def _sampled_estimates(
    g: Graph, fam: SampleFamily, pairs: Sequence[Edge], threads: int
) -> dict[Edge, int]:
    """min over co-samples of min(kappa'_{G,U_i}, k); k when never co-sampled."""
    k = fam.k
    est = {p: k for p in pairs}
    wanted: dict[int, list[Edge]] = {}
    for p in pairs:
        u, v = p
        for i, u_i in enumerate(fam.sets):
            # sets are sorted tuples; membership scan is fine at these sizes
            if u in u_i and v in u_i:
                wanted.setdefault(i, []).append(p)
    jobs = [(fam.sets[i], ps, k) for i, ps in sorted(wanted.items())]
    for (_, ps, _), values in zip(jobs, _fan_out(g, jobs, threads)):
        for p, a_i in zip(ps, values):
            if a_i < est[p]:
                est[p] = a_i
    return est


def _verified_entry(sweep: ConnectivitySweep, pair: Edge, est: int, k: int) -> int:
    """Settle one pair exactly. Element connectivity dominates vertex
    connectivity, so a correct estimate can only be confirmed or lowered; the
    flow is capped one above it so that an undershoot shows."""
    exact = sweep.query(*pair, cutoff=min(est + 1, k))
    if exact > est:
        raise InconsistencyError(
            f"sampled estimate {est} for {pair} is below the true value (at least {exact})"
        )
    return exact


def capped_apvc_sampled(
    g: Graph,
    k: int,
    seed: int,
    fallback: bool = True,
    c: float = 4.0,
    threads: int = 1,
    pairs: Sequence[Edge] | None = None,
    force: int | None = None,
) -> ConnectivityMatrix:
    """All-pairs min(kappa, k) by random terminal sampling.

    With fallback, every requested pair is settled by one direct flow capped
    one above the sampled estimate, so the result is exactly
    min(kappa, k). Without fallback the raw estimates are returned: entrywise
    >= min(kappa, k) always, equal with high probability. `pairs` restricts
    the computation (other entries keep the cap value); `force` puts one
    vertex into every sample set.
    """
    if pairs is None:
        wanted = _all_pairs(g.n)
    else:
        wanted = sorted({canonical_edge(*p) for p in pairs})
    fam = draw_sample_family(g.n, k, seed, c=c, force=force)
    est = _sampled_estimates(g, fam, wanted, threads)
    mat = ConnectivityMatrix.empty(g.n, cap=k)
    if fallback:
        sweep = ConnectivitySweep(g)
        for p in wanted:
            mat.put(*p, _verified_entry(sweep, p, est[p], k))
    else:
        for p in wanted:
            mat.put(*p, est[p])
    return mat


def capped_ssvc_sampled(
    g: Graph,
    s: int,
    k: int,
    seed: int,
    fallback: bool = True,
    c: float = 4.0,
    threads: int = 1,
    targets: Iterable[int] | None = None,
) -> list[int]:
    """Single-source variant: s joins every sample set, so each target only
    has to be co-sampled with itself present."""
    if not 0 <= s < g.n:
        raise QueryError(f"source {s} out of range for n={g.n}")
    if targets is None:
        targets = [v for v in range(g.n) if v != s]
    pairs = [canonical_edge(s, v) for v in targets if v != s]
    mat = capped_apvc_sampled(
        g, k, seed, fallback=fallback, c=c, threads=threads, pairs=pairs, force=s
    )
    out = [DIAG if v == s else k for v in range(g.n)]
    for p in pairs:
        v = p[0] if p[1] == s else p[1]
        out[v] = mat.entry(s, v)
    return out
