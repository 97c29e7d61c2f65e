"""Command-line front door.

Subcommands: gen (instance generators), vc (solvers), reduce (hard-instance
builders), verify (randomized property suites).

Every randomized run either receives --seed or draws one and echoes it in
the JSON report, so any result can be reproduced exactly. Payloads go to
--out when given (report JSON on stdout); without --out the payload itself
is stdout and the report moves to stderr.

Exit codes: 0 success, 1 verification or consistency failure, 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path

from .errors import InconsistencyError, VclabError
from .flow import cut_disconnects, paths_disjoint, vertex_connectivity, vertex_disjoint_paths
from .graphs import (
    emit_graph,
    emit_labeled,
    gen_gnp,
    gen_planted_4clique,
    parse_edge_pairs,
    parse_graph,
)
from .reductions import build_h, build_j, emit_hard_instance, four_partite
from .solvers import (
    apvc_naive,
    capped_apvc_sampled,
    capped_ssvc_sampled,
    global_vc_pair,
    ssvc,
    steiner_vc_pair,
)
from .verify import SUITES

THREADS_ENV = "VCONN_THREADS"


def resolve_threads(flag: int | None) -> int:
    if flag is not None:
        if flag < 1:
            raise VclabError(f"--threads must be >= 1, got {flag}")
        return flag
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise VclabError(f"{THREADS_ENV} must be an integer, got {env!r}") from None
        if value < 1:
            raise VclabError(f"{THREADS_ENV} must be >= 1, got {value}")
        return value
    return os.cpu_count() or 1


def _ensure_seed(args: argparse.Namespace) -> int:
    if args.seed is None:
        args.seed = random.SystemRandom().randrange(2**32)
    return args.seed


def _load_graph(path: str):
    try:
        return parse_graph(Path(path).read_text())
    except OSError as exc:
        raise VclabError(f"cannot read {path}: {exc}") from None


def _deliver(payload: str, out: str | None, report: dict) -> None:
    """Payload to --out with the report on stdout, or payload on stdout."""
    if out:
        try:
            Path(out).write_text(payload)
        except OSError as exc:
            raise VclabError(f"cannot write {out}: {exc}") from None
        report["payload"] = out
        print(json.dumps(report, sort_keys=True))
    else:
        sys.stdout.write(payload)
        print(json.dumps(report, sort_keys=True), file=sys.stderr)


def _report(args: argparse.Namespace, **extra) -> dict:
    rep = {"command": args.command}
    if getattr(args, "seed", None) is not None:
        rep["seed"] = args.seed
    rep.update(extra)
    return rep


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def cmd_gen(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    t0 = time.perf_counter()
    if args.kind in ("gnp", "planted4"):
        if args.n is None or args.p is None:
            parser.error(f"gen {args.kind} requires --n and --p")
        seed = _ensure_seed(args)
        try:
            if args.kind == "gnp":
                g = gen_gnp(args.n, args.p, seed)
            else:
                g = gen_planted_4clique(args.n, args.p, not args.no_plant, seed)
        except ValueError as exc:
            raise VclabError(str(exc)) from None
        payload = emit_graph(g)
    else:  # fourpartite
        if args.graph is None:
            parser.error("gen fourpartite requires --graph")
        g = four_partite(_load_graph(args.graph)).inst
        payload = emit_labeled(g)
        g = g.graph
    rep = _report(
        args,
        kind=args.kind,
        instance={"n": g.n, "m": g.m},
        timings={"total": round(time.perf_counter() - t0, 6)},
    )
    _deliver(payload, args.out, rep)
    return 0


# ---------------------------------------------------------------------------
# vc
# ---------------------------------------------------------------------------


def _certified_pair(g, s: int, t: int, value: int | None = None) -> dict:
    """kappa(s, t) with its cut and its paths, checked in O(m) before they are
    reported: the cut bounds kappa from above and the paths from below. With
    `value`, the pair must attain it."""
    found, cert = vertex_connectivity(g, s, t)
    paths = vertex_disjoint_paths(g, s, t)
    if value is None:
        value = found
    if cert.value != value or not cut_disconnects(g, s, t, cert):
        raise InconsistencyError(f"the reported cut is not a cut of {value} elements between {s} and {t}")
    if not paths_disjoint(g, s, t, paths, value):
        raise InconsistencyError(f"the reported paths are not {value} internally disjoint {s}-{t} paths")
    return {
        "value": value,
        "cut_vertices": sorted(cert.cut_vertices),
        "cut_edges": [list(e) for e in cert.cut_edges],
        "paths": paths,
    }


def _solve_vc(args, parser, g, threads):
    """Dispatch on (problem, algo); returns (payload, result-for-report)."""
    problem, algo = args.problem, args.algo
    if problem in ("st", "global", "steiner") and algo != "naive":
        parser.error(f"problem {problem} supports only --algo naive")
    if problem == "st":
        if args.s is None or args.t is None:
            parser.error("st needs --s and --t")
        result = _certified_pair(g, args.s, args.t)
        return f"{result['value']}\n", result
    if problem == "global":
        # the minimum is certified by a pair that attains it
        value, pair = global_vc_pair(g)
        return f"{value}\n", {"pair": list(pair), **_certified_pair(g, *pair, value)}
    if problem == "steiner":
        if not args.terminals:
            parser.error("steiner needs --terminals")
        try:
            terms = [int(x) for x in args.terminals.split()]
        except ValueError:
            raise VclabError(f"--terminals must be integers, got {args.terminals!r}") from None
        value, pair = steiner_vc_pair(g, terms)
        result = {"terminals": terms, "pair": list(pair), **_certified_pair(g, *pair, value)}
        return f"{value}\n", result
    if problem == "ssvc":
        if args.s is None:
            parser.error("ssvc needs --s")
        if algo != "sampled":  # naive and fast are one solver
            row = ssvc(g, args.s, threads=threads)
        else:
            if args.k is None:
                parser.error("ssvc --algo sampled needs --k")
            row = capped_ssvc_sampled(
                g, args.s, args.k, seed=_ensure_seed(args),
                fallback=args.fallback, c=args.c, threads=threads,
            )
        payload = "\t".join(str(x) for x in row) + "\n"
        return payload, {"source": args.s}
    # apvc
    if algo != "sampled":
        mat = apvc_naive(g, threads=threads)
    else:
        if args.k is None:
            parser.error("apvc --algo sampled needs --k")
        mat = capped_apvc_sampled(
            g, args.k, seed=_ensure_seed(args), fallback=args.fallback, c=args.c, threads=threads
        )
    return mat.to_tsv(), {"cap": mat.cap}


def cmd_vc(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.k is not None and args.algo != "sampled":
        raise VclabError("--k applies only to --algo sampled")
    t0 = time.perf_counter()
    g = _load_graph(args.graph)
    t_load = time.perf_counter()
    payload, result = _solve_vc(args, parser, g, resolve_threads(args.threads))
    t_solve = time.perf_counter()
    params = {"threads": args.threads}
    if args.algo == "sampled":
        params.update(k=args.k, c=args.c, fallback=args.fallback)
    else:
        args.seed = None  # only the sampler uses a seed, k, c and fallback, so only it echoes them
    rep = _report(
        args,
        problem=args.problem,
        algo=args.algo,
        instance={"n": g.n, "m": g.m},
        params=params,
        result=result,
        timings={"load": round(t_load - t0, 6), "solve": round(t_solve - t_load, 6)},
    )
    _deliver(payload, args.out, rep)
    return 0


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------


def cmd_reduce(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    t0 = time.perf_counter()
    g = _load_graph(args.graph)
    if args.kind == "apvc":
        hard = build_h(g)
        assert hard.thresholds is not None
        thr = hard.thresholds.values()
        summary = {"thresholds": {"min": min(thr), "max": max(thr)}}
    else:
        if args.demand is None:
            parser.error("reduce steiner requires --demand")
        try:
            demand = parse_edge_pairs(Path(args.demand).read_text())
        except OSError as exc:
            raise VclabError(f"cannot read {args.demand}: {exc}") from None
        hard = build_j(g, demand)
        summary = {
            "uniform_threshold": hard.uniform_threshold,
            "terminals": len(hard.terminals or ()),
            "demand_edges": len(demand),
        }
    payload = emit_hard_instance(hard)
    rep = _report(
        args,
        kind=args.kind,
        source={"n": g.n, "m": g.m},
        instance={"n": hard.graph.n, "m": hard.graph.m},
        result=summary,
        timings={"total": round(time.perf_counter() - t0, 6)},
    )
    _deliver(payload, args.out, rep)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    suite = SUITES[args.suite]
    kwargs: dict = {"seed": args.seed if args.seed is not None else 0}
    if args.seeds is not None:
        if args.seeds < 1:
            raise VclabError(f"--seeds must be >= 1, got {args.seeds}")
        kwargs["trials"] = args.seeds
    if args.n is not None:
        kwargs["max_n"] = args.n
    if args.suite != "sampler" and (args.c is not None or args.fallback is not None):
        raise VclabError("--c and --fallback apply only to the sampler suite")
    if args.c is not None:
        kwargs["c"] = args.c
    if args.fallback is not None:
        kwargs["fallback"] = args.fallback
    result = suite(**kwargs)
    print(result.summary())
    return 0 if result.ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vclab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate instances")
    p_gen.add_argument("kind", choices=["gnp", "planted4", "fourpartite"])
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--p", type=float)
    p_gen.add_argument("--no-plant", action="store_true", help="planted4: skip the planted clique")
    p_gen.add_argument("--graph", help="fourpartite: source graph file")
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--out")
    p_gen.set_defaults(fn=cmd_gen)

    p_vc = sub.add_parser("vc", help="run a connectivity solver")
    p_vc.add_argument("problem", choices=["st", "global", "ssvc", "apvc", "steiner"])
    p_vc.add_argument("--graph", required=True)
    p_vc.add_argument("--algo", choices=["naive", "fast", "sampled"], default="naive")
    p_vc.add_argument("--s", type=int)
    p_vc.add_argument("--t", type=int)
    p_vc.add_argument("--terminals", help="space-separated terminal vertices")
    p_vc.add_argument("--k", type=int)
    p_vc.add_argument("--c", type=float, default=4.0)
    p_vc.add_argument("--fallback", action=argparse.BooleanOptionalAction, default=True)
    p_vc.add_argument("--seed", type=int)
    p_vc.add_argument("--threads", type=int)
    p_vc.add_argument("--out")
    p_vc.set_defaults(fn=cmd_vc)

    p_red = sub.add_parser("reduce", help="build a hard instance")
    p_red.add_argument("kind", choices=["apvc", "steiner"])
    p_red.add_argument("--graph", required=True)
    p_red.add_argument("--demand", help="steiner: demand edge file, one 'u v' per line")
    p_red.add_argument("--out")
    p_red.set_defaults(fn=cmd_reduce)

    p_ver = sub.add_parser("verify", help="run a property suite")
    p_ver.add_argument("suite", choices=sorted(SUITES))
    p_ver.add_argument("--seeds", type=int, help="number of randomized trials")
    p_ver.add_argument("--n", type=int, help="max instance size")
    p_ver.add_argument("--seed", type=int)
    p_ver.add_argument("--fallback", action=argparse.BooleanOptionalAction, help="sampler only")
    p_ver.add_argument("--c", type=float, help="sampler only")
    p_ver.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, parser)
    except InconsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VclabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
