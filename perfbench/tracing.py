"""Outside-in tracing of vclab's public functions.

The tracer replaces a fixed list of public names with wrappers that record a
span per call: name, start, end, parent span and job id, plus one number the
layer metrics need (a flow value, an edge count, a byte count). Spans stay in
memory and are written out once, at the end of the run. Nothing inside the
program is edited; the wrappers are installed into every loaded `vclab`
module that binds the original object, and removed again on exit.

Worker processes are forked, so the spans they record never reach the
parent. Calls that fan out to workers (any traced call made with
threads > 1) are therefore remembered and replayed once with threads=1 by
the caller of `replay_pooled`; the replay supplies the flow counts and the
single-threaded baseline of `solvers.pool_speedup`.
"""

from __future__ import annotations

import sys
from time import perf_counter

# Wrapped names, per layer. `Class.method` names a method of a class that the
# module defines.
TRACED = {
    "graphs": ("parse_graph", "emit_graph", "Graph.from_edges"),
    "reductions": (
        "build_h",
        "build_j",
        "emit_hard_instance",
        "parse_hard_instance",
        "solve_4clique_via_apvc",
        "solve_edge_universal_via_steiner",
    ),
    "flow": (
        "ConnectivitySweep.__init__",
        "ConnectivitySweep.query",
        "vertex_connectivity",
        "vertex_disjoint_paths",
        "cut_disconnects",
    ),
    "solvers": (
        "degree_split",
        "draw_sample_family",
        "capped_apvc_sampled",
        "capped_ssvc_sampled",
        "apvc_naive",
        "ssvc",
        "global_vc",
        "steiner_vc",
        "fast_apvc",
        "fast_ssvc",
        "ConnectivityMatrix.to_tsv",
    ),
}

# Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = {
    "graphs.parse_s": "s",
    "graphs.emit_s": "s",
    "graphs.from_edges_s": "s",
    "graphs.bytes": "bytes",
    "reductions.build_s": "s",
    "reductions.edges_built": "count",
    "reductions.emit_s": "s",
    "reductions.parse_s": "s",
    "reductions.pipeline_self_s": "s",
    "flow.builds": "count",
    "flow.build_s": "s",
    "flow.queries": "count",
    "flow.query_s": "s",
    "flow.units": "count",
    "flow.capped_hit_ratio": "ratio",
    "flow.certs": "count",
    "flow.cert_s": "s",
    "solvers.split_s": "s",
    "solvers.low_pairs": "count",
    "solvers.draw_s": "s",
    "solvers.sample_sets": "count",
    "solvers.element_queries": "count",
    "solvers.element_useful_ratio": "ratio",
    "solvers.fallback_queries": "count",
    "solvers.direct_queries": "count",
    "solvers.pool_calls": "count",
    "solvers.pool_wall_s": "s",
    "solvers.pool_speedup": "ratio",
    "solvers.tsv_s": "s",
    "trace.overhead_share": "ratio",
}

# Span fields, kept as plain lists for cheap appends.
NAME, START, END, PARENT, JOB, VALUE = range(6)


def _query_value(args, kwargs, out):
    sweep = args[0]
    cutoff = kwargs.get("cutoff", args[3] if len(args) > 3 else None)
    return (out, cutoff, sweep.terminals is not None)


def _size_of_text(args, kwargs, out):
    return len(args[0])


def _size_of_output(args, kwargs, out):
    return len(out)


def _hard_edges(args, kwargs, out):
    return out.graph.m


def _sample_sets(args, kwargs, out):
    return out.t


def _requested_pairs(args, kwargs, out):
    pairs = kwargs.get("pairs", args[6] if len(args) > 6 else None)
    n = args[0].n
    return n * (n - 1) // 2 if pairs is None else len(pairs)


VALUE_OF = {
    "flow.ConnectivitySweep.query": _query_value,
    "graphs.parse_graph": _size_of_text,
    "graphs.emit_graph": _size_of_output,
    "reductions.build_h": _hard_edges,
    "reductions.build_j": _hard_edges,
    "solvers.draw_sample_family": _sample_sets,
    "solvers.capped_apvc_sampled": _requested_pairs,
}


class Tracer:
    """Records spans of the wrapped calls while installed (a context manager)."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.pooled: list[tuple] = []  # (span index, function, args, kwargs)
        self._pooled_spans: set[int] = set()
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        tracer = self
        value_of = VALUE_OF.get(name)

        def traced(*args, **kwargs):
            stack = tracer.stack
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job, None]
            tracer.spans.append(span)
            # the benchmark passes `threads` by keyword; only the outermost
            # pooled call is replayed, since its replay covers nested ones
            if kwargs.get("threads", 1) > 1 and tracer._pooled_spans.isdisjoint(stack):
                tracer.pooled.append((index, fn, args, kwargs))
                tracer._pooled_spans.add(index)
            stack.append(index)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if value_of is not None:
                span[VALUE] = value_of(args, kwargs, out)
            return out

        return traced

    def __enter__(self):
        modules = [m for key, m in sys.modules.items() if key == "vclab" or key.startswith("vclab.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"vclab.{layer}"]
            for attr in names:
                name = f"{layer}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        patched = classmethod(self._wrap(name, raw.__func__))
                    else:
                        patched = self._wrap(name, raw)
                    self._undo.append((cls, meth, raw))
                    setattr(cls, meth, patched)
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(name, original)
                for module in modules:
                    if module.__dict__.get(attr) is original:
                        self._undo.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def replay_pooled(self) -> tuple[int, float, float]:
        """Re-run each pooled call once with threads=1, under its job id.

        Returns (pooled calls, their wall seconds, the replays' wall seconds).
        The replays are traced, so their spans carry the flow work that the
        workers did out of sight.
        """
        calls, self.pooled = self.pooled, []
        pooled_wall = replay_wall = 0.0
        for index, fn, args, kwargs in calls:
            span = self.spans[index]
            pooled_wall += span[END] - span[START]
            self.job = span[JOB]
            start = perf_counter()
            self._wrap(span[NAME], fn)(*args, **{**kwargs, "threads": 1})
            replay_wall += perf_counter() - start
        return len(calls), pooled_wall, replay_wall

    def write(self, path: str) -> None:
        """Write the spans as tab-separated lines (name, start, end, parent, job)."""
        with open(path, "w") as out:
            out.write("name\tstart\tend\tparent\tjob\n")
            for s in self.spans:
                out.write(f"{s[NAME]}\t{s[START]:.9f}\t{s[END]:.9f}\t{s[PARENT]}\t{s[JOB]}\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _under(spans, index, names) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(spans, pool_calls, pooled_wall, replay_wall, overhead_share) -> dict[str, float]:
    """Fold the spans into the per-layer metrics of LAYER_METRICS."""
    own = self_times(spans)
    count: dict[str, int] = {}
    busy: dict[str, float] = {}
    for s, seconds in zip(spans, own):
        count[s[NAME]] = count.get(s[NAME], 0) + 1
        busy[s[NAME]] = busy.get(s[NAME], 0.0) + seconds

    def t(*names):
        return sum(busy.get(n, 0.0) for n in names)

    def c(*names):
        return sum(count.get(n, 0) for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    builders = {"reductions.build_h", "reductions.build_j"}
    graph_bytes = edges_built = low_pairs = sample_sets = 0
    units = capped = capped_hit = element = element_useful = fallback = direct = 0
    for i, s in enumerate(spans):
        name, value = s[NAME], s[VALUE]
        if name in ("graphs.parse_graph", "graphs.emit_graph"):
            graph_bytes += value
        elif name in builders and not _under(spans, i, builders):
            edges_built += value
        elif name == "solvers.capped_apvc_sampled":
            low_pairs += value
        elif name == "solvers.draw_sample_family":
            sample_sets += value
        elif name == "flow.ConnectivitySweep.query":
            out, cutoff, is_element = value
            units += out
            if cutoff is not None:
                capped += 1
                capped_hit += out >= cutoff
            if is_element:
                element += 1
                element_useful += cutoff is not None and out < cutoff
            elif _under(spans, i, ("solvers.capped_apvc_sampled",)):
                fallback += 1
            else:
                direct += 1

    return {
        "graphs.parse_s": t("graphs.parse_graph"),
        "graphs.emit_s": t("graphs.emit_graph"),
        "graphs.from_edges_s": t("graphs.Graph.from_edges"),
        "graphs.bytes": graph_bytes,
        "reductions.build_s": t(*builders),
        "reductions.edges_built": edges_built,
        "reductions.emit_s": t("reductions.emit_hard_instance"),
        "reductions.parse_s": t("reductions.parse_hard_instance"),
        "reductions.pipeline_self_s": t(
            "reductions.solve_4clique_via_apvc", "reductions.solve_edge_universal_via_steiner"
        ),
        "flow.builds": c("flow.ConnectivitySweep.__init__"),
        "flow.build_s": t("flow.ConnectivitySweep.__init__"),
        "flow.queries": c("flow.ConnectivitySweep.query"),
        "flow.query_s": t("flow.ConnectivitySweep.query"),
        "flow.units": units,
        "flow.capped_hit_ratio": ratio(capped_hit, capped),
        "flow.certs": c("flow.vertex_connectivity", "flow.vertex_disjoint_paths"),
        "flow.cert_s": t("flow.vertex_connectivity", "flow.vertex_disjoint_paths", "flow.cut_disconnects"),
        "solvers.split_s": t("solvers.degree_split"),
        "solvers.low_pairs": low_pairs,
        "solvers.draw_s": t("solvers.draw_sample_family"),
        "solvers.sample_sets": sample_sets,
        "solvers.element_queries": element,
        "solvers.element_useful_ratio": ratio(element_useful, element),
        "solvers.fallback_queries": fallback,
        "solvers.direct_queries": direct,
        "solvers.pool_calls": pool_calls,
        "solvers.pool_wall_s": pooled_wall,
        "solvers.pool_speedup": ratio(replay_wall, pooled_wall),
        "solvers.tsv_s": t("solvers.ConnectivityMatrix.to_tsv"),
        "trace.overhead_share": overhead_share,
    }
