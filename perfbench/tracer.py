"""Spans around the program's public functions, for the traced benchmark run.

`Tracer.install()` replaces every public function and public method of the
zeroratio modules by a timing wrapper, at every name the package looks it up
by: `zeroratio.cli.check_theorem`, `zeroratio.verifier.check_theorem` and
`zeroratio.check_theorem` all point at the same wrapper afterwards, and a
method is replaced in its class under each of its aliases (such as
`EntireModel.__call__`).  Nothing inside `src/` is changed on disk.

Each call becomes a span: name, start, end, parent span, op id, and counts
taken from the arguments and the result (array sizes, zero counts,
`CountResult.samples`, ...).  Three very hot inner functions are *leaves*:
they get no span of their own, but their calls, time and work are added to
the enclosing span, so that the span list stays small and the enclosing
layer's self time still excludes them.  A few trivial helpers called
thousands of times per op (formatting, small accessors) are not wrapped.

Spans are kept in memory and written as JSON lines by `write_jsonl`.
`layer_metrics` turns them into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import statistics
import time

import numpy as np

MODULES = ("cli", "constants", "factors", "grids", "jost", "models", "report",
           "verifier", "zeros")


def _size(x) -> int:
    return int(np.size(x))


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


# leaf name -> work units of one call
LEAVES = {
    "factors.log_primary_factor_grid": lambda a, k: _size(_arg(a, k, 0, "xi")),
    "factors.log_primary_factor_full": lambda a, k: _size(_arg(a, k, 0, "xi")),
    "jost.Kernel.value": lambda a, k: 1,
}

# trivial helpers called thousands of times per op, whose spans would only
# measure the wrapper, and log_value, which is all of its caller evaluate
SKIP = {
    "report.format_float", "report.precondition", "report.Precondition.to_json_dict",
    "factors.ZeroSet.locations", "factors.ZeroSet.multiplicities", "factors.ZeroSet.moduli",
    "factors.ZeroSet.count_within", "factors.ZeroSet.min_modulus", "factors.ZeroSet.max_modulus",
    "factors.guard_radius", "factors.cexpm1", "constants.ClassParams.count_rate",
    "constants.CofactorTable.row_weighted_column_sum", "constants.CofactorTable.column_abs_sums",
    "models.EntireModel.poly_value", "models.EntireModel.log_value",
}


def _counts_evaluate(a, k, res):
    model = a[0]
    return {"points": _size(_arg(a, k, 1, "z")), "zeros": len(model.zeros)}


def _counts_tail(a, k, res):
    spec = _arg(a, k, 0, "spec")
    return {"points": _size(_arg(a, k, 1, "z")), "zeros": len(spec.zeros)}


def _counts_reports(a, k, res):
    return {"reports": len(res) if isinstance(res, list) else 1}


def _counts_growth(a, k, res):
    radii = _arg(a, k, 1, "radii")
    return {"given": 16 if radii is None else len(radii), "used": len(res.radii)}


def _counts_count(a, k, res):
    radius = float(_arg(a, k, 2, "radius") or 1.0)
    return {"samples": res.samples, "nudged": int(res.radius != radius)}


COUNTS = {
    "models.EntireModel.evaluate": _counts_evaluate,
    "factors.log_tail_product_grid": _counts_tail,
    "grids.DiskGrid.points": lambda a, k, res: {"points": _size(res)},
    "jost.JostFn.evaluate": lambda a, k, res: {"points": _size(_arg(a, k, 1, "z"))},
    "jost.growth_fit": _counts_growth,
    "zeros.count_zeros": _counts_count,
    "zeros.locate_zeros": lambda a, k, res: {"zeros": len(res)},
    "report.reports_to_json": lambda a, k, res: {"bytes": len(res)},
}
for _check in ("theorem", "step5_bounds", "decomposition", "lemma2", "remark5", "lemma3"):
    COUNTS[f"verifier.check_{_check}"] = _counts_reports

LAYER_UNITS = {
    "factors.primary_log.points": "count",
    "factors.primary_log.ns_per_point": "ns",
    "factors.tail_product.zero_points": "count",
    "factors.tail_product.ns_per_zero_point": "ns",
    "factors.tail_product.self_ms": "ms",
    "models.evaluate.calls": "count",
    "models.evaluate.zero_points": "count",
    "models.evaluate.ns_per_zero_point": "ns",
    "models.build_pair.ms": "ms",
    "grids.points.generated": "count",
    "grids.points.self_ms": "ms",
    "verifier.points_per_report": "count",
    "verifier.map_blocks.self_ms": "ms",
    "verifier.check_theorem.ms": "ms",
    "verifier.check_step5.ms": "ms",
    "verifier.check_decomposition.ms": "ms",
    "verifier.check_lemma2.ms": "ms",
    "verifier.check_remark5.ms": "ms",
    "verifier.check_lemma3.ms": "ms",
    "jost.evaluate.points": "count",
    "jost.evaluate.self_ms": "ms",
    "jost.panels": "count",
    "jost.ns_per_panel_point": "ns",
    "jost.divergence_errors": "count",
    "jost.growth_fit.ms": "ms",
    "jost.growth_fit.radii_used_ratio": "ratio",
    "jost.ray_fit.ms": "ms",
    "zeros.count.samples": "count",
    "zeros.count.us_per_sample": "us",
    "zeros.count.nudges": "count",
    "zeros.locate.ms_per_zero": "ms",
    "zeros.locate.evals_per_zero": "count",
    "zeros.jensen.ms": "ms",
    "report.json.ms": "ms",
    "report.json.bytes": "bytes",
    "cli.main.overhead_ms": "ms",
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "trace.op_p50_ms": "ms",
    "trace.top_span_coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}

# span record fields
SID, NAME, T0, T1, PARENT, OP, CHILD, COUNTS_, LEAF, ERROR = range(10)


class Tracer:
    """In-memory span recorder; `op` labels the spans of the current op."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.op = None
        self._ids = itertools.count()
        self._in_leaf = False
        self._patches: list[tuple[object, str, object]] = []
        # leaf work done outside any span lands here
        self.orphan = [None, "<root>", 0.0, 0.0, None, None, 0.0, None, {}, None]

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        counts_of = COUNTS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            rec = [next(tracer._ids), name, time.perf_counter(), 0.0,
                   stack[-1][SID] if stack else None, tracer.op, 0.0, None, None, None]
            stack.append(rec)
            res = None
            try:
                res = fn(*args, **kwargs)
                return res
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                rec[T1] = t1
                stack.pop()
                if stack:
                    stack[-1][CHILD] += t1 - rec[T0]
                if counts_of is not None and rec[ERROR] is None:
                    rec[COUNTS_] = counts_of(args, kwargs, res)
                tracer.spans.append(rec)

        return wrapper

    def _leaf_wrapper(self, name, fn):
        work_of = LEAVES[name]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._in_leaf:
                return fn(*args, **kwargs)
            tracer._in_leaf = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._in_leaf = False
                parent = tracer.stack[-1] if tracer.stack else tracer.orphan
                if parent[LEAF] is None:
                    parent[LEAF] = {}
                agg = parent[LEAF].setdefault(name, [0, 0.0, 0])
                agg[0] += 1
                agg[1] += dt
                agg[2] += work_of(args, kwargs)
                parent[CHILD] += dt

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of the zeroratio modules."""
        package = importlib.import_module("zeroratio")
        modules = [importlib.import_module(f"zeroratio.{m}") for m in MODULES]
        namespaces = [package] + modules
        for mod in modules:
            short = mod.__name__.split(".")[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    self._replace(f"{short}.{attr}", obj, namespaces)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            self._replace(f"{short}.{attr}.{meth}", fn, [obj])

    def _replace(self, name, original, namespaces) -> None:
        if name in SKIP:
            return
        if name in LEAVES:
            wrapper = self._leaf_wrapper(name, original)
        else:
            wrapper = self._span_wrapper(name, original)
        for ns in namespaces:
            table = vars(ns)
            for key, value in list(table.items()):
                if value is original:
                    self._patches.append((ns, key, original))
                    setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps({
                    "id": rec[SID], "name": rec[NAME], "start": rec[T0], "end": rec[T1],
                    "parent": rec[PARENT], "op": rec[OP],
                    "self_s": rec[T1] - rec[T0] - rec[CHILD],
                    "counts": rec[COUNTS_], "leaves": rec[LEAF], "error": rec[ERROR],
                }) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

CHECKS = ("theorem", "step5_bounds", "decomposition", "lemma2", "remark5", "lemma3")
_CHECK_SPANS = {f"verifier.check_{c}" for c in CHECKS}
_PAIR_SPANS = {"models.engineered_pair", "models.build_pair", "models.load_pair_file"}


def _mean_ms(durations) -> float:
    return 1e3 * statistics.fmean(durations) if durations else 0.0


def _ratio(num, den, scale=1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(spans: list[list], op_walls: dict[int, float]) -> dict[str, float]:
    """Per-layer metrics over the spans of the traced ops.

    `op_walls` maps the op id of each traced op to its wall time.  Counts and
    `self_ms` are per op (totals over the traced ops divided by their
    number); `<function>.ms` is the mean duration of one call, in the ops and
    in set-up; `ns_per_*` and `us_per_*` divide total time by total work.
    """
    n_ops = max(len(op_walls), 1)
    with_setup = [s for s in spans if s[OP] == "setup" or s[OP] in op_walls]
    spans = [s for s in spans if s[OP] in op_walls]
    by_id = {s[SID]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append(s)

    def dur(s):
        return s[T1] - s[T0]

    def self_time(s):
        return dur(s) - s[CHILD]

    def named(name):
        return [s for s in spans if s[NAME] == name]

    def has_ancestor(s, names):
        parent = by_id.get(s[PARENT])
        while parent is not None:
            if parent[NAME] in names:
                return True
            parent = by_id.get(parent[PARENT])
        return False

    def outermost_below(s, names):
        found = []
        for child in children.get(s[SID], ()):
            if child[NAME] in names:
                found.append(child)
            else:
                found.extend(outermost_below(child, names))
        return found

    m: dict[str, float] = {}

    # factors: primary-factor logs are leaves of the evaluate and tail spans
    prim_calls = prim_time = prim_pts = 0.0
    for s in spans:
        for leaf in ("factors.log_primary_factor_grid", "factors.log_primary_factor_full"):
            agg = (s[LEAF] or {}).get(leaf)
            if agg:
                prim_time += agg[1]
                prim_pts += agg[2]
    m["factors.primary_log.points"] = prim_pts / n_ops
    m["factors.primary_log.ns_per_point"] = _ratio(prim_time, prim_pts, 1e9)
    tails = named("factors.log_tail_product_grid")
    tail_zp = sum(s[COUNTS_]["points"] * s[COUNTS_]["zeros"] for s in tails if s[COUNTS_])
    m["factors.tail_product.zero_points"] = tail_zp / n_ops
    m["factors.tail_product.ns_per_zero_point"] = _ratio(sum(map(dur, tails)), tail_zp, 1e9)
    m["factors.tail_product.self_ms"] = 1e3 * sum(map(self_time, tails)) / n_ops

    # models
    evals = named("models.EntireModel.evaluate")
    eval_zp = sum(s[COUNTS_]["points"] * s[COUNTS_]["zeros"] for s in evals if s[COUNTS_])
    m["models.evaluate.calls"] = len(evals) / n_ops
    m["models.evaluate.zero_points"] = eval_zp / n_ops
    m["models.evaluate.ns_per_zero_point"] = _ratio(sum(map(dur, evals)), eval_zp, 1e9)
    m["models.build_pair.ms"] = _mean_ms([dur(s) for s in with_setup if s[NAME] == "models.build_pair"])

    # grids and verifier
    grid_pts = named("grids.DiskGrid.points")
    m["grids.points.generated"] = sum(s[COUNTS_]["points"] for s in grid_pts if s[COUNTS_]) / n_ops
    grid_self = sum(self_time(s) for s in spans if s[NAME].startswith("grids."))
    m["grids.points.self_ms"] = 1e3 * grid_self / n_ops
    checked_pts = sum(
        s[COUNTS_]["points"] for s in evals + tails
        if s[COUNTS_] and has_ancestor(s, _CHECK_SPANS)
    )
    reports = sum(s[COUNTS_]["reports"] for s in spans
                  if s[NAME] in _CHECK_SPANS and s[COUNTS_])
    m["verifier.points_per_report"] = _ratio(checked_pts, reports)
    m["verifier.map_blocks.self_ms"] = 1e3 * sum(map(self_time, named("verifier.map_blocks"))) / n_ops
    for check in CHECKS:
        key = "step5" if check == "step5_bounds" else check
        m[f"verifier.check_{key}.ms"] = _mean_ms([dur(s) for s in named(f"verifier.check_{check}")])

    # jost
    jevals = named("jost.JostFn.evaluate")
    jost_pts = sum(s[COUNTS_]["points"] for s in jevals if s[COUNTS_])
    panels = panel_pts = panel_time = 0.0
    for s in jevals:
        agg = (s[LEAF] or {}).get("jost.Kernel.value")
        if agg and s[COUNTS_]:
            panels += agg[0]
            panel_pts += agg[0] * s[COUNTS_]["points"]
            panel_time += dur(s)
    m["jost.evaluate.points"] = jost_pts / n_ops
    m["jost.evaluate.self_ms"] = 1e3 * sum(map(self_time, jevals)) / n_ops
    m["jost.panels"] = panels / n_ops
    m["jost.ns_per_panel_point"] = _ratio(panel_time, panel_pts, 1e9)
    m["jost.divergence_errors"] = sum(1 for s in jevals if s[ERROR] == "DivergenceError") / n_ops
    fits = named("jost.growth_fit")
    m["jost.growth_fit.ms"] = _mean_ms([dur(s) for s in fits])
    m["jost.growth_fit.radii_used_ratio"] = _ratio(
        sum(s[COUNTS_]["used"] for s in fits if s[COUNTS_]),
        sum(s[COUNTS_]["given"] for s in fits if s[COUNTS_]),
    )
    m["jost.ray_fit.ms"] = _mean_ms([dur(s) for s in with_setup if s[NAME] == "jost.ray_decay_fit"])

    # zeros
    counts = [s for s in named("zeros.count_zeros") if s[COUNTS_]]
    samples = sum(s[COUNTS_]["samples"] for s in counts)
    m["zeros.count.samples"] = samples / n_ops
    m["zeros.count.us_per_sample"] = _ratio(sum(map(dur, counts)), samples, 1e6)
    m["zeros.count.nudges"] = sum(s[COUNTS_]["nudged"] for s in counts) / n_ops
    locates = [s for s in named("zeros.locate_zeros") if s[COUNTS_]]
    located = sum(s[COUNTS_]["zeros"] for s in locates)
    m["zeros.locate.ms_per_zero"] = _ratio(sum(map(dur, locates)), located, 1e3)
    evals_in_locate = sum(
        s[COUNTS_]["points"] for s in evals + jevals
        if s[COUNTS_] and has_ancestor(s, {"zeros.locate_zeros"})
    )
    m["zeros.locate.evals_per_zero"] = _ratio(evals_in_locate, located)
    m["zeros.jensen.ms"] = _mean_ms([dur(s) for s in named("zeros.jensen_check")])

    # report, cli
    dumps = named("report.reports_to_json")
    m["report.json.ms"] = 1e3 * sum(map(dur, dumps)) / n_ops
    m["report.json.bytes"] = sum(s[COUNTS_]["bytes"] for s in dumps if s[COUNTS_]) / n_ops
    mains = named("cli.main")
    overheads = [
        dur(s) - sum(dur(c) for c in outermost_below(s, _PAIR_SPANS | _CHECK_SPANS))
        for s in mains
    ]
    m["cli.main.overhead_ms"] = 1e3 * statistics.fmean(overheads) if overheads else 0.0

    # coverage of each op by its top-level spans
    top = dict.fromkeys(op_walls, 0.0)
    for s in spans:
        if s[PARENT] is None:
            top[s[OP]] += dur(s)
    cover = [top[k] / w for k, w in op_walls.items() if w > 0]
    m["trace.top_span_coverage"] = min(cover) if cover else 0.0
    return m
