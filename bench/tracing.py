"""Span tracing of mordrive's public functions, from outside the package.

``Tracer.installed()`` replaces each traced function by a wrapper in
every namespace that binds it (the package's own modules and the
benchmark's), so calls between modules are seen too.  A span records
name, start, end, parent span, operation id, the error type if the call
raised, and work counts (samples, dt, horizon, grid points, candidate
percents) next to the times.  Spans stay in memory until ``write``.
"""
from __future__ import annotations

import contextlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# module -> public functions traced in it, one layer per module.
TARGETS = {
    "poly_tf": ("poly_roots", "even_odd_factor", "is_stable"),
    "mor_engine": ("reduce", "reduce_denominator", "match_numerator",
                   "residual_epsilon", "adjust_denominator"),
    "sim_analysis": ("step_response", "ise", "response_metrics",
                     "characteristic_times", "bode"),
    "controller_design": ("design_conventional", "design_via_mor",
                          "evaluate_gain", "sweep_gain"),
    "drive_model": ("derive_model",),
    "cli": ("main",),
}

NAME, START, END, PARENT, OP, COUNTS, ERROR = range(7)


def _output_bytes(argv) -> int:
    for flag in ("--out", "--report"):
        if flag in argv:
            path = Path(argv[argv.index(flag) + 1])
            return path.stat().st_size if path.is_file() else 0
    return 0


def _counts(name: str):
    """Function (bound arguments, result) -> work counts of one call.

    Counts of a call that raised are taken with result None; only the
    input keys are needed then.
    """
    if name == "poly_tf.poly_roots":
        return lambda a, out: {"input": hash(a["p"].coeffs)}
    if name == "sim_analysis.step_response":
        def step_counts(a, out):
            counts = {"input": hash((a["g"].num.coeffs, a["g"].den.coeffs,
                                     a.get("t_final"), a.get("dt"),
                                     a.get("amplitude")))}
            if out is not None:
                counts.update(samples=len(out.y), dt=out.dt,
                              horizon=float(out.t[-1]))
            return counts
        return step_counts
    if name == "sim_analysis.bode":
        return lambda a, out: {} if out is None else {"points": len(out.omega)}
    if name == "mor_engine.reduce":
        return lambda a, out: {"mode": a["cfg"].adjust_mode,
                               "r": a["cfg"].target_order, "q": a["cfg"].q}
    if name == "mor_engine.adjust_denominator":
        return lambda a, out: {"percent": a["n"]}
    if name == "controller_design.sweep_gain":
        return lambda a, out: {} if out is None else {
            "points": len(out), "unstable": sum(not p.stable for p in out)}
    if name == "cli.main":
        return lambda a, out: {"command": a["argv"][0],
                               "output_bytes": _output_bytes(a["argv"])}
    return None


class Tracer:
    def __init__(self, namespaces=()):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.namespaces = list(namespaces)

    def _wrap(self, name: str, fn):
        counts = _counts(name)
        signature = inspect.signature(fn)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, None]
            stack.append(len(spans))
            spans.append(span)
            out = None
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
                if counts is not None:
                    span[COUNTS] = counts(
                        signature.bind(*args, **kwargs).arguments, out)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every target while the block runs, then restore them."""
        modules = [sys.modules["mordrive"]] + [
            sys.modules[f"mordrive.{m}"] for m in TARGETS] + self.namespaces
        undo = []
        for module, names in TARGETS.items():
            for fname in names:
                original = getattr(sys.modules[f"mordrive.{module}"], fname)
                wrapper = self._wrap(f"{module}.{fname}", original)
                for ns in modules:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            undo.append((ns, attr, original))
        try:
            yield self
        finally:
            for ns, attr, original in undo:
                setattr(ns, attr, original)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "op": s[OP], "counts": s[COUNTS],
                    "error": s[ERROR]}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def repeat_share(spans) -> float:
    """Share of calls whose input was already seen in the same operation."""
    seen, repeats = set(), 0
    for s in spans:
        key = (s[OP], s[COUNTS]["input"])
        repeats += key in seen
        seen.add(key)
    return repeats / len(spans) if spans else 0.0


def layer_metrics(spans, n_ops: int, traced_s: float, overhead_share: float,
                  import_s: float) -> dict:
    """Per-layer metrics of one traced run, as name -> (value, unit)."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        if s[OP] is not None:
            by_name[s[NAME]].append(i)

    def calls(name):
        return len(by_name[name]) / n_ops

    def self_ms(name):
        return sum(own[i] for i in by_name[name]) * 1e3 / n_ops

    def total(name, key):
        return sum(spans[i][COUNTS].get(key, 0) for i in by_name[name])

    def of(name):
        return [spans[i] for i in by_name[name]]

    m = {}
    for name in ("poly_tf.poly_roots", "poly_tf.even_odd_factor",
                 "poly_tf.is_stable", "sim_analysis.step_response",
                 "sim_analysis.characteristic_times"):
        m[f"{name}.calls_per_op"] = (calls(name), "count/op")
    for name in ("poly_tf.poly_roots", "poly_tf.even_odd_factor",
                 "mor_engine.reduce", "mor_engine.reduce_denominator",
                 "mor_engine.match_numerator", "mor_engine.residual_epsilon",
                 "sim_analysis.step_response", "sim_analysis.ise",
                 "sim_analysis.response_metrics",
                 "sim_analysis.characteristic_times", "sim_analysis.bode",
                 "controller_design.evaluate_gain",
                 "controller_design.design_conventional",
                 "controller_design.design_via_mor", "cli.main"):
        m[f"{name}.self_ms_per_op"] = (self_ms(name), "ms/op")

    roots = of("poly_tf.poly_roots")
    m["poly_tf.poly_roots.repeat_share"] = (repeat_share(roots), "share")
    m["poly_tf.poly_roots.failed"] = (
        sum(s[ERROR] is not None for s in roots) / n_ops, "count/op")
    m["mor_engine.match_infeasible"] = (
        sum(s[ERROR] == "MatchInfeasible"
            for s in of("mor_engine.match_numerator")) / n_ops, "count/op")

    scans = {i for i in by_name["mor_engine.reduce"]
             if spans[i][COUNTS]["mode"] == "auto"}
    tried = [s for s in of("mor_engine.adjust_denominator") if s[PARENT] in scans]
    scored = [s for s in of("sim_analysis.ise") if s[PARENT] in scans]
    m["mor_engine.adjust.candidates_per_op"] = (len(tried) / n_ops, "count/op")
    m["mor_engine.adjust.useful_ratio"] = (
        len(scored) / len(tried) if tried else 0.0, "share")

    steps = of("sim_analysis.step_response")
    samples = total("sim_analysis.step_response", "samples")
    m["sim_analysis.step_response.samples_per_op"] = (samples / n_ops, "samples/op")
    m["sim_analysis.step_response.ns_per_sample"] = (
        self_ms("sim_analysis.step_response") * n_ops * 1e6 / samples
        if samples else 0.0, "ns/sample")
    m["sim_analysis.step_response.repeat_share"] = (repeat_share(steps), "share")
    m["sim_analysis.bode.points_per_op"] = (
        total("sim_analysis.bode", "points") / n_ops, "points/op")
    m["controller_design.sweep.unstable_points"] = (
        total("controller_design.sweep_gain", "unstable") / n_ops, "count/op")

    derive = [own[i] for i, s in enumerate(spans)
              if s[NAME] == "drive_model.derive_model"]
    m["drive_model.derive_model.self_ms"] = (
        statistics.median(derive) * 1e3 if derive else 0.0, "ms")

    m["cli.import_s"] = (import_s, "s")
    m["cli.output_bytes_per_op"] = (
        total("cli.main", "output_bytes") / n_ops, "B/op")
    for command in ("design", "reduce", "simulate", "sweep"):
        mains = [i for i in by_name["cli.main"]
                 if spans[i][COUNTS]["command"] == command]
        m[f"cli.main.{command}.self_ms_per_call"] = (
            sum(own[i] for i in mains) * 1e3 / len(mains) if mains else 0.0,
            "ms/call")

    m["trace.overhead_share"] = (overhead_share, "share")
    in_layers = sum(own[i] for ids in by_name.values() for i in ids)
    m["trace.self_time_share"] = (in_layers / traced_s, "share")
    return m
