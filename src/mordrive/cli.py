"""Command-line front end.

Reads JSON parameter/model files, runs reductions, designs, simulations
and gain sweeps, and writes machine-readable reports (JSON) or
plot-ready traces (CSV).  Exit codes: 0 success, 2 input/validation
problem, 3 numeric failure or infeasible configuration.  All numeric
output uses shortest round-trip decimal representation, so re-reading a
report reproduces the exact doubles.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .controller_design import (
    DesignReport,
    _sweep_stacks,
    design_conventional,
    design_via_mor,
)
from .drive_model import MotorDriveParams, derive_model, worked_example_params
from .errors import (
    MorDriveError,
    NoPositiveGain,
    NoRealGain,
    ValidationError,
)
from .mor_engine import ReductionConfig, reduce
from .poly_tf import TransferFunction, dc_gain
from .sim_analysis import bode, step_response

# The published worked example pairs these two numbers; neither follows
# from the stated design equations, so they are quoted in reports as an
# unexplained reference figure, never as a target.
_REFERENCE_GAIN_NOTE = (
    "The published worked example for this drive reports K = 357.192 and "
    "Kc = 35.719; no equation chain reproduces those figures (the "
    "damping-ratio condition for the order-2 model with a first-order "
    "numerator has no real solution), so they are recorded here as an "
    "unexplained reference value."
)

# Rows per block of a simulate CSV; a block's text and floats take a few MB
_CSV_BLOCK = 32_768


def _load_json(path: str) -> tuple[dict, bytes]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(raw.decode("utf-8", errors="strict"),
                          parse_int=_int_as_float,
                          parse_constant=_reject_constant)
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path} must contain a JSON object")
    return data, raw


def _int_as_float(text: str) -> float:
    # One past the float range reads as inf, refused as non-finite; adding
    # 0.0 reads -0 as 0.0, the float of the integer it denotes.
    return float(text) + 0.0


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name!r} is not allowed")


def _number_list(data: dict, key: str, path: str) -> list[float]:
    if key not in data:
        raise ValidationError(f"missing field '{key}' in {path}")
    value = data[key]
    if (not isinstance(value, list) or not value
            or not all(isinstance(x, float) and math.isfinite(x)
                       for x in value)):
        raise ValidationError(f"field '{key}' in {path} must be a non-empty "
                              "list of finite numbers")
    return value


def read_tf_file(path: str) -> tuple[TransferFunction, bytes]:
    """Transfer-function input: {"num": [...], "den": [...]}, ascending."""
    data, raw = _load_json(path)
    num = _number_list(data, "num", path)
    den = _number_list(data, "den", path)
    return TransferFunction.from_coeffs(num, den), raw


def read_motor_file(path: str) -> tuple[MotorDriveParams, bytes, list[str]]:
    """Nameplate from snake_case, unit-suffixed keys, and a note for each
    other key, which is ignored."""
    data, raw = _load_json(path)
    fields = dataclasses.fields(MotorDriveParams)
    for f in fields:
        if f.default is dataclasses.MISSING and f.name not in data:
            raise ValidationError(f"missing field '{f.name}' in {path}")
    kwargs = {}
    for f in fields:
        if f.name in data:
            value = data[f.name]
            if not (isinstance(value, float) and math.isfinite(value)):
                raise ValidationError(
                    f"field '{f.name}' in {path} must be a finite number")
            kwargs[f.name] = value
    return MotorDriveParams(**kwargs), raw, [
        f"ignored key '{k}' in {path}: not a nameplate field"
        for k in data if k not in kwargs]


def _manifest(command: str, raw: bytes, t0: float,
              warnings: list[str]) -> dict:
    import hashlib  # here only: it maps OpenSSL, which no other command needs
    return {
        "command": command,
        "input_digest": hashlib.sha256(raw).hexdigest(),
        "tool_version": __version__,
        "wall_time_s": time.perf_counter() - t0,
        "warnings": list(warnings),
    }


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _write_csv(path: str, header: str, blocks) -> None:
    """``header`` and then each text block of ``blocks``, written as it is
    made, so only one block is ever held as text."""
    with open(path, "w", encoding="utf-8") as out:
        out.write(header + "\n")
        out.writelines(blocks)


def _float_rows(*columns) -> str:
    """CSV lines of the equally long float arrays ``columns``."""
    return "".join(",".join(map(repr, row)) + "\n"
                   for row in zip(*(col.tolist() for col in columns)))


def _sweep_rows(points) -> str:
    """CSV lines of sweep points, an empty field for a missing metric."""
    return "".join(
        ",".join("" if x is None else repr(float(x))
                 for x in (pt.Kc, pt.overshoot_pct, pt.settling_2pct_s,
                           pt.rise_10_90_s, pt.ise_vs_reference))
        + (",true\n" if pt.stable else ",false\n") for pt in points)


def _parse_adjust(text: str) -> tuple[str, float | None]:
    if text in ("none", "auto"):
        return text, None
    try:
        pct = float(text)
    except ValueError as exc:
        raise ValidationError("--adjust must be 'none', 'auto' or a percent "
                              "in (0, 15]") from exc
    return "fixed", pct  # ReductionConfig checks the range


def cmd_reduce(args: argparse.Namespace, t0: float) -> int:
    g, raw = read_tf_file(args.tf)
    if not 1 <= args.order < g.den.degree:
        raise ValidationError(
            f"--order must satisfy 1 <= order < {g.den.degree} "
            "(the input denominator degree)")
    mode, pct = _parse_adjust(args.adjust)
    cfg = ReductionConfig(target_order=args.order,
                          numerator_order=args.numerator_order,
                          adjust_mode=mode, adjust_percent=pct)
    result = reduce(g, cfg)

    fact = result.factorization
    payload = {
        "num": list(result.reduced.num.coeffs),
        "den": list(result.reduced.den.coeffs),
        "diagnostics": {
            "original": {"num": list(g.num.coeffs), "den": list(g.den.coeffs)},
            "dc_gain": dc_gain(g),
            "factorization": {
                "e0": fact.e0,
                "e1": fact.e1,
                "z_sq": list(fact.z_sq),
                "p_sq": list(fact.p_sq),
            },
            "matched_conditions": [{"L": lv, "M": mv}
                                   for lv, mv in result.matched_conditions],
            "residual_epsilon": result.residual_epsilon,
            "chosen_n": result.chosen_n,
            "step_ise": result.step_ise,
        },
        "manifest": _manifest("reduce", raw, t0, list(result.warnings)),
    }
    _write_json(args.out, payload)
    return 0


def _report_payload(report: DesignReport, zeta: float, notes: list[str],
                    raw: bytes, t0: float, warnings: list[str]) -> dict:
    reduced = None
    if report.reduced_model is not None:
        red = report.reduced_model
        warnings = warnings + list(red.warnings)
        reduced = {
            "num": list(red.reduced.num.coeffs),
            "den": list(red.reduced.den.coeffs),
            "residual_epsilon": red.residual_epsilon,
            "chosen_n": red.chosen_n,
            "step_ise": red.step_ise,
        }
    return {
        "method": report.method,
        "zeta_requested": zeta,
        "K": report.K,
        "Kc": report.Kc,
        "Tc": report.Tc,
        "achieved_zeta": report.achieved_zeta,
        "natural_frequency_rad_s": report.natural_frequency,
        "closed_loop_poles": [[p.real, p.imag] for p in report.closed_loop_poles],
        "reduced": reduced,
        "notes": notes,
        "manifest": _manifest("design", raw, t0, warnings),
    }


def cmd_design(args: argparse.Namespace, t0: float) -> int:
    if args.print_example:
        print(json.dumps(dataclasses.asdict(worked_example_params()),
                         indent=2))
        return 0
    if args.motor is None or args.method is None or args.report is None:
        raise ValidationError("design needs --motor, --method and --report "
                              "(or --print-example)")
    params, raw, ignored = read_motor_file(args.motor)
    model = derive_model(params)
    zeta = args.zeta if args.zeta is not None else params.zeta

    notes = [] if args.method == "conventional" else [_REFERENCE_GAIN_NOTE]
    try:
        if args.method == "conventional":
            report = design_conventional(model, zeta=zeta)
        else:
            cfg = ReductionConfig(target_order=2, numerator_order=args.q)
            report = design_via_mor(model, cfg=cfg, zeta=zeta)
    except (NoRealGain, NoPositiveGain) as exc:
        payload = {
            "method": args.method,
            "zeta_requested": zeta,
            "error": type(exc).__name__,
            "message": str(exc),
            "discriminant": getattr(exc, "discriminant", None),
            "gain_quadratic": list(getattr(exc, "quadratic", ())) or None,
            "notes": notes,
            "manifest": _manifest("design", raw, t0, ignored),
        }
        _write_json(args.report, payload)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    _write_json(args.report,
                _report_payload(report, zeta, notes, raw, t0, ignored))
    return 0


def cmd_simulate(args: argparse.Namespace, t0: float) -> int:
    g, _raw = read_tf_file(args.tf)
    if args.kind == "step":
        trace = step_response(g, t_final=args.t_final, dt=args.dt)
        n = len(trace.y)  # each block forms its own slice of trace.t
        _write_csv(args.out, "t_s,y", (
            _float_rows(np.arange(i, min(i + _CSV_BLOCK, n)) * trace.dt,
                        trace.y[i:i + _CSV_BLOCK])
            for i in range(0, n, _CSV_BLOCK)))
        return 0
    trace = bode(g, args.w_min, args.w_max, args.ppd)
    columns = (trace.omega, trace.mag_db, trace.phase_deg)
    _write_csv(args.out, "omega_rad_per_s,mag_db,phase_deg", (
        _float_rows(*(col[i:i + _CSV_BLOCK] for col in columns))
        for i in range(0, len(trace.omega), _CSV_BLOCK)))
    return 0


def cmd_sweep(args: argparse.Namespace, t0: float) -> int:
    params, _raw, ignored = read_motor_file(args.motor)
    for note in ignored:
        print(f"warning: {note}", file=sys.stderr)
    model = derive_model(params)
    stacks = _sweep_stacks(model, args.kc_min, args.kc_max, args.steps)
    _write_csv(args.out, "kc,overshoot_pct,settling_s,rise_s,ise,stable",
               map(_sweep_rows, stacks))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mordrive",
        description="Model-order reduction and current-controller design "
                    "for converter-fed DC drives.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_red = sub.add_parser("reduce", help="reduce a transfer-function file")
    p_red.add_argument("--tf", required=True, help="input TF JSON file")
    p_red.add_argument("--order", type=int, required=True,
                       help="target denominator order")
    p_red.add_argument("--numerator-order", type=int, default=None,
                       help="numerator order (default: order - 1)")
    p_red.add_argument("--adjust", default="none",
                       help="'none', 'auto' or a percent in (0, 15]")
    p_red.add_argument("--out", required=True, help="output report JSON")
    p_red.set_defaults(func=cmd_reduce)

    p_des = sub.add_parser("design", help="design the current-controller gain")
    p_des.add_argument("--motor", help="motor parameter JSON file")
    p_des.add_argument("--method", choices=("conventional", "mor"))
    p_des.add_argument("--zeta", type=float, default=None,
                       help="damping-ratio target (default: file value)")
    p_des.add_argument("--q", type=int, default=1,
                       help="reduced numerator order for --method mor")
    p_des.add_argument("--report", help="output report JSON")
    p_des.add_argument("--print-example", action="store_true",
                       help="print the built-in worked-example motor file "
                            "and exit")
    p_des.set_defaults(func=cmd_design)

    p_sim = sub.add_parser("simulate", help="step or frequency response CSV")
    p_sim.add_argument("kind", choices=("step", "bode"))
    p_sim.add_argument("--tf", required=True, help="input TF JSON file")
    p_sim.add_argument("--out", required=True, help="output CSV file")
    p_sim.add_argument("--t-final", type=float, default=None)
    p_sim.add_argument("--dt", type=float, default=None)
    p_sim.add_argument("--w-min", type=float, default=0.1)
    p_sim.add_argument("--w-max", type=float, default=1e4)
    p_sim.add_argument("--ppd", type=int, default=60,
                       help="points per decade for bode")
    p_sim.set_defaults(func=cmd_simulate)

    p_swp = sub.add_parser("sweep", help="controller-gain sweep CSV")
    p_swp.add_argument("--motor", required=True)
    p_swp.add_argument("--kc-min", type=float, required=True)
    p_swp.add_argument("--kc-max", type=float, required=True)
    p_swp.add_argument("--steps", type=int, required=True)
    p_swp.add_argument("--out", required=True)
    p_swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    t0 = time.perf_counter()
    try:
        return args.func(args, t0)
    except ValidationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MorDriveError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # safety net: malformed input must never crash
        import traceback  # here only, so start-up does not pay for it
        at = traceback.extract_tb(exc.__traceback__)[-1]
        print(f"internal error: {type(exc).__name__}: {exc} (at "
              f"{at.filename}:{at.lineno} in {at.name})", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
