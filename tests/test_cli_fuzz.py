"""Seeded fuzz of the CLI: every command on random models must succeed or
fail with a documented exit code, never fall into the internal-error net.

About 60 models of degree 2-14, with pole spreads up to 1e7, repeated
poles, right-half-plane poles and zeros on either side, go through
``reduce`` (no adjustment and auto, at the default numerator order,
which has no upper limit; auto also at order 2, the design order),
``simulate step`` on a short explicit grid and ``simulate bode``; random
nameplates go through ``sweep``, at moderate gains and from log-uniform
gains up to the float maximum, and extreme nameplates, each field but
zeta scaled by up to 1e+-300, through both ``design`` routes.  Each
success must give finite numbers, and a reduction must keep the DC gain;
a reduction that exits 3 must name a numeric failure or a negative root
of the matched series.
"""
import dataclasses
import json
import math
import re
import sys

import numpy as np
import pytest

from mordrive import errors
from mordrive.cli import main
from mordrive.drive_model import worked_example_params

N_MODELS = 60
N_SWEEPS = 12
N_WIDE_SWEEPS = 8
N_NAMEPLATES = 200

# The three speed-loop keys are ignored by the CLI; they stay, last, so
# that the nameplate generator draws the same numbers per key as it did
# when the schema carried them.
WORKED_EXAMPLE = dict(dataclasses.asdict(worked_example_params()),
                      rated_speed_rpm=1470.0, tacho_gain_v_per_rad_s=0.065,
                      tacho_tc_s=0.002)

# Worked-example variants whose designed Kc overflowed to inf, or whose
# reduction overflowed in the residual epsilon (q = 0) or in the
# spectral square (q = 1).
OVERFLOWING_NAMEPLATES = [
    {"rated_voltage_v": 5.37e-272, "tr_s": 1.04e-69},
    {"supply_line_voltage_v": 1.26e199, "tc_s": 1.88e197},
    {"rated_current_a": 9.74e233, "ra_ohm": 1.87e-176, "la_h": 3.86e239,
     "supply_line_voltage_v": 8.06e-22},
]


def _poles(rng, degree: int, spread: float, kind: int) -> list[complex]:
    """``degree`` poles whose magnitudes span ``spread`` around 1.  Kind 1
    starts with a real pole of multiplicity 2 or 3, kind 2 with one real
    pole in the right half-plane."""
    ends = [spread ** -0.5, spread ** 0.5]

    def mag() -> float:
        return ends.pop() if ends else spread ** rng.uniform(-0.5, 0.5)

    poles: list[complex] = []
    if kind == 1:
        poles = [complex(-mag())] * min(int(rng.integers(2, 4)), degree)
    elif kind == 2:
        poles = [complex(mag())]
    while len(poles) < degree:
        m = mag()
        if degree - len(poles) >= 2 and rng.random() < 0.5:
            zeta = rng.uniform(0.05, 0.95)
            p = complex(-zeta * m, m * math.sqrt(1.0 - zeta * zeta))
            poles += [p, p.conjugate()]
        else:
            poles.append(complex(-m))
    return poles


def _ascending(roots: list[complex], constant: float) -> list[float]:
    """Real polynomial with the given roots, ascending, scaled to the
    given constant term."""
    coeffs = np.real(np.poly(roots))[::-1] if roots else np.array([1.0])
    return [float(c) for c in coeffs * (constant / coeffs[0])]


def _models() -> list[dict]:
    rng = np.random.default_rng(20261019)
    out = []
    for i in range(N_MODELS):
        degree = 2 + i % 13
        spread = 10.0 ** rng.uniform(0.0, 7.0)
        poles = _poles(rng, degree, spread, i % 4)
        assert len(poles) == degree
        zeros = [float(rng.choice([-1.0, 1.0]) * spread ** rng.uniform(-0.5, 0.5))
                 for _ in range(int(rng.integers(0, min(3, degree))))]
        out.append({"num": _ascending(zeros, float(rng.uniform(0.5, 2.0))),
                    "den": _ascending(poles, 1.0), "poles": poles,
                    "orders": (int(rng.integers(1, degree)), degree - 1)})
    return out


MODELS = _models()


def _extreme_nameplates() -> list[dict]:
    """The overflowing variants, then worked-example nameplates with each
    field but zeta scaled by 10^U(-300, 300) with probability 0.3."""
    rng = np.random.default_rng(4242)
    out = [dict(WORKED_EXAMPLE, **fields) for fields in OVERFLOWING_NAMEPLATES]
    for _ in range(N_NAMEPLATES):
        params = dict(WORKED_EXAMPLE)
        for key in params:
            if key != "zeta" and rng.random() < 0.3:
                params[key] *= 10.0 ** rng.uniform(-300.0, 300.0)
        out.append(params)
    return out


NAMEPLATES = _extreme_nameplates()


def _run(argv: list[str], capsys) -> tuple[int, str]:
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (argv, code, err)
    assert "internal error" not in err, (argv, err)
    return code, err


def _tf_file(tmp_path, i: int, m: dict) -> str:
    path = tmp_path / f"model{i}.json"
    path.write_text(json.dumps({"num": m["num"], "den": m["den"]}))
    return str(path)


def _read_csv(path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def test_models_cover_the_hard_cases():
    assert {len(m["den"]) - 1 for m in MODELS} == set(range(2, 15))
    spreads = [max(abs(p) for p in m["poles"]) / min(abs(p) for p in m["poles"])
               for m in MODELS]
    assert max(spreads) > 1e6
    assert any(len(set(m["poles"])) < len(m["poles"]) for m in MODELS)
    assert any(p.real > 0.0 for m in MODELS for p in m["poles"])
    assert sum(max(m["orders"]) >= 4 for m in MODELS) > 20


@pytest.mark.parametrize("adjust", ["none", "auto"])
def test_reduce(tmp_path, capsys, adjust):
    codes = []
    for i, m in enumerate(MODELS):
        tf = _tf_file(tmp_path, i, m)
        dc = m["num"][0] / m["den"][0]
        orders = list(m["orders"])
        if adjust == "auto" and len(m["den"]) > 3 and 2 not in orders:
            orders.append(2)  # the design order: the candidates are quadratics
        for order in orders:
            out = tmp_path / f"red{i}_{order}.json"
            code, err = _run(["reduce", "--tf", tf, "--order", str(order),
                              "--adjust", adjust, "--out", str(out)], capsys)
            codes.append((order >= 4, code))
            # every numerator order is matched, so an order of 4 or more
            # ends in a model or a numeric failure, not an input error
            assert order < 4 or code in (0, 3), (i, order, code)
            if code == 3:
                # the method's answer: a numeric failure, or a negative
                # root u of the matched series
                name, message = re.search(r"^error: (\w+): (.*)$", err,
                                          re.M).groups()
                assert issubclass(getattr(errors, name), errors.NumericError), err
                if name == "MatchInfeasible":
                    root = re.search(r"= (\S+) < 0$", message)
                    assert root and float(root[1]) < 0.0, err
            if code != 0:
                assert not out.exists()
                continue
            report = json.loads(out.read_text())
            num, den = report["num"], report["den"]
            assert len(den) == order + 1 and len(num) <= order
            assert all(math.isfinite(c) for c in num + den)
            assert math.isfinite(report["diagnostics"]["residual_epsilon"])
            assert num[0] / den[0] == pytest.approx(dc, rel=1e-12,
                                                    abs=0.0), (i, order)
    assert [c for _, c in codes].count(0) > len(codes) // 4
    assert (True, 0) in codes


def test_simulate_step_on_a_short_grid(tmp_path, capsys):
    ok = 0
    for i, m in enumerate(MODELS):
        t_final = 5.0 / min(abs(p) for p in m["poles"])
        out = tmp_path / f"step{i}.csv"
        code, _ = _run(["simulate", "step", "--tf", _tf_file(tmp_path, i, m),
                        "--out", str(out), "--t-final", repr(t_final),
                        "--dt", repr(t_final / 400.0)], capsys)
        if code == 0:
            ok += 1
            rows = _read_csv(out)
            assert len(rows) == 401
            assert all(math.isfinite(float(x)) for row in rows for x in row)
    assert ok > N_MODELS // 2


def test_simulate_bode(tmp_path, capsys):
    for i, m in enumerate(MODELS):
        out = tmp_path / f"bode{i}.csv"
        code, _ = _run(["simulate", "bode", "--tf", _tf_file(tmp_path, i, m),
                        "--out", str(out), "--w-min", "1e-8", "--w-max", "1e5",
                        "--ppd", "10"], capsys)
        assert code == 0, i
        rows = _read_csv(out)
        assert len(rows) == 131
        assert all(math.isfinite(float(x)) for row in rows for x in row)
        # the lowest frequency sits far below every pole and zero
        dc = m["num"][0] / m["den"][0]
        assert float(rows[0][1]) == pytest.approx(20.0 * math.log10(abs(dc)),
                                                  abs=1e-6)


def test_sweep_on_random_nameplates(tmp_path, capsys):
    rng = np.random.default_rng(1979)
    ok = 0
    for i in range(N_SWEEPS + N_WIDE_SWEEPS):
        params = dict(WORKED_EXAMPLE)
        for key in ("ra_ohm", "la_h", "j_kgm2", "bt_nm_per_rad_s",
                    "kb_v_per_rad_s", "tc_s", "tr_s"):
            params[key] *= math.exp(rng.uniform(-0.7, 0.7))
        motor = tmp_path / f"motor{i}.json"
        motor.write_text(json.dumps(params))
        if i < N_SWEEPS:
            kc_min = float(rng.uniform(0.5, 10.0))
            kc_max = float(kc_min * rng.uniform(1.0, 20.0))
        else:  # up to the float maximum, where closing the loop overflows
            kc_min = float(10.0 ** rng.uniform(-3.0, 308.0))
            kc_max = sys.float_info.max
        out = tmp_path / f"sweep{i}.csv"
        code, _ = _run(["sweep", "--motor", str(motor), "--kc-min", repr(kc_min),
                        "--kc-max", repr(kc_max), "--steps", "4",
                        "--out", str(out)], capsys)
        if code == 0:
            ok += 1
            rows = _read_csv(out)
            assert len(rows) == 4
            for row in rows:
                assert row[-1] in ("true", "false")
                assert all(math.isfinite(float(x)) for x in row[:-1] if x)
    assert ok > N_SWEEPS // 3


def test_design_refuses_an_overflowing_gain_before_its_poles(tmp_path, capsys):
    motor = tmp_path / "motor.json"
    motor.write_text(json.dumps(NAMEPLATES[2]))
    code = main(["design", "--motor", str(motor), "--method", "conventional",
                 "--report", str(tmp_path / "design.json")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Kc" in err and "out of range" in err


def test_design_places_poles_whose_product_overflows(tmp_path, capsys):
    # the closed loop's quadratic has companion entries past the float
    # range, and |p1| |p2| overflows, though both poles are finite
    motor = tmp_path / "motor.json"
    motor.write_text(json.dumps(NAMEPLATES[12]))
    out = tmp_path / "design.json"
    code, _ = _run(["design", "--motor", str(motor), "--method", "conventional",
                    "--report", str(out)], capsys)
    assert code == 0
    report = json.loads(out.read_text())
    assert 1e154 < report["natural_frequency_rad_s"] < math.inf
    assert report["achieved_zeta"] == pytest.approx(NAMEPLATES[12]["zeta"],
                                                    rel=1e-12, abs=0.0)


# Worked-example variants whose reduction overflows where the residual
# epsilon fills its grid caches or multiplies their values.
@pytest.mark.parametrize("fields, q, value", [
    ({"ra_ohm": 2.884275546573113e-174,
      "kb_v_per_rad_s": 1.372302900293121e-78,
      "tc_s": 3.0943427607864278e+249}, "0", "inf"),
    *(({"rated_current_a": 1.7789801314688408e-236,
        "la_h": 3.404221090984008e+171,
        "bt_nm_per_rad_s": 5.863105925206532e-152,
        "kb_v_per_rad_s": 2.1744119702028015e-66,
        "supply_line_voltage_v": 1.857285282398338e+68}, q, "nan")
      for q in ("0", "1")),
], ids=["q0-inf", "q0-nan", "q1-nan"])
def test_design_refuses_an_overflowing_residual_epsilon(tmp_path, capsys,
                                                        fields, q, value):
    motor = tmp_path / "motor.json"
    motor.write_text(json.dumps(dict(WORKED_EXAMPLE, **fields)))
    code = main(["design", "--motor", str(motor), "--method", "mor", "--q", q,
                 "--report", str(tmp_path / "design.json")])
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.endswith(f"residual epsilon of the reduced model is {value}\n")


def test_commands_refuse_an_underflowing_motor_quadratic(tmp_path, capsys):
    # Kb^2 + Ra*Bt underflows to 0.0, which K1 divides by
    motor = tmp_path / "motor.json"
    motor.write_text(json.dumps(dict(
        WORKED_EXAMPLE, ra_ohm=1.7816062159162237e-207,
        bt_nm_per_rad_s=9.19767371746173e-218,
        kb_v_per_rad_s=1.536553331191386e-250,
        tr_s=1.8568598745114956e-142)))
    for command in (["design", "--method", "conventional", "--report",
                     str(tmp_path / "design.json")],
                    ["sweep", "--kc-min", "1", "--kc-max", "2", "--steps", "3",
                     "--out", str(tmp_path / "sweep.csv")]):
        code = main([command[0], "--motor", str(motor), *command[1:]])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "derived Kb^2 + Ra*Bt = 0.0 " in err


@pytest.mark.parametrize("method", [["conventional"], ["mor", "--q", "0"],
                                    ["mor"]], ids=["conventional", "mor-q0",
                                                   "mor-q1"])
def test_design_on_extreme_nameplates(tmp_path, capsys, method):
    ok = 0
    for i, params in enumerate(NAMEPLATES):
        motor = tmp_path / f"motor{i}.json"
        motor.write_text(json.dumps(params))
        out = tmp_path / f"design{i}.json"
        code, _ = _run(["design", "--motor", str(motor), "--method", *method,
                        "--report", str(out)], capsys)
        if code != 0:
            continue
        ok += 1
        report = json.loads(out.read_text())
        numbers = [report[k] for k in ("K", "Kc", "Tc", "achieved_zeta",
                                       "natural_frequency_rad_s")]
        numbers += [x for pole in report["closed_loop_poles"] for x in pole]
        if report["reduced"] is not None:
            red = report["reduced"]
            numbers += red["num"] + red["den"] + [red["residual_epsilon"]]
        assert all(math.isfinite(x) for x in numbers), (i, method)
    # most of the q = 1 designs end in NoRealGain, as the worked example's does
    assert ok > N_NAMEPLATES // 20
