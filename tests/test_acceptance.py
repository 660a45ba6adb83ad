"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with
its number (run with ``pytest -s`` to see them).  Tolerances are pinned
here and nowhere else.
"""
import dataclasses
import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from mordrive.cli import main, read_tf_file
from mordrive.controller_design import (
    closed_current_loop,
    design_conventional,
    design_via_mor,
    sweep_gain,
)
from mordrive.drive_model import derive_model, worked_example_params
from mordrive.errors import NoRealGain
from mordrive.mor_engine import (
    ReductionConfig,
    adjust_denominator,
    match_numerator,
    reduce,
    reduce_denominator,
)
from mordrive.poly_tf import (
    Polynomial,
    TransferFunction,
    combine_stability_parts,
    dc_gain,
    even_odd_factor,
    is_stable,
    poly_mul,
    spectral_square_head,
)
from mordrive.sim_analysis import (
    bode,
    characteristic_times,
    ise,
    response_metrics,
    step_response,
)

# Benchmark loop shape, frozen from the hand expansion of
# (1+0.1077s)(1+0.0208s)(1+0.00138s).
BENCH_DEN = [1.0, 0.12988, 0.00241749, 3.0914208e-06]
BENCH_NUM = [1.0, 0.03]


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


@pytest.fixture(scope="module")
def model():
    return derive_model(worked_example_params())


@pytest.fixture(scope="module")
def bench_loop():
    return TransferFunction(Polynomial(BENCH_NUM), Polynomial(BENCH_DEN))


def test_criterion_1_drive_derivation_golden(model):
    with criterion(1, "drive constant derivation from nameplate data"):
        assert model.K1 == pytest.approx(0.0449, abs=0.0001)
        assert model.T1 == pytest.approx(0.1077, abs=0.0005)
        assert model.T2 == pytest.approx(0.0208, abs=0.0005)
        assert model.Tm == pytest.approx(0.700, abs=0.005)
        assert model.Kr == 31.05
        assert model.rated_control_voltage == pytest.approx(7.09, abs=0.01)
        assert model.Hc == pytest.approx(0.355, abs=0.001)


def test_criterion_2_denominator_reduction_golden():
    with criterion(2, "order-2 denominator from the benchmark cubic"):
        den = Polynomial(BENCH_DEN)
        reduced = reduce_denominator(den, 2)
        expected = [1.0, 0.12988, 0.00241749]
        for got, want in zip(reduced.coeffs, expected):
            assert abs(got - want) <= 1e-4 * abs(want)
        fact = even_odd_factor(den)
        assert fact.z_sq[0] == pytest.approx(413.7, rel=1e-3, abs=0.0)
        assert fact.p_sq[0] == pytest.approx(4.20e4, rel=5e-3, abs=0.0)
        assert fact.z_sq[0] < fact.p_sq[0]


def test_criterion_3_numerator_matching_golden(bench_loop):
    with criterion(3, "first-order numerator matching on the benchmark loop"):
        d_r = reduce_denominator(Polynomial(BENCH_DEN), 2)
        n_r = match_numerator(bench_loop, d_r, 1)
        assert n_r.coeff(1) == pytest.approx(0.0300, abs=0.0005)
        # hand oracle: C1^2 = 2 B2 - B1^2 - L2
        big_l = spectral_square_head(poly_mul(bench_loop.num, d_r), 1)
        c1_sq = 2.0 * BENCH_DEN[2] - BENCH_DEN[1] ** 2 - big_l[1]
        assert n_r.coeff(1) == pytest.approx(math.sqrt(c1_sq), rel=1e-9,
                                             abs=0.0)
        big_m = spectral_square_head(poly_mul(bench_loop.den, n_r), 1)
        assert abs(big_l[1] - big_m[1]) <= 1e-9 * (1.0 + abs(big_l[1]))


def test_criterion_4_conventional_design_and_sweep_ordering(model):
    with criterion(4, "conventional gain design and sweep overshoot order"):
        rep = design_conventional(model)
        # hand oracle: K = (T1+Tr)^2/(4 zeta^2 T1 Tr) - 1
        assert rep.K == pytest.approx(39.0, rel=0.005, abs=0.0)
        assert rep.Kc == pytest.approx(3.38, rel=0.01, abs=0.0)
        assert rep.achieved_zeta == pytest.approx(0.707, abs=1e-3)
        low = sweep_gain(model, 3.1, 10.0, 2)
        high = sweep_gain(model, 35.7, 50.0, 2)
        overshoots = [pt.overshoot_pct for pt in low + high]
        assert all(pt.stable for pt in low + high)
        assert overshoots[0] < overshoots[1] < overshoots[2] < overshoots[3]


def test_criterion_5_documented_non_reproduction(model, tmp_path):
    with criterion(5, "published K = 357.192 is not reproduced, only quoted"):
        with pytest.raises(NoRealGain) as err:
            design_via_mor(model, ReductionConfig(target_order=2,
                                                  numerator_order=1))
        assert err.value.discriminant == pytest.approx(-3.46e-5, rel=0.10,
                                                       abs=0.0)

        # no design path lands anywhere near the published pair
        conv = design_conventional(model)
        q0 = design_via_mor(model, ReductionConfig(target_order=2,
                                                   numerator_order=0))
        for rep in (conv, q0):
            assert abs(rep.K - 357.192) > 100.0
            assert abs(rep.Kc - 35.719) > 10.0

        # the failure report quotes the figures as unexplained
        motor = tmp_path / "motor.json"
        motor.write_text(json.dumps(
            dataclasses.asdict(worked_example_params())))
        report_path = tmp_path / "mor.json"
        assert main(["design", "--motor", str(motor), "--method", "mor",
                     "--q", "1", "--report", str(report_path)]) == 3
        report = json.loads(report_path.read_text())
        notes = " ".join(report["notes"])
        assert "357.192" in notes and "35.719" in notes
        assert "unexplained" in notes
        assert report["discriminant"] == pytest.approx(-3.46e-5, rel=0.10,
                                                       abs=0.0)


def test_criterion_6_frequency_band_fidelity(bench_loop):
    with criterion(6, "reduced model within 3 dB up to 48 rad/s"):
        red = reduce(bench_loop,
                     ReductionConfig(target_order=2, numerator_order=1))
        full = bode(bench_loop, 0.1, 48.0, 60)
        low = bode(red.reduced, 0.1, 48.0, 60)
        dmag = np.abs(full.mag_db - low.mag_db)
        assert float(np.max(dmag)) <= 3.0
        assert float(dmag[0]) <= 0.05


def test_criterion_7_ise_instrumentation(model):
    with criterion(7, "ISE identity, analytic case, and closed-loop report"):
        lag1 = TransferFunction.from_coeffs([1.0], [1.0, 1.0])
        lag2 = TransferFunction.from_coeffs([1.0], [1.0, 2.0])
        tr = step_response(lag1, t_final=40.0, dt=1e-3)
        assert ise(tr, tr) == 0.0
        other = step_response(lag2, t_final=40.0, dt=1e-3)
        assert ise(tr, other) == pytest.approx(1.0 / 6.0, abs=1e-3)

        # Documented default for the benchmark comparison: close the full
        # current loop at the published controller gain Kc = 35.719,
        # reduce that closed loop to order 2 (q = 1, no adjustment), and
        # integrate the squared difference of the two unit-step responses
        # over 5x the slowest time constant with dt = fastest/20.
        closed = closed_current_loop(model, 35.719)
        red = reduce(closed, ReductionConfig(target_order=2,
                                             numerator_order=1))
        ts_a, tl_a = characteristic_times(closed)
        ts_b, tl_b = characteristic_times(red.reduced)
        dt = min(ts_a, ts_b) / 20.0
        horizon = 5.0 * max(tl_a, tl_b)
        a = step_response(closed, t_final=horizon, dt=dt)
        b = step_response(red.reduced, t_final=horizon, dt=dt)
        value = ise(a, b)
        print(f"  reported closed-loop ISE = {value:.6g} "
              f"(published figure 0.0204)")
        assert 0.0204 / 5.0 <= value <= 0.0204 * 5.0


def test_criterion_8_property_suites():
    with criterion(8, "randomized property suites, fixed seeds"):
        # stability preservation over >= 1000 stable systems
        rng = np.random.default_rng(20110520)
        systems = 0
        while systems < 1000:
            deg = int(rng.integers(3, 7))
            den = Polynomial([1.0])
            for tau in 1.0 / 10.0 ** rng.uniform(-1.0, 3.0, size=deg):
                den = poly_mul(den, Polynomial([1.0, float(tau)]))
            assert den.degree == deg
            for r in range(1, den.degree):
                reduced = reduce_denominator(den, r)
                assert is_stable(reduced)
                if reduced.degree >= 2:
                    for pct in (7.5, 15.0):
                        assert is_stable(adjust_denominator(reduced, pct))
            systems += 1

        # DC-gain preservation to 1e-12
        rng = np.random.default_rng(1729)
        for _ in range(50):
            deg = int(rng.integers(3, 7))
            den = Polynomial([1.0])
            for tau in 1.0 / 10.0 ** rng.uniform(-1.0, 2.5, size=deg):
                den = poly_mul(den, Polynomial([1.0, float(tau)]))
            assert den.degree == deg
            g = TransferFunction(Polynomial([float(rng.uniform(0.2, 30.0))]),
                                 den)
            res = reduce(g, ReductionConfig(target_order=2,
                                            numerator_order=1))
            assert abs(dc_gain(res.reduced) - dc_gain(g)) \
                <= 1e-12 * abs(dc_gain(g))

        # even/odd reconstruction to 1e-8 and interlacing throughout
        rng = np.random.default_rng(20240311)
        checked = 0
        while checked < 200:
            deg = int(rng.integers(2, 9))
            d = Polynomial([1.0])
            left = deg
            while left > 0:
                if left >= 2 and rng.random() < 0.35:
                    wn = 10.0 ** rng.uniform(-1.0, 2.0)
                    z = rng.uniform(0.3, 0.95)
                    d = poly_mul(d, Polynomial([1.0, 2.0 * z / wn,
                                                1.0 / wn ** 2]))
                    left -= 2
                else:
                    d = poly_mul(d, Polynomial(
                        [1.0, float(1.0 / 10.0 ** rng.uniform(-1.0, 2.0))]))
                    left -= 1
            assert d.degree == deg
            f = even_odd_factor(d)
            merged = []
            for i in range(len(f.p_sq)):
                merged += [f.z_sq[i], f.p_sq[i]]
            if len(f.z_sq) > len(f.p_sq):
                merged.append(f.z_sq[-1])
            assert merged == sorted(merged) and len(set(merged)) == len(merged)
            rebuilt = combine_stability_parts(f.e0, f.e1, f.z_sq, f.p_sq)
            for c_in, c_out in zip(d.coeffs, rebuilt.coeffs):
                assert c_out == pytest.approx(c_in, rel=1e-8, abs=0.0)
            checked += 1

        # step-response final value equals the DC gain within 0.5%
        rng = np.random.default_rng(1864)
        for _ in range(20):
            deg = int(rng.integers(1, 5))
            den = Polynomial([1.0])
            for tau in 1.0 / 10.0 ** rng.uniform(-0.5, 1.5, size=deg):
                den = poly_mul(den, Polynomial([1.0, float(tau)]))
            g = TransferFunction(Polynomial([float(rng.uniform(0.3, 4.0))]),
                                 den)
            _, tc_large = characteristic_times(g)
            metrics = response_metrics(step_response(g, t_final=10.0 * tc_large))
            assert metrics.final_value == pytest.approx(dc_gain(g), rel=5e-3,
                                                        abs=0.0)

        # halving dt moves the ISE by less than 0.1%
        lag1 = TransferFunction.from_coeffs([1.0], [1.0, 1.0])
        lag2 = TransferFunction.from_coeffs([1.0], [1.0, 2.0])
        vals = []
        for dt in (2e-3, 1e-3):
            a = step_response(lag1, t_final=40.0, dt=dt)
            b = step_response(lag2, t_final=40.0, dt=dt)
            vals.append(ise(a, b))
        assert abs(vals[1] - vals[0]) / vals[1] < 1e-3


def test_criterion_9_cli_contract(tmp_path):
    with criterion(9, "CLI exit codes, crash-free parsing, exact round-trip"):
        loop = tmp_path / "loop.json"
        loop.write_text(json.dumps({"num": BENCH_NUM, "den": BENCH_DEN}))
        out = tmp_path / "red.json"

        # success path
        assert main(["reduce", "--tf", str(loop), "--order", "2",
                     "--out", str(out)]) == 0
        # validation failure
        assert main(["reduce", "--tf", str(loop), "--order", "3",
                     "--out", str(out)]) == 2
        # numeric failure
        bad = tmp_path / "unstable.json"
        bad.write_text(json.dumps({"num": [1.0],
                                   "den": [1.0, 3.0, -0.5, -1.0]}))
        assert main(["reduce", "--tf", str(bad), "--order", "2",
                     "--out", str(tmp_path / "x.json")]) == 3

        # bit-exact round trip of the reduce report as a TF input
        assert main(["reduce", "--tf", str(loop), "--order", "2",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        g, _ = read_tf_file(str(out))
        assert list(g.num.coeffs) == report["num"]
        assert list(g.den.coeffs) == report["den"]
        again = tmp_path / "again.json"
        assert main(["reduce", "--tf", str(loop), "--order", "2",
                     "--out", str(again)]) == 0
        r1 = json.loads(out.read_text())
        r2 = json.loads(again.read_text())
        r1["manifest"]["wall_time_s"] = r2["manifest"]["wall_time_s"] = 0.0
        assert r1 == r2

        # malformed inputs never escape the 2/3 contract
        import random
        rng = random.Random(77)
        blobs = [b"", b"{", b"[1,2", b'{"num": [1]}', b"\x00\x01\x02",
                 b'{"num": [NaN], "den": [1]}']
        for _ in range(20):
            blobs.append(bytes(rng.randint(0, 255)
                               for _ in range(rng.randint(0, 40))))
        fz = tmp_path / "fz.json"
        for blob in blobs:
            fz.write_bytes(blob)
            assert main(["reduce", "--tf", str(fz), "--order", "2",
                         "--out", str(tmp_path / "o.json")]) in (2, 3)
            assert main(["simulate", "step", "--tf", str(fz),
                         "--out", str(tmp_path / "o.csv")]) in (2, 3)
