"""The benchmark's four workloads: seeded inputs, one operation each, and
the correctness gate every operation passes through.

A workload builds its inputs from the seed as plain coefficient lists
(or nameplate dicts), and every operation builds fresh package objects
from them, so nothing the package caches on an object survives from one
operation to the next.  ``run`` is the only part that is timed; ``check``
compares its output with ``reference`` and raises ``Mismatch``.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref
from mordrive import (
    MotorDriveParams,
    ReductionConfig,
    TransferFunction,
    bode,
    closed_current_loop,
    derive_model,
    ise,
    reduce,
    step_response,
    sweep_gain,
)
from mordrive import cli
from mordrive.sim_analysis import characteristic_times
from mordrive.errors import MatchInfeasible

# Published worked example (README): 220 V, 8.3 A, 1470 rpm drive.
WORKED_EXAMPLE = {
    "rated_voltage_v": 220.0, "rated_current_a": 8.3, "ra_ohm": 4.0,
    "la_h": 0.072, "j_kgm2": 0.0607, "bt_nm_per_rad_s": 0.0869,
    "kb_v_per_rad_s": 1.26, "supply_line_voltage_v": 230.0, "vcm_v": 10.0,
    "imax_a": 20.0, "tc_s": 0.03, "tr_s": 0.00138, "zeta": 0.707,
}
# Repeated poles: (1 + 0.2 s) / ((1 + 2 s)^2 (1 + 0.5 s) (1 + 0.1 s)) and
# (1 + 0.5 s) / ((1 + s)^3 (1 + s/8)).
DOUBLE_POLE = ([(complex(-0.5), 2), (complex(-2.0), 1), (complex(-10.0), 1)],
               [-5.0], 1.0, 20.0)
TRIPLE_POLE = ([(complex(-1.0), 3), (complex(-8.0), 1)], [-2.0], 1.0, 8.0)
# README benchmark loop: (1 + 0.03 s) / ((1+0.1077s)(1+0.0208s)(1+0.00138s)).
BENCH_LOOP = ([1.0, 0.03], [1.0, 0.12988, 0.00241749, 3.0914208e-06])

# Reference figures quoted by the README and the acceptance suite.
PUBLISHED_K, PUBLISHED_KC = 39.05, 3.396
PUBLISHED_DISCRIMINANT = -3.48e-5
PUBLISHED_REDUCED_DEN, PUBLISHED_SLOPE = (1.0, 0.12988, 0.00241749), 0.03
PUBLISHED_KC_PAPER, PUBLISHED_CLOSED_LOOP_ISE = 35.719, 0.01535

AUTO_GRID = np.arange(1.0, 15.0 + 0.25, 0.5)
SWEEP = (3.1, 50.0, 15)


class Mismatch(Exception):
    """An operation's output disagrees with the reference."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def close(a: float, b: float, rel: float, what: str) -> None:
    expect(abs(a - b) <= rel * abs(b), f"{what}: {a!r} against {b!r}")


@dataclass
class Case:
    """One input of a pass; ``key`` names it in results and the gate's memo."""

    key: str
    data: dict


# ---- seeded input generators -----------------------------------------

def stratum(rng: random.Random, i: int, n: int) -> float:
    """A point drawn in the i-th of n equal slices of [0, 1).

    Inputs drawn this way cover the whole range in every seed, so the
    work in one pass varies little from seed to seed.
    """
    return (i + rng.random()) / n


def hurwitz_poles(rng: random.Random, degree: int, spread: float,
                  repeated: int = 1) -> list[tuple[complex, int]]:
    """(pole, multiplicity) groups of a stable real polynomial.

    Magnitudes span exactly ``spread`` around 1; the slowest pole carries
    the multiplicity ``repeated``.  The rest alternate between complex
    pairs and real poles, each with its magnitude in its own slice of the
    log range in between and each pair with its damping in its own slice
    of 0.2-0.9.  Only the values depend on the seed, so a system of a
    given degree costs about the same in every seed.
    """
    lo = spread ** -0.5
    groups = [(complex(-lo), repeated), (complex(-lo * spread), 1)]
    sizes, left = [], degree - repeated - 1
    while left > 0:
        sizes.append(2 if len(sizes) % 2 == 0 and left >= 2 else 1)
        left -= sizes[-1]
    n_pairs = sizes.count(2)
    for k, size in enumerate(sizes):
        mag = lo * spread ** stratum(rng, k, len(sizes))
        if size == 2:
            zeta = 0.2 + 0.7 * stratum(rng, (k // 2 + 1) % n_pairs, n_pairs)
            p = complex(-zeta * mag, mag * math.sqrt(1.0 - zeta * zeta))
            groups += [(p, 1), (p.conjugate(), 1)]
        else:
            groups.append((complex(-mag), 1))
    return groups


def random_system(rng: random.Random, degree: int, spread: float,
                  n_zeros: int, repeated: int = 1) -> dict:
    """Seeded stable transfer function as ascending coefficient lists."""
    poles = hurwitz_poles(rng, degree, spread, repeated)
    zeros = [-math.exp(rng.uniform(math.log(0.5 / spread ** 0.5),
                                   math.log(spread ** 0.5)))
             for _ in range(n_zeros)]
    return system(poles, zeros, rng.uniform(0.5, 2.0), spread)


def system(poles: list[tuple[complex, int]], zeros: list[float], gain: float,
           spread: float) -> dict:
    """Transfer function with the given (pole, multiplicity) groups, real
    zeros and DC gain, as ascending coefficient lists."""
    den = ref.from_roots([p for p, m in poles for _ in range(m)])
    num = ref.from_roots(zeros, gain * den[0] / math.prod(-z for z in zeros))
    return {"num": [float(c) for c in num], "den": [float(c) for c in den],
            "poles": poles, "spread": spread}


def nameplate_variant(rng: random.Random) -> dict:
    """Worked example with the motor constants varied by up to +-6 %.

    The narrow range keeps the sweep's sample counts, and so the work in
    a pass, close to the worked example's in every seed.  Draws again
    until the variant keeps Tr < T2 < T1 with real motor poles, which the
    drive model requires.
    """
    while True:
        p = dict(WORKED_EXAMPLE)
        for key in ("ra_ohm", "la_h", "j_kgm2", "bt_nm_per_rad_s",
                    "kb_v_per_rad_s", "tc_s"):
            p[key] *= math.exp(rng.uniform(-0.06, 0.06))
        quad = [p["kb_v_per_rad_s"] ** 2 + p["ra_ohm"] * p["bt_nm_per_rad_s"],
                p["bt_nm_per_rad_s"] * p["la_h"] + p["j_kgm2"] * p["ra_ohm"],
                p["j_kgm2"] * p["la_h"]]
        if quad[1] ** 2 <= 4.0 * quad[0] * quad[2]:
            continue
        c = ref.drive_constants(p)
        if p["tr_s"] < c["T2"] < c["T1"]:
            return p


def tf(data: dict) -> TransferFunction:
    return TransferFunction.from_coeffs(data["num"], data["den"])


def bode_grid(data: dict) -> tuple[float, float]:
    spread = data.get("spread")
    if spread is None:
        return 0.1, 1e4
    return 0.01 * spread ** -0.5, 100.0 * spread ** 0.5


# ---- shared gate pieces ----------------------------------------------

def check_bode(omega, mag_db, phase_deg, num, den, w_min: float, w_max: float,
               ppd: int) -> None:
    n = max(2, int(round(ppd * math.log10(w_max / w_min))) + 1)
    want = np.logspace(math.log10(w_min), math.log10(w_max), n)
    expect(len(omega) == n, "bode grid size")
    expect(np.allclose(omega, want, rtol=1e-12, atol=0.0), "bode grid")
    resp = ref.polyval(num, 1j * want) / ref.polyval(den, 1j * want)
    mag = 20.0 * np.log10(np.abs(resp))
    phase = np.degrees(np.unwrap(np.angle(resp)))
    expect(np.max(np.abs(mag_db - mag)) <= 1e-6, "bode magnitude")
    dphase = (phase_deg - phase + 180.0) % 360.0 - 180.0
    expect(np.max(np.abs(dphase)) <= 1e-6, "bode phase")


def normalized(data: dict):
    """(DC gain, numerator, denominator), both with unit constant term."""
    num, den = ref.asc(data["num"]), ref.asc(data["den"])
    return num[0] / den[0], num / num[0], den / den[0]


def check_reduced(data: dict, r: int, q: int, num, den) -> None:
    """Reduced model against the even/odd and matching references."""
    k, num_hat, den_hat = normalized(data)
    d_r = ref.reduced_den(den_hat, r)
    expect(len(den) == r + 1, f"reduced order {len(den) - 1} != {r}")
    expect(len(num) <= q + 1, f"reduced numerator order {len(num) - 1} > {q}")
    close(num[0] / den[0], k, 1e-12, "DC gain")
    expect(ref.rel_gap(den, d_r) <= 1e-6, f"reduced denominator (r={r})")
    n_r = ref.asc(num) / k
    expect(ref.matching_gap(num_hat, den_hat, d_r, n_r, q) <= 1e-6,
           f"matching conditions (r={r}, q={q})")


def check_infeasible(data: dict, r: int, q: int) -> None:
    """A q = 1 MatchInfeasible must agree with the sign of C1^2."""
    if q == 1:
        _, num_hat, den_hat = normalized(data)
        rhs = ref.q1_rhs(num_hat, den_hat, ref.reduced_den(den_hat, r))
        scale = max(abs(den_hat[2]), den_hat[1] ** 2)
        expect(rhs < 1e-9 * scale, f"MatchInfeasible with C1^2 = {rhs:.3e} >= 0")


def auto_adjust_curve(data: dict, n_r) -> dict[float, float]:
    """ISE of every stable candidate percent, on the package's grid rule.

    The full response uses the generator's own poles where it has them,
    so repeated poles are handled exactly.
    """
    k, _, den_hat = normalized(data)
    d_r = ref.reduced_den(den_hat, 2)
    poles_g = data.get("poles") or [(p, 1) for p in ref.roots(data["den"])]
    small_g, large_g = ref.time_constants([p for p, _ in poles_g])

    def y_full(t):
        return ref.step_samples(data["num"], data["den"], t, poles_g)

    curve = {}
    for n in AUTO_GRID:
        cand = ref.adjusted(d_r, float(n))
        poles_c = ref.roots(cand)
        if not np.all(poles_c.real < 0.0):
            continue
        dt = min(small_g, ref.time_constants(poles_c)[0]) / 20.0
        steps = int(round(5.0 * large_g / dt))
        curve[float(n)] = ref.ise_on_grid(
            y_full, lambda t, c=cand: ref.step_samples(n_r * k, c, t), dt, steps)
    return curve


def check_auto(data: dict, num, den, chosen_n, curve_for) -> None:
    """Auto-adjusted reduction: consistent model and the ISE minimizer."""
    k, num_hat, den_hat = normalized(data)
    d_r = ref.reduced_den(den_hat, 2)
    close(num[0] / den[0], k, 1e-12, "DC gain")
    n_r = ref.asc(num) / k
    expect(ref.matching_gap(num_hat, den_hat, d_r, n_r, 1) <= 1e-6,
           "matching condition")
    curve = curve_for(n_r)
    if chosen_n is None:
        expect(not curve, "no percent chosen although a candidate is stable")
        expect(ref.rel_gap(den, d_r) <= 1e-6, "unadjusted denominator")
        return
    expect(chosen_n in curve, f"chosen percent {chosen_n} is not a stable grid point")
    expect(ref.rel_gap(den, ref.adjusted(d_r, chosen_n)) <= 1e-6,
           "adjusted denominator")
    best = min(curve.values())
    expect(curve[chosen_n] <= best * (1.0 + 1e-6),
           f"percent {chosen_n} has ISE {curve[chosen_n]:.9g}, best {best:.9g}")


def sweep_reference(params: dict) -> list[tuple]:
    """(Kc, stable, metrics or None, dt) for each gain of the standard sweep."""
    c = ref.drive_constants(params)
    out = []
    for kc in np.linspace(*SWEEP):
        num, den = ref.closed_current_loop(c, float(kc))
        poles = ref.roots(den)
        if not np.all(poles.real < 0.0):
            out.append((float(kc), False, None, None))
            continue
        dt, steps = ref.default_grid(poles)
        metrics = ref.step_metrics_on_grid(
            lambda t: ref.step_samples(num, den, t), dt, steps)
        out.append((float(kc), True, metrics, dt))
    return out


def check_sweep_point(expected: tuple, kc, stable, metrics) -> None:
    close(kc, expected[0], 1e-12, "sweep gain")
    expect(stable == expected[1], f"stability at Kc = {kc}")
    if not stable:
        return
    _, _, want, dt = expected
    expect((metrics is None) == (want is None), f"settled flag at Kc = {kc}")
    if want is None:
        return
    overshoot, settling, rise, err = metrics
    expect(abs(overshoot - want[0]) <= 1e-4 + 1e-5 * want[0],
           f"overshoot at Kc = {kc}: {overshoot} against {want[0]}")
    expect(abs(settling - want[1]) <= 2.0 * dt, f"settling at Kc = {kc}")
    expect(abs(rise - want[2]) <= 1e-5 * want[2] + 1e-3 * dt, f"rise at Kc = {kc}")
    close(err, want[3], 1e-5, f"ISE at Kc = {kc}")


class Workload:
    """Seeded inputs, one timed operation and its gate."""

    name = ""
    op_text = ""

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.memo: dict = {}
        # Every workload derives the worked example in set-up.
        self.model = derive_model(MotorDriveParams(**WORKED_EXAMPLE))
        self.cases = self.make_cases()

    def make_cases(self) -> list[Case]:
        raise NotImplementedError

    def warm_up(self) -> None:
        self.run(self.cases[0])

    def remembered(self, key, compute):
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]

    def model_loop(self, kc: float | None = None) -> dict:
        """Coefficients of the worked example's design loop shape, or of
        its closed current loop at controller gain ``kc``."""
        g = (self.model.loop_gain_design if kc is None
             else closed_current_loop(self.model, kc))
        return {"num": list(g.num.coeffs), "den": list(g.den.coeffs)}


class ReduceFamily(Workload):
    name = "reduce_family"
    op_text = ("one op = reduce (no adjust) at every r < n and q in {0,1,2}, "
               "q < r, plus Bode of the full and each reduced model; "
               "n = 3..10, twice each")

    def make_cases(self):
        cases = [Case("bench_loop",
                      {"num": BENCH_LOOP[0], "den": BENCH_LOOP[1]}),
                 Case("design_loop", self.model_loop())]
        # Every seed has each degree twice, once in the lower and once in
        # the upper half of the spread range, so the work in a pass varies
        # little from seed to seed and a run holds about 15 passes.
        for i in range(16):
            spread = 10.0 ** (1.0 + 2.0 * stratum(self.rng, (i * 5) % 16, 16))
            cases.append(Case(f"system{i}",
                              random_system(self.rng, 3 + i % 8, spread, i % 3)))
        return cases

    def run(self, case):
        g = tf(case.data)
        w_min, w_max = bode_grid(case.data)
        out = [(None, None, None, bode(g, w_min, w_max))]
        for r in range(1, g.den.degree):
            for q in range(min(r, 3)):
                try:
                    res = reduce(g, ReductionConfig(target_order=r,
                                                    numerator_order=q))
                except MatchInfeasible as exc:
                    out.append((r, q, exc, None))
                    continue
                out.append((r, q, res, bode(res.reduced, w_min, w_max)))
        return out

    def check(self, case, out) -> int:
        data = case.data
        w_min, w_max = bode_grid(data)
        if case.key == "bench_loop":
            res = next(res for r, q, res, _ in out if (r, q) == (2, 1))
            expect(ref.rel_gap(res.reduced.den.coeffs, PUBLISHED_REDUCED_DEN)
                   <= 1e-9, "benchmark-loop reduced denominator")
            close(res.reduced.num.coeffs[1], PUBLISHED_SLOPE, 1e-9,
                  "benchmark-loop numerator slope")
        documented = 0
        for r, q, res, tr in out:
            if r is None:
                check_bode(tr.omega, tr.mag_db, tr.phase_deg, data["num"],
                           data["den"], w_min, w_max, 60)
            elif isinstance(res, MatchInfeasible):
                check_infeasible(data, r, q)
                documented += 1
            else:
                num, den = res.reduced.num.coeffs, res.reduced.den.coeffs
                check_reduced(data, r, q, num, den)
                check_bode(tr.omega, tr.mag_db, tr.phase_deg, num, den,
                           w_min, w_max, 60)
        return documented


class AdjustScan(Workload):
    name = "adjust_scan"
    op_text = ("one op = reduce(order 2, q = 1, adjust auto) of one system, "
               "or the closed-loop ISE comparison at Kc = 35.719; "
               "worked-example loops, fixed double and triple poles, "
               "seeded n = 3, 5, 6")

    def make_cases(self):
        kc_conv = ref.conventional_gains(ref.drive_constants(WORKED_EXAMPLE))[1]
        cases = [
            Case("design_loop", self.model_loop()),
            Case("closed_loop_conventional",
                 self.model_loop(kc_conv)),
            Case("closed_loop_published",
                 self.model_loop(PUBLISHED_KC_PAPER)),
            Case("closed_loop_ise",
                 self.model_loop(PUBLISHED_KC_PAPER)),
            # Fixed rather than seeded: whether the root finder happens to
            # converge on a seeded repeated pole varies from seed to seed,
            # and every run must count the same outcomes.
            Case("double_pole", system(*DOUBLE_POLE)),
            Case("triple_pole", system(*TRIPLE_POLE)),
        ]
        # A small seeded set, so that a run holds enough passes for each
        # input's best time to be steady.
        for i, degree in enumerate((3, 5, 6)):
            spread = 5.0 * 6.0 ** stratum(self.rng, i, 3)
            cases.append(Case(f"system{i}", random_system(
                self.rng, degree, spread, i % 2)))
        return cases

    def warm_up(self):
        """One coarse scan of the benchmark loop, the same for every seed."""
        reduce(tf({"num": BENCH_LOOP[0], "den": BENCH_LOOP[1]}),
               ReductionConfig(target_order=2, numerator_order=1,
                               adjust_mode="auto", auto_grid=(1.0, 15.0, 7.0)))

    def run(self, case):
        g = tf(case.data)
        if case.key == "closed_loop_ise":
            # The acceptance suite's benchmark comparison (criterion 7).
            red = reduce(g, ReductionConfig(target_order=2, numerator_order=1))
            ts = [characteristic_times(h) for h in (g, red.reduced)]
            dt = min(ts[0][0], ts[1][0]) / 20.0
            horizon = 5.0 * max(ts[0][1], ts[1][1])
            return red, dt, horizon, ise(step_response(g, t_final=horizon, dt=dt),
                                         step_response(red.reduced,
                                                       t_final=horizon, dt=dt))
        try:
            return reduce(g, ReductionConfig(target_order=2, numerator_order=1,
                                             adjust_mode="auto"))
        except MatchInfeasible as exc:
            return exc

    def check(self, case, out) -> int:
        data = case.data
        if case.key == "closed_loop_ise":
            red, dt, horizon, value = out
            close(value, PUBLISHED_CLOSED_LOOP_ISE, 1e-3, "closed-loop ISE")
            num, den = red.reduced.num.coeffs, red.reduced.den.coeffs
            check_reduced(data, 2, 1, num, den)
            want = self.remembered(case.key, lambda: ref.ise_on_grid(
                lambda t: ref.step_samples(data["num"], data["den"], t),
                lambda t: ref.step_samples(num, den, t),
                dt, int(round(horizon / dt))))
            close(value, want, 1e-5, "closed-loop ISE against exact samples")
            return 0
        if isinstance(out, MatchInfeasible):
            check_infeasible(data, 2, 1)
            return 1
        num, den = out.reduced.num.coeffs, out.reduced.den.coeffs
        check_auto(data, num, den, out.chosen_n, lambda n_r: self.remembered(
            (case.key, tuple(np.round(n_r, 12))),
            lambda: auto_adjust_curve(data, n_r)))
        return 0


class GainSweep(Workload):
    name = "gain_sweep"
    op_text = ("one op = derive_model + sweep_gain over Kc 3.1..50 in 15 steps; "
               "worked example and 5 seeded nameplate variants")

    def make_cases(self):
        cases = [Case("worked_example", dict(WORKED_EXAMPLE))]
        cases += [Case(f"variant{i}", nameplate_variant(self.rng))
                  for i in range(5)]
        for case in cases:  # the drive model must accept every variant
            derive_model(MotorDriveParams(**case.data))
        return cases

    def warm_up(self):
        sweep_gain(self.model, SWEEP[0], SWEEP[1], 2)

    def run(self, case):
        return sweep_gain(derive_model(MotorDriveParams(**case.data)), *SWEEP)

    def check(self, case, out) -> int:
        want = self.remembered(case.key, lambda: sweep_reference(case.data))
        expect(len(out) == len(want), "sweep length")
        for pt, exp in zip(out, want):
            metrics = None if pt.overshoot_pct is None else (
                pt.overshoot_pct, pt.settling_2pct_s, pt.rise_10_90_s,
                pt.ise_vs_reference)
            check_sweep_point(exp, pt.Kc, pt.stable, metrics)
        return 0


class CliWalkthrough(Workload):
    """The README walkthrough, one ``python -m mordrive`` command per op.

    The seed fixes the order of the commands in each pass; the input
    files are the README's.  ``in_process`` runs ``cli.main`` in this
    process instead, which the traced run needs to see inside.
    """

    name = "cli_walkthrough"
    op_text = ("one op = one mordrive CLI command in a fresh process "
               "(design x2, reduce x2, step of the full and Bode of the reduced "
               "model, sweep)")
    in_process = False

    def make_cases(self):
        w = self.workdir
        w.mkdir(parents=True, exist_ok=True)
        (w / "loop.json").write_text(json.dumps(
            {"num": BENCH_LOOP[0], "den": BENCH_LOOP[1]}))
        f = {name: str(w / name) for name in (
            "motor.json", "loop.json", "reduced.json", "conv.json", "mor.json",
            "reduced_none.json", "reduced_auto.json", "full_step.csv",
            "red_bode.csv", "sweep.csv")}
        self.files = f
        step = ["--t-final", "0.6", "--dt", "1e-4"]
        band = ["--w-min", "0.1", "--w-max", "1e4"]
        reduce_args = ["reduce", "--tf", f["loop.json"], "--order", "2",
                       "--numerator-order", "1", "--adjust"]
        commands = [
            ("design_conventional", ["design", "--motor", f["motor.json"], "--method",
                                     "conventional", "--report", f["conv.json"]]),
            ("design_mor", ["design", "--motor", f["motor.json"], "--method", "mor",
                            "--q", "1", "--report", f["mor.json"]]),
            ("reduce_none", reduce_args + ["none", "--out", f["reduced_none.json"]]),
            ("reduce_auto", reduce_args + ["auto", "--out", f["reduced_auto.json"]]),
            ("step_full", ["simulate", "step", "--tf", f["loop.json"], "--out",
                           f["full_step.csv"]] + step),
            ("bode_reduced", ["simulate", "bode", "--tf", f["reduced.json"], "--out",
                              f["red_bode.csv"]] + band),
            ("sweep", ["sweep", "--motor", f["motor.json"], "--kc-min", "3.1",
                       "--kc-max", "50", "--steps", "15", "--out", f["sweep.csv"]]),
        ]
        self.rng.shuffle(commands)
        return [Case(key, {"argv": argv}) for key, argv in commands]

    def warm_up(self):
        """Write motor.json and reduced.json the way the README does."""
        motor = self.command(["design", "--print-example"])
        expect(motor[0] == 0, "design --print-example exit code")
        expect({k: v for k, v in json.loads(motor[1]).items() if k in WORKED_EXAMPLE}
               == WORKED_EXAMPLE, "printed worked example")
        Path(self.files["motor.json"]).write_text(motor[1])
        red = self.command(["reduce", "--tf", self.files["loop.json"], "--order",
                            "2", "--numerator-order", "1", "--adjust", "none",
                            "--out", self.files["reduced.json"]])
        expect(red[0] == 0, "reduce exit code")

    def command(self, argv):
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            return code, out.getvalue()
        proc = subprocess.run([sys.executable, "-m", "mordrive", *argv],
                              capture_output=True, text=True, env=cli_env(),
                              timeout=120)
        return proc.returncode, proc.stdout

    def run(self, case):
        return self.command(case.data["argv"])[0]

    def check(self, case, code) -> int:
        f = self.files
        key = case.key
        c = ref.drive_constants(WORKED_EXAMPLE)
        if key == "design_mor":
            expect(code == 3, f"design --method mor exit code {code}, not 3")
            rep = json.loads(Path(f["mor.json"]).read_text())
            expect(rep["error"] == "NoRealGain", "design --method mor error")
            close(rep["discriminant"], PUBLISHED_DISCRIMINANT, 0.02, "discriminant")
            expect(any(abs(rep["discriminant"] - d) <= 1e-6 * abs(d)
                       for d in ref.damping_discriminants(c)),
                   "discriminant against the reference quadratic")
            return 1
        expect(code == 0, f"{key} exit code {code}, not 0")
        if key == "design_conventional":
            rep = json.loads(Path(f["conv.json"]).read_text())
            k, kc = ref.conventional_gains(c)
            close(rep["K"], PUBLISHED_K, 1e-3, "K")
            close(rep["Kc"], PUBLISHED_KC, 1e-3, "Kc")
            close(rep["K"], k, 1e-9, "K against the reference")
            close(rep["Kc"], kc, 1e-9, "Kc against the reference")
        elif key == "reduce_none":
            rep = json.loads(Path(f["reduced_none.json"]).read_text())
            expect(ref.rel_gap(rep["den"], PUBLISHED_REDUCED_DEN) <= 1e-9,
                   "reduced denominator")
            close(rep["num"][1] / rep["num"][0], PUBLISHED_SLOPE, 1e-9,
                  "numerator slope")
        elif key == "reduce_auto":
            rep = json.loads(Path(f["reduced_auto.json"]).read_text())
            data = {"num": BENCH_LOOP[0], "den": BENCH_LOOP[1]}
            check_auto(data, rep["num"], rep["den"],
                       rep["diagnostics"]["chosen_n"],
                       lambda n_r: self.remembered(
                           ("auto", tuple(np.round(n_r, 12))),
                           lambda: auto_adjust_curve(data, n_r)))
        elif key == "step_full":
            model = self.tf_file("loop.json")
            rows = read_csv(f["full_step.csv"])
            expect(len(rows) == 6001, "step sample count")
            t = np.array([r[0] for r in rows])
            expect(np.allclose(t, np.arange(6001) * 1e-4, rtol=1e-9, atol=1e-15),
                   "step time grid")
            want = ref.step_samples(model["num"], model["den"], t)
            expect(np.max(np.abs(np.array([r[1] for r in rows]) - want)) <= 1e-6,
                   "step samples")
        elif key == "bode_reduced":
            model = self.tf_file("reduced.json")
            rows = np.array(read_csv(f["red_bode.csv"]))
            check_bode(rows[:, 0], rows[:, 1], rows[:, 2], model["num"],
                       model["den"], 0.1, 1e4, 60)
        elif key == "sweep":
            rows = read_csv(f["sweep.csv"])
            want = self.remembered("sweep", lambda: sweep_reference(WORKED_EXAMPLE))
            expect(len(rows) == len(want), "sweep rows")
            for row, exp in zip(rows, want):
                metrics = None if row[1] is None else tuple(row[1:5])
                check_sweep_point(exp, row[0], row[5] == "true", metrics)
        return 0

    def tf_file(self, name: str) -> dict:
        data = json.loads(Path(self.files[name]).read_text())
        return {"num": data["num"], "den": data["den"]}


def read_csv(path: str) -> list[list]:
    """Data rows of a CLI CSV; empty fields read as None, words stay text."""
    def cell(text):
        if text == "":
            return None
        try:
            return float(text)
        except ValueError:
            return text
    lines = Path(path).read_text().splitlines()[1:]
    return [[cell(x) for x in line.split(",")] for line in lines]


def cli_env() -> dict:
    """Environment of a CLI subprocess: this checkout's package first."""
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    return env


WORKLOADS = {w.name: w for w in (ReduceFamily, AdjustScan, GainSweep, CliWalkthrough)}
