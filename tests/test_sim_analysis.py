import math
import tracemalloc

import numpy as np
import pytest

from mordrive.controller_design import closed_current_loop
from mordrive.errors import (
    GridMismatch,
    NotSettled,
    SimulationDiverged,
    ValidationError,
)
from mordrive.mor_engine import ReductionConfig, reduce
from mordrive.poly_tf import (Polynomial, TransferFunction, _horner, dc_gain,
                              poly_mul, poly_roots)
from mordrive import sim_analysis
from mordrive.sim_analysis import (
    MAX_STEP_SAMPLES,
    ResponseMetrics,
    StepTrace,
    _THETA16,
    _doubling_sum,
    _expm,
    _ladder,
    _propagate,
    _scaled_ccf,
    _step_exponential,
    _times_power,
    bode,
    characteristic_times,
    ise,
    response_metrics,
    step_ise,
    step_response,
)


def _lag(tau):
    return TransferFunction.from_coeffs([1.0], [1.0, tau])


class TestStepResponse:
    def test_first_order_analytic(self):
        tr = step_response(_lag(1.0), t_final=1.0, dt=1e-3)
        assert tr.y[-1] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-6)

    def test_pure_gain(self):
        g = TransferFunction.from_coeffs([2.0], [1.0])
        tr = step_response(g, t_final=1.0, dt=0.01)
        assert np.all(tr.y == 2.0)

    def test_overdamped_quadratic_has_no_overshoot(self):
        # poles of the quadratic are real (zeta > 1), so the analytic
        # overshoot is zero
        g = TransferFunction.from_coeffs([1.0], [1.0, 0.12988, 0.00241749])
        roots = poly_roots(g.den)
        assert all(abs(r.imag) < 1e-9 for r in roots)
        _, tc_large = characteristic_times(g)
        tr = step_response(g, t_final=10.0 * tc_large)
        m = response_metrics(tr)
        assert m.final_value == pytest.approx(1.0, rel=5e-3, abs=0.0)
        assert m.overshoot_pct <= 0.1

    def test_underdamped_overshoot_oracle(self):
        wn, zeta = 10.0, 0.707
        g = TransferFunction.from_coeffs(
            [1.0], [1.0, 2.0 * zeta / wn, 1.0 / wn**2])
        tr = step_response(g, t_final=3.0, dt=1e-4)
        m = response_metrics(tr)
        want = 100.0 * math.exp(-math.pi * zeta / math.sqrt(1.0 - zeta**2))
        assert m.overshoot_pct == pytest.approx(want, abs=0.5)

    def test_grid_uniform_and_starts_at_zero(self):
        tr = step_response(_lag(0.5), t_final=2.0, dt=1e-3)
        assert tr.t[0] == 0.0
        assert len(tr.t) == len(tr.y)
        diffs = np.diff(tr.t)
        assert np.all(np.abs(diffs - tr.dt) <= 1e-12)

    def test_defaults_from_poles(self):
        g = _lag(2.0)
        tr = step_response(g)
        assert tr.dt == pytest.approx(2.0 / 20.0)
        assert tr.t[-1] == pytest.approx(5.0 * 2.0, rel=1e-6, abs=0.0)

    def test_static_system_needs_explicit_grid(self):
        g = TransferFunction.from_coeffs([2.0], [1.0])
        with pytest.raises(ValidationError):
            step_response(g)

    def test_integrator_needs_explicit_grid(self):
        g = TransferFunction.from_coeffs([1.0], [0.0, 1.0])
        with pytest.raises(ValidationError):
            step_response(g)
        # with one, 1/s ramps as t and 1/(s(s+1)) as t - 1 + e^-t
        tr = step_response(g, t_final=10.0, dt=0.01)
        assert np.max(np.abs(tr.y - tr.t)) <= 1e-12 * tr.t[-1]
        g = TransferFunction.from_coeffs([1.0], [0.0, 1.0, 1.0])
        tr = step_response(g, t_final=10.0, dt=0.01)
        want = tr.t - 1.0 + np.exp(-tr.t)
        assert np.max(np.abs(tr.y - want)) <= 1e-12 * want[-1]

    def test_matches_exact_samples(self, model):
        # the closed current loop at three gains, whose reference takes
        # double-precision poles, and the simple-pole kernel systems,
        # whose reference takes the poles they were built from
        cases = [(g, poly_roots(g.den)) for g in
                 (closed_current_loop(model, kc) for kc in (3.1, 35.719, 50.0))]
        cases += [(_from_poles(poles, num), poles) for poles, num in _KERNEL_SPECS
                  if len(set(poles)) == len(poles)]
        traces = [step_response(g) for g, _ in cases]
        for (g, poles), tr in zip(cases, traces):
            want = _exact_step(g.num.coeffs, [(p, 1) for p in poles],
                               g.den.coeffs[-1], tr.t)
            assert np.max(np.abs(tr.y - want)) <= 1e-9 * np.max(np.abs(want))
        mpmath = pytest.importorskip("mpmath")
        for (g, _), tr in zip(cases, traces):
            idx = np.unique(np.geomspace(1, len(tr.t), 40).astype(int) - 1)
            want = _mp_step(mpmath, g, tr.t[idx])
            assert np.max(np.abs(tr.y[idx] - want)) <= 1e-12 * np.max(np.abs(want))

    def test_long_horizon_does_not_drift(self):
        # the whole step budget at a fine dt: an error in the constant row
        # of the propagated exponential would grow linearly with k
        tr = step_response(_lag(1.0), t_final=20.0, dt=1e-5)
        assert len(tr.y) == MAX_STEP_SAMPLES + 1
        want = -np.expm1(-tr.t)
        assert np.max(np.abs(tr.y - want)) <= 5e-11 * np.max(np.abs(tr.y))

    def test_divergence_detected(self):
        for den in ([1.0, -1.0],
                    [2.0, -2.0, 1.0],  # growing oscillation, poles 1 +- 1j
                    [2.0, 1.0, -3.0, 1.0]):  # real poles -0.62, 1.62 and 2
            g = TransferFunction.from_coeffs([1.0], den)
            with pytest.raises(SimulationDiverged):
                step_response(g, t_final=1000.0, dt=0.05)

    def test_short_horizon_rejected(self):
        with pytest.raises(ValidationError):
            step_response(_lag(1.0), t_final=0.005, dt=1e-3)

    def test_zero_step_rejected(self):
        with pytest.raises(ValidationError, match="dt must be positive"):
            step_response(_lag(1.0), t_final=1.0, dt=0.0)

    def test_linearity_property(self):
        rng = np.random.default_rng(2718)
        for _ in range(15):
            tau = float(rng.uniform(0.05, 2.0))
            alpha = float(rng.uniform(0.2, 5.0))
            g = _lag(tau)
            ga = TransferFunction(g.num.scaled(alpha), g.den)
            a = step_response(g, t_final=5.0 * tau, dt=tau / 25.0)
            b = step_response(ga, t_final=5.0 * tau, dt=tau / 25.0)
            scale = np.max(np.abs(b.y))
            assert np.all(np.abs(alpha * a.y - b.y) <= 1e-12 * scale)

    def test_final_value_matches_dc_gain_property(self):
        rng = np.random.default_rng(1864)
        for _ in range(25):
            deg = int(rng.integers(1, 5))
            den = Polynomial([1.0])
            for tau in 1.0 / 10.0 ** rng.uniform(-0.5, 1.5, size=deg):
                den = poly_mul(den, Polynomial([1.0, float(tau)]))
            g = TransferFunction(Polynomial([float(rng.uniform(0.3, 4.0))]), den)
            _, tc_large = characteristic_times(g)
            tr = step_response(g, t_final=10.0 * tc_large)
            m = response_metrics(tr)
            assert m.final_value == pytest.approx(dc_gain(g), rel=5e-3, abs=0.0)

    def test_direct_feedthrough(self):
        g = TransferFunction.from_coeffs([1.0, 1.0], [1.0, 0.5])
        tr = step_response(g, t_final=6.0, dt=1e-3)
        assert tr.y[0] == pytest.approx(2.0)  # b1/a1 at t = 0+
        assert tr.y[-1] == pytest.approx(1.0, rel=1e-4, abs=0.0)


def _per_step_reference(g, n_steps, dt):
    """x+ = M x + v one step at a time, as y = c x + d, with M and v the
    blocks of e^([[A, b], [0, 0]] dt) on the pole-scaled realization,
    scaled by the same poles ``step_response`` takes, ``g.den.roots``."""
    a, b, c, d = _scaled_ccf(np.array(g.num.coeffs), np.array(g.den.coeffs),
                             g.den.roots)
    n = len(b)
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n], aug[:n, n] = a, b
    e = _expm(aug * dt)
    m, v = e[:n, :n], e[:n, n]
    x = np.zeros(n)
    y = [d]
    for _ in range(n_steps):
        x = m @ x + v
        y.append(c @ x + d)
    return np.array(y)


def _per_step_states(e, n_steps, block):
    """E^k e_last at k = 0, B, 2B, ... <= n_steps for B = ``block``, from
    x+ = M x + v one step at a time, in Python floats, for a 3 x 3
    augmented exponential E = [[M, v], [0, 1]]."""
    (m00, m01, v0), (m10, m11, v1), _ = e.tolist()
    x0 = x1 = 0.0
    out = []
    for _ in range(n_steps // block + 1):
        out.append((x0, x1, 1.0))
        for _ in range(block):
            x0, x1 = m00 * x0 + m01 * x1 + v0, m10 * x0 + m11 * x1 + v1
    return np.array(out)


def _from_poles(poles, num=(1.0,)):
    den = np.real(np.poly(poles))[::-1]
    return TransferFunction.from_coeffs(list(num), den / den[0])


# (poles, ascending numerator)
_KERNEL_SPECS = (
    [([-(k + 1.0) for k in range(n)], (1.0,)) for n in range(1, 13)]
    + [([-(1.5 ** k) for k in range(n)], (1.0, 0.3)) for n in range(1, 13)]
    + [([-1.0, -1.0, -1.0, -8.0], (1.0, 0.5)),  # repeated pole
       ([-1 + 5j, -1 - 5j, -2, -0.5 + 1j, -0.5 - 1j], (1.0,))]
)
_KERNEL_SYSTEMS = [_from_poles(poles, num) for poles, num in _KERNEL_SPECS]


class TestBlockPropagation:
    def test_exponential_last_row_is_exact(self):
        # every power of the augmented matrix has a zero last row, so the
        # Taylor polynomial and its squarings leave E's last row exactly
        # (0, ..., 0, 1); at dt = 100 tc_small each matrix is squared
        for g in _KERNEL_SYSTEMS:
            n = g.den.degree
            dts = np.array([1e-4, 0.05, 1.0, 100.0]) * characteristic_times(g)[0]
            args = [np.array([v] * len(dts)) for v in
                    (g.num.coeffs, g.den.coeffs, g.den.roots)]
            a = _scaled_ccf(*args)[0][-1] * dts[-1]
            assert np.abs(a).sum(axis=0).max() > 2.0 * _THETA16
            e, _ = _step_exponential(*args, dts)
            assert np.isfinite(e).all()
            assert (e[:, n, :n] == 0.0).all() and (e[:, n, n] == 1.0).all()

    # 32^2, 32^2 + 1, primes, counts the block size does not divide, and
    # 4095..4097, where n_steps + 1 crosses 64^2 and the block size doubles
    @pytest.mark.parametrize("n_steps", [10, 11, 1024, 1025, 997, 1000, 10007,
                                         4095, 4096, 4097])
    def test_matches_per_step_recurrence(self, n_steps):
        for g in _KERNEL_SYSTEMS:
            dt = characteristic_times(g)[0] / 20.0
            got = step_response(g, t_final=n_steps * dt, dt=dt).y
            want = _per_step_reference(g, n_steps, dt)
            assert got.shape == want.shape
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale

    @pytest.mark.parametrize("n_steps", [1, 2, 7, 511, 1000, 4097])
    def test_stack_is_each_row_alone(self, model, n_steps):
        # closures of one loop share a degree; a 2 x 3 stack has two
        # leading axes
        gs = [closed_current_loop(model, kc)
              for kc in (1.0, 3.1, 20.0, 35.719, 300.0, 3000.0)]
        e, c = _step_exponential(
            np.array([g.num.coeffs for g in gs]),
            np.array([g.den.coeffs for g in gs]),
            np.array([g.den.roots for g in gs]),
            np.array([characteristic_times(g)[0] / 20.0 for g in gs]))
        ladder = _ladder(e, n_steps + 1)
        for shape in ((6,), (2, 3)):
            got = _propagate([step.reshape(shape + step.shape[1:])
                              for step in ladder],
                             c.reshape(shape + c.shape[1:]), n_steps)
            assert got.shape == shape + (n_steps + 1,)
            for i, row in enumerate(got.reshape(6, n_steps + 1)):
                alone = _propagate([step[i] for step in ladder], c[i], n_steps)
                assert row.tobytes() == alone.tobytes()

    # n_blocks = n_steps // B + 1 is 1 at one step, a power of two at 2
    # and at 4095 (B = 64, 64 blocks), one past one at 4096 and 4097 (B =
    # 128, 33 blocks), and the starts' doubling reaches 2^8 blocks at
    # 139,469 (B = 512) and 2^9 at 2,000,000 (B = 2048)
    @pytest.mark.parametrize("n_steps", [1, 2, 10, 11, 4095, 4096, 4097,
                                         139_469, 2_000_000])
    def test_block_starts_match_per_step_states(self, monkeypatch, n_steps):
        # a lightly damped pair keeps the state moving for about 25,000
        # steps, and decays enough per step for the recurrence to hold
        # its rounding near 1e-13 of the scale
        g = _from_poles([-0.05 + 2j, -0.05 - 2j])
        dt = characteristic_times(g)[0] / 20.0
        e, c = _step_exponential(np.array([g.num.coeffs]),
                                 np.array([g.den.coeffs]),
                                 np.array([g.den.roots]), np.array([dt]))

        def no_call(*args):
            raise AssertionError("_factors called _propagate")

        monkeypatch.setattr(sim_analysis, "_propagate", no_call)
        starts, rows = sim_analysis._factors(_ladder(e[0], n_steps + 1),
                                             c[0], np.int64(n_steps))
        block = len(rows)
        assert len(starts) == n_steps // block + 1
        want = _per_step_states(e[0], n_steps, block)
        assert starts.shape == want.shape
        scale = np.max(np.abs(want))
        assert np.max(np.abs(starts - want)) <= 1e-12 * scale

    def test_no_start_past_the_last_block(self):
        # 1 / (s - 1) at dt = 0.5 over 709 s: B = 64 and 23 blocks, the
        # last starting at e^704.  Starts doubled on to 32 blocks would
        # reach e^992 and overflow; capped at 23, no product does.
        g = TransferFunction.from_coeffs([1.0], [-1.0, 1.0])
        e, c = _step_exponential(np.array([g.num.coeffs]),
                                 np.array([g.den.coeffs]),
                                 np.array([g.den.roots]), np.array([0.5]))
        with np.errstate(over="raise", invalid="raise"):
            starts, rows = sim_analysis._factors(_ladder(e[0], 1419), c[0],
                                                 1418)
        assert (len(starts), len(rows)) == (23, 64)
        assert starts[-1, 0] == pytest.approx(math.exp(704.0) - 1.0,
                                              rel=1e-9, abs=0.0)

    # d is the output weight of the propagated constant 1, so take
    # systems with d != 0
    @pytest.mark.parametrize("n_steps", [10, 11, 1025, 10007])
    def test_biproper_offset_row(self, n_steps):
        for g in _BIPROPER_SYSTEMS:
            assert g.num.degree == g.den.degree
            dt = characteristic_times(g)[0] / 20.0
            got = step_response(g, t_final=n_steps * dt, dt=dt).y
            want = _per_step_reference(g, n_steps, dt)
            assert got.shape == want.shape
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale


# biproper (num degree = den degree): lead-lag, lag-lead, a repeated
# pole and a lightly damped pair, degree 1 to 5
_BIPROPER_SYSTEMS = [
    _from_poles([-10.0], (1.0, 0.5)),
    _from_poles([-1.0, -3.0], (2.0, -0.5, 0.25)),
    _from_poles([-1.0, -1.0, -1.0, -8.0], (1.0, 0.5, 0.3, 0.2, 0.05)),
    _from_poles([-1 + 5j, -1 - 5j, -2, -0.5 + 1j, -0.5 - 1j],
                (1.0, 0.4, 0.3, 0.2, 0.1, 0.02)),
]


def _exact_step(num, poles, lead, t):
    """Unit-step response of num(s) / (lead * prod (s - p)^m) at times t.

    ``poles`` lists (pole, multiplicity); the partial fractions of
    num / (s den) come from one linear solve on polynomial coefficients.
    """
    groups = list(poles) + [(0.0, 1)]
    deg = sum(m for _, m in groups)
    cols, terms = [], []
    for p, m in groups:
        for k in range(1, m + 1):
            rest = [q for q, mq in groups if q != p for _ in range(mq)]
            col = np.poly(np.array(rest + [p] * (m - k), dtype=complex))
            cols.append(np.concatenate([np.zeros(deg - len(col)), col]))
            terms.append((p, k))
    rhs = np.zeros(deg, dtype=complex)
    rhs[deg - len(num):] = np.asarray(num, dtype=float)[::-1] / lead
    h = np.linalg.solve(np.array(cols).T, rhs)
    y = np.zeros(t.shape, dtype=complex)
    for (p, k), hk in zip(terms, h):
        y += hk * t ** (k - 1) / math.factorial(k - 1) * np.exp(p * t)
    return y.real


def _mp_step(mpmath, g, t):
    """Unit-step response of g at times t from 40-digit partial fractions
    over the simple poles of its denominator, as stored in binary."""
    with mpmath.workdps(40):
        num = [mpmath.mpf(x) for x in g.num.coeffs]
        den = [mpmath.mpf(x) for x in g.den.coeffs]
        slope = [k * x for k, x in enumerate(den)][1:]
        poles = mpmath.polyroots(den[::-1], maxsteps=200, extraprec=200)
        terms = [(mpmath.polyval(num[::-1], p)
                  / (p * mpmath.polyval(slope[::-1], p)), p) for p in poles]
        return np.array([float(mpmath.re(num[0] / den[0] + mpmath.fsum(
            r * mpmath.exp(p * mpmath.mpf(ti)) for r, p in terms)))
            for ti in t])


def _fine_trapezoid(t_fast, t_final):
    """Geometric grid: step about 1e-4 of t, so fast and slow modes are
    both resolved, from 1e-4 of the fastest time constant to t_final."""
    return np.concatenate([[0.0], np.geomspace(1e-4 * t_fast, t_final, 200_001)])


def _hurwitz_family(rng, deg, spread):
    """(pole, 1) pairs: real poles and damped pairs, magnitudes 1..spread."""
    mags = np.geomspace(1.0, spread, deg) * rng.uniform(0.9, 1.1, deg)
    poles, i = [], 0
    while i < deg:
        if i + 1 < deg and rng.random() < 0.4:
            zeta = rng.uniform(0.2, 0.9)
            w = mags[i] * complex(-zeta, math.sqrt(1.0 - zeta * zeta))
            poles += [(w, 1), (w.conjugate(), 1)]
            i += 2
        else:
            poles.append((-mags[i], 1))
            i += 1
    return poles


_ISE_SYSTEMS = (
    [("(s+1)^3 (s+8)", [(-1.0, 3), (-8.0, 1)], (1.0, 0.5)),
     ("(1+2s)^2 (1+0.5s) (1+0.1s)", [(-0.5, 2), (-2.0, 1), (-10.0, 1)],
      (1.0, 0.2)),
     ("spread 5e4", [(-1.0, 1), (-3.0, 1), (-5e4, 1)], (1.0, 0.2))]
    + [(f"degree {deg}, spread {spread:g}",
        _hurwitz_family(np.random.default_rng(100 + deg), deg, spread),
        (2.0, 0.3))
       for deg, spread in zip(range(3, 13),
                              (5, 100, 3000, 3e4, 5, 100, 3000, 3e4, 100, 3e4))]
)


class TestStepIse:
    @pytest.mark.parametrize("name,poles,num", _ISE_SYSTEMS,
                             ids=[name for name, _, _ in _ISE_SYSTEMS])
    def test_matches_fine_trapezoid_of_exact_samples(self, name, poles, num):
        roots = np.array([p for p, m in poles for _ in range(m)], dtype=complex)
        den = np.real(np.poly(roots))[::-1]
        lead = den[-1] / den[0]
        g = TransferFunction.from_coeffs(list(num), list(den / den[0]))
        tc_small, tc_large = characteristic_times(g)
        horizon = 5.0 * tc_large
        d_r = reduce(g, ReductionConfig(target_order=2, numerator_order=0)).reduced.den
        base = np.array(d_r.coeffs)
        # percent-adjusted candidates, a stiffer one and one whose DC
        # gain differs from the full model's
        dens = np.array([base * [1.0, 1.0 + n / 100.0, 1.0 - n / 100.0]
                         for n in (1.0, 7.0, 15.0)]
                        + [base * [1.0, 1.0, 1e-3], base * [1.25, 1.0, 1.0]])
        cand_num = (num[0], 0.5 * base[1])
        got = step_ise(g, cand_num, dens)
        t = _fine_trapezoid(tc_small, horizon)
        y_g = _exact_step(num, poles, lead, t)
        tol = 1e-6 if len(roots) <= 10 else 1e-5
        for value, d in zip(got, dens):
            cand_poles = [(p, 1) for p in np.roots(d[::-1])]
            err = y_g - _exact_step(cand_num, cand_poles, d[-1], t)
            want = np.trapezoid(err * err, t)
            assert abs(value - want) <= tol * want, (name, d)

    def test_unstable_candidate_scores_nan(self, bench_loop):
        # unstable rows, then rows whose roots cannot be found: a NaN or
        # inf coefficient, and a companion form that overflows
        stable = [1.0, 0.13, 0.0024]
        dens = np.array([stable, [1.0, -0.13, 0.0024], [1.0, 0.0, 0.0024],
                         [1.0, np.nan, 0.0024], [1.0, 0.13, np.inf],
                         [1.0, 1e308, 1e-308]])
        got = step_ise(bench_loop, (1.0, 0.03), dens)
        alone = step_ise(bench_loop, (1.0, 0.03), np.array([stable]))
        assert np.isnan(got[1:]).all()
        # the infinite leading coefficient fails in the kernel, not as
        # zero roots that read as unstable
        failures = sim_analysis._roots_of_rows(dens)[1]
        assert [why is None for why in failures] == [True] * 3 + [False] * 3
        assert got[0] == pytest.approx(alone[0], rel=1e-12, abs=0.0)

    def test_doubling_sum_matches_term_by_term_sum(self):
        rng = np.random.default_rng(12)
        e = 0.3 * rng.normal(size=(3, 4, 4))
        w = rng.normal(size=(3, 4, 4))
        want, term = np.zeros_like(w), w
        for count in range(1, 70):
            want += term
            term = e.swapaxes(-1, -2) @ term @ e
            got = _doubling_sum(w, _ladder(e, count), np.array([count]))
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_mixed_counts_match_single_row_calls(self):
        # one count per row, bits shared by every row or by some, and a
        # row count of 1 whose total begins at the lowest bit; in the
        # second set every row sets bit 0 and none sets bit 3, and the
        # powers to count - 1 take a row of power 0 and a bit 0 no row sets
        rng = np.random.default_rng(1515)
        e = 0.3 * rng.normal(size=(6, 5, 5))
        w = rng.normal(size=(6, 5, 5))
        v = rng.normal(size=(6, 1, 5))
        for counts in ([1, 2, 7, 64, 1000, 1023], [1, 3, 7, 65, 993, 1015]):
            counts = np.array(counts)
            ladder = _ladder(e, int(counts.max()))
            sums = _doubling_sum(w, ladder, counts)
            for i, count in enumerate(counts.tolist()):
                alone = _ladder(e[i:i + 1], count)
                want = _doubling_sum(w[i:i + 1], alone, np.array([count]))
                assert sums[i].tobytes() == want[0].tobytes()
            for powers_of in (counts, counts - 1):
                powers = _times_power(v, ladder, powers_of)
                for i, count in enumerate(powers_of.tolist()):
                    alone = _ladder(e[i:i + 1], max(count, 1))
                    want = _times_power(v[i:i + 1], alone, np.array([count]))
                    assert powers[i].tobytes() == want[0].tobytes()

    def test_stacked_walks_are_separate_calls(self):
        # two sums or powers stacked on a (2, m) count array, as the sweep
        # walks its power rows and its sums; the halves' top bits differ
        # (9 and 5), either way round, every count sets bit 0, none sets
        # bit 3, and the second half's counts share every bit
        rng = np.random.default_rng(2121)
        e = 0.3 * rng.normal(size=(6, 5, 5))
        w = rng.normal(size=(2, 6, 5, 5))
        v = rng.normal(size=(2, 6, 1, 5))
        for counts in ([[1, 3, 7, 65, 993, 1015], [37] * 6],
                       [[37] * 6, [1, 3, 7, 65, 993, 1015]]):
            counts = np.array(counts)
            ladder = _ladder(e, int(counts.max()))
            sums = _doubling_sum(w, ladder, counts)
            powers = _times_power(v, ladder, counts)
            for h in range(2):
                want = _doubling_sum(w[h], ladder, counts[h])
                assert sums[h].tobytes() == want.tobytes()
                want = _times_power(v[h], ladder, counts[h])
                assert powers[h].tobytes() == want.tobytes()

    def test_kernels_match_scipy(self):
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(31)
        for n in (1, 2, 3, 5, 8, 12):
            scale = np.geomspace(1e-3, 1e3, 6)[:, None, None]
            a = (rng.normal(size=(6, n, n)) - (2.0 + math.sqrt(n)) * np.eye(n)) * scale
            got = _expm(a)
            for i in range(len(a)):
                want = linalg.expm(a[i])
                assert np.allclose(got[i], want, rtol=1e-10,
                                   atol=1e-12 * np.abs(want).max())
        # step_ise against the finite-horizon Lyapunov formula on plain
        # companion forms: random stable g and candidates, double poles
        # among both
        for poles_g in ([(-1.0, 2), (-3.0, 1)], _hurwitz_family(rng, 1, 1.0),
                        _hurwitz_family(rng, 4, 30.0),
                        _hurwitz_family(rng, 7, 300.0)):
            den_g = _real_poly(poles_g)
            num_g = rng.uniform(0.5, 2.0, size=2)
            dens = np.array([_real_poly([(-1.5, 2)])]
                            + [_real_poly(_hurwitz_family(rng, 2, 5.0))
                               for _ in range(4)])
            num = rng.uniform(0.5, 2.0, size=3)
            g = TransferFunction.from_coeffs(list(num_g), list(den_g))
            t_final = 5.0 * characteristic_times(g)[1]
            got = step_ise(g, num, dens)
            for value, den in zip(got, dens):
                want = _lyapunov_ise(linalg, num_g, den_g, num, den, t_final)
                assert value == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_expm_matches_scipy_on_van_loan_stacks(self, bench_loop,
                                                    monkeypatch):
        # the stacks step_ise builds in auto scans: the benchmark loop
        # and a degree-6 model, 12 and 18 square, 1-norms about 10 to 12
        linalg = pytest.importorskip("scipy.linalg")
        stacks = []
        expm = sim_analysis._expm

        def recording(a):
            stacks.append(a)
            return expm(a)

        monkeypatch.setattr(sim_analysis, "_expm", recording)
        cfg = ReductionConfig(target_order=2, numerator_order=1,
                              adjust_mode="auto")
        for g in (bench_loop, _from_poles([-1.0, -2.0, -3.5, -5.0, -9.0, -20.0],
                                          (1.0, 0.3))):
            assert reduce(g, cfg).chosen_n is not None
        assert [a.shape for a in stacks] == [(29, 12, 12), (29, 18, 18)]
        for a in stacks:
            got = expm(a)
            for i in range(len(a)):
                want = linalg.expm(a[i])
                assert np.allclose(got[i], want, rtol=1e-10,
                                   atol=1e-12 * np.abs(want).max())

    def test_expm_stack_is_each_matrix_alone(self, monkeypatch):
        # 1-norms just under and over theta_16 2^3: a stack whose matrices
        # all take 3 squarings squares whole, with no select; one whose
        # counts run from 0 to 5 selects at every squaring past the least.
        # Either way each matrix is its one-matrix call bit for bit.
        rng = np.random.default_rng(3303)
        unit = rng.normal(size=(6, 5, 5)) - 3.0 * np.eye(5)
        unit /= np.abs(unit).sum(axis=-2).max(axis=-1)[:, None, None]
        edge = _THETA16 * 2.0 ** 3
        where = np.where
        selects = []
        for norms, want_selects in ((np.linspace(0.55, 0.999, 6), 0),
                                    ([0.999, 1.001, 0.3, 2.1, 1.0, 0.05], 5)):
            stack = unit * (edge * np.asarray(norms))[:, None, None]
            selects.clear()
            monkeypatch.setattr(np, "where",
                                lambda *args: selects.append(1) or where(*args))
            got = _expm(stack)
            monkeypatch.undo()
            assert len(selects) == want_selects
            for i in range(len(stack)):
                assert got[i].tobytes() == _expm(stack[i]).tobytes()
                assert got[i].tobytes() == _expm(stack[i:i + 1])[0].tobytes()

    def test_scaled_ccf_superdiagonal(self):
        def reference(den, poles):
            """``_scaled_ccf``'s A, its superdiagonal set index by index."""
            n = den.shape[-1] - 1
            a = np.zeros(den.shape[:-1] + (n, n))
            for i in range(n - 1):
                a[..., i, i + 1] = 1.0
            a[..., n - 1:, :] = -(den[..., :-1] / den[..., -1:])[..., None, :]
            mags = np.sort(np.abs(poles), axis=-1)
            scale = np.ones(mags.shape)
            np.cumprod(np.where(mags == 0.0, 1.0, mags)[..., :-1], axis=-1,
                       out=scale[..., 1:])
            return a * scale[..., None, :] / scale[..., :, None]

        rng = np.random.default_rng(3304)
        for n in (0, 1, 2, 7):
            for lead in ((), (3, 2)):
                den = rng.uniform(0.5, 2.0, size=lead + (n + 1,))
                num = rng.uniform(0.5, 2.0, size=lead + (min(n, 2) + 1,))
                poles = (rng.normal(size=lead + (n,))
                         + 1j * rng.normal(size=lead + (n,))) * 10.0
                if n:
                    poles[..., 0] = 0.0  # a zero magnitude scales as 1
                a = _scaled_ccf(num, den, poles)[0]
                assert a.shape == lead + (n, n)
                assert a.tobytes() == reference(den, poles).tobytes()

    def test_theta16_is_the_unit_roundoff_bound(self):
        # Al-Mohy & Higham (2011): the largest theta with sum over k > 16
        # of |c_k| theta^(k - 1) <= 2^-53, c_k the series coefficients of
        # log(e^-x T_16(x)); the series is cut at x^80
        mpmath = pytest.importorskip("mpmath")
        m, terms = 16, 80
        with mpmath.workdps(80):
            # e^-x T_16(x) = 1 + sum over k > 16 of f_k x^k
            f = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (terms - 1)
            for k in range(m + 1, terms):
                f[k] = mpmath.fsum((-1) ** (k - j) / (mpmath.factorial(k - j)
                                                      * mpmath.factorial(j))
                                   for j in range(m + 1))
            c = [mpmath.mpf(0)] * terms
            for k in range(1, terms):  # k c_k = k f_k - sum j c_j f_(k-j)
                c[k] = f[k] - mpmath.fsum(j * c[j] * f[k - j]
                                          for j in range(1, k)) / k
            lo, hi = mpmath.mpf(0), mpmath.mpf(2)
            for _ in range(80):
                mid = (lo + hi) / 2
                bound = mpmath.fsum(abs(c[k]) * mid ** (k - 1)
                                    for k in range(m + 1, terms))
                lo, hi = (mid, hi) if bound <= mpmath.mpf(2) ** -53 else (lo, mid)
            assert math.isclose(_THETA16, float(lo), rel_tol=1e-15)


def _select_doubling_sum(w, ladder, count):
    """The doubling sum with W and the total each taking its own product
    pair and the total chosen by np.where, the form whose bits the
    stacked pair keeps."""
    total, masks = np.zeros_like(w), sim_analysis._rung_masks(count)
    for j, mask in enumerate(masks):
        e, et = ladder[j], ladder[j].swapaxes(-1, -2)
        if mask is not None:
            total = np.where(mask, w + et @ total @ e, total)
        if j + 1 < len(masks):
            w = w + et @ w @ e
    return total


def _select_times_power(v, ladder, count):
    """The power walk with the rows chosen by np.where at each rung."""
    for j, mask in enumerate(sim_analysis._rung_masks(count)):
        if mask is not None:
            v = np.where(mask, v @ ladder[j], v)
    return v


class TestLadderWalks:
    """The in-place walks take the same products, bit for bit, as the
    forms that select new arrays."""

    # a count of 1 whose total starts at the lowest rung; counts that
    # share every bit; a top bit (9) set by one row only; all counts 1;
    # and (2, 6) counts over an extra leading axis, whose halves' top
    # bits differ
    @pytest.mark.parametrize("counts", [
        [1, 2, 7, 64, 100, 255],
        [37] * 6,
        [1, 5, 9, 30, 60, 1000],
        [1] * 6,
        [[1, 3, 7, 65, 993, 1015], [37] * 6],
        [[37] * 6, [1, 2, 4, 8, 16, 1]],
    ], ids=["count 1", "all equal", "top bit one row", "all ones",
            "leading axis", "leading axis, low top bit"])
    def test_walks_match_select_forms(self, counts):
        rng = np.random.default_rng(3636)
        counts = np.array(counts)
        e = 0.3 * rng.normal(size=(6, 5, 5))
        w = rng.normal(size=counts.shape + (5, 5))
        v = rng.normal(size=counts.shape + (1, 5))
        w_in, v_in = w.copy(), v.copy()
        ladder = _ladder(e, int(counts.max()))
        got = _doubling_sum(w, ladder, counts)
        assert got.tobytes() == _select_doubling_sum(w, ladder,
                                                     counts).tobytes()
        for powers_of in (counts, counts - 1):
            got = _times_power(v, ladder, powers_of)
            want = _select_times_power(v, ladder, powers_of)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        # the walks update their own buffers, never their inputs
        assert w.tobytes() == w_in.tobytes() and v.tobytes() == v_in.tobytes()

    @pytest.mark.parametrize("passing", ["all", "some"])
    def test_whole_stack_heads_are_a_subset_bit_for_bit(self, model,
                                                        passing):
        # four loops at one head width, measured as the whole stack and
        # again as four of five rows, the fifth taking no window; with
        # "some", the third row's peak misses its ceiling
        gs = [closed_current_loop(model, kc)
              for kc in (3.1, 20.0, 35.719, 50.0, 10.0)]
        e, c = _step_exponential(
            np.array([g.num.coeffs for g in gs]),
            np.array([g.den.coeffs for g in gs]),
            np.array([g.den.roots for g in gs]),
            np.array([characteristic_times(g)[0] / 20.0 for g in gs]))
        dts = np.array([characteristic_times(g)[0] / 20.0 for g in gs])
        ladder = _ladder(e, 512)
        ceiling = np.full(5, -np.inf)
        if passing == "some":
            ceiling[2] = np.inf
        whole = sim_analysis._certified_heads(
            [step[:4] for step in ladder], c[:4], np.full(4, 512),
            ceiling[:4], dts[:4], np.ones(4))
        subset = sim_analysis._certified_heads(
            ladder, c, np.array([512] * 4 + [0]), ceiling, dts, np.ones(5))
        assert sorted(whole) == sorted(subset) == (
            [0, 1, 2, 3] if passing == "all" else [0, 1, 3])
        for i in whole:
            assert ([x.hex() for x in whole[i]]
                    == [x.hex() for x in subset[i]])


def _real_poly(poles):
    """Ascending real coefficients of prod (s - p)^m over (pole, m) pairs."""
    roots = np.array([p for p, m in poles for _ in range(m)], dtype=complex)
    return np.real(np.poly(roots))[::-1]


def _companion(num, den):
    """(A, b, c, d) of num/den in plain controllable canonical form."""
    num, den = np.asarray(num) / den[-1], np.asarray(den) / den[-1]
    n = len(den) - 1
    beta = np.zeros(n + 1)
    beta[:len(num)] = num
    a = np.eye(n, k=1)
    a[-1] = -den[:-1]
    return a, np.eye(n)[-1], beta[:n] - beta[n] * den[:-1], beta[n]


def _lyapunov_ise(linalg, num_g, den_g, num_i, den_i, t_final):
    """ISE of the step error of two systems over [0, T] in closed form.

    Each step response is its final value plus c e^(At) x0 with x0 =
    A^-1 b, so on the block-diagonal error system the error is delta +
    C e^(At) x0 and its integral is x0^T (P - e^(A^T T) P e^(AT)) x0 +
    2 delta C A^-1 (e^(AT) - I) x0 + delta^2 T, where A^T P + P A =
    -C^T C.
    """
    a_g, b_g, c_g, d_g = _companion(num_g, den_g)
    a_i, b_i, c_i, d_i = _companion(num_i, den_i)
    a = linalg.block_diag(a_g, a_i)
    c = np.concatenate([c_g, -c_i])
    x0 = np.linalg.solve(a, np.concatenate([b_g, b_i]))
    delta = d_g - d_i - c @ x0
    p = linalg.solve_continuous_lyapunov(a.T, -np.outer(c, c))
    e = linalg.expm(a * t_final)
    xt = e @ x0
    return (x0 @ p @ x0 - xt @ p @ xt
            + 2.0 * delta * c @ np.linalg.solve(a, xt - x0)
            + delta * delta * t_final)


class TestBode:
    def test_first_order_corner(self):
        tr = bode(_lag(1.0), 0.01, 100.0, 60)
        idx = int(np.argmin(np.abs(tr.omega - 1.0)))
        assert tr.mag_db[idx] == pytest.approx(-3.0103, abs=0.01)
        assert tr.phase_deg[idx] == pytest.approx(-45.0, abs=0.01)

    def test_constant_gain_flat(self):
        g = TransferFunction.from_coeffs([2.0], [1.0])
        tr = bode(g, 0.1, 1000.0, 30)
        assert np.all(np.abs(tr.mag_db - 20.0 * math.log10(2.0)) < 1e-9)
        assert np.all(np.abs(tr.phase_deg) < 1e-9)

    def test_band_fidelity_of_benchmark_reduction(self, bench_loop):
        red = reduce(bench_loop,
                     ReductionConfig(target_order=2, numerator_order=1))
        full = bode(bench_loop, 0.1, 48.0, 60)
        low = bode(red.reduced, 0.1, 48.0, 60)
        dmag = np.abs(full.mag_db - low.mag_db)
        assert np.max(dmag) <= 3.0
        assert dmag[0] <= 0.05

    def test_dc_limit(self):
        g = _lag(1.0)  # slowest pole at 1 rad/s
        tr = bode(g, 0.01, 1.0, 20)
        assert abs(tr.mag_db[0] - 20.0 * math.log10(dc_gain(g))) <= 0.05

    def test_grid_count(self):
        tr = bode(_lag(1.0), 0.1, 1000.0, 10)
        assert len(tr.omega) == 41
        assert np.all(np.diff(tr.omega) > 0)

    def test_pole_on_axis_flagged(self):
        g = TransferFunction.from_coeffs([1.0], [1.0, 0.0, 1.0])
        tr = bode(g, 0.5, 2.0, 200)
        assert tr.contains_nonfinite or np.max(tr.mag_db) > 100.0

    def test_phase_unwrapped(self, bench_loop):
        tr = bode(bench_loop, 0.1, 1e4, 60)
        assert np.all(np.abs(np.diff(tr.phase_deg)) < 180.0)

    def test_range_validated(self):
        with pytest.raises(ValidationError):
            bode(_lag(1.0), 10.0, 1.0, 60)

    def test_zero_points_per_decade_rejected(self):
        with pytest.raises(ValidationError, match="points_per_decade"):
            bode(_lag(1.0), 0.1, 10.0, 0)

    def test_zero_decade_band_refused(self):
        # two floats one ulp apart whose log10 values are the same float
        lo, hi = 1e300, 1.0000000000000002e300
        assert lo < hi and math.log10(lo) == math.log10(hi)
        with pytest.raises(ValidationError, match="--w-min / --w-max"):
            bode(_lag(1.0), lo, hi, 60)

    def test_grid_is_logspace_bit_for_bit(self):
        rng = np.random.default_rng(35)
        bands = [(10.0 ** e, 10.0 ** (e + w), int(ppd)) for e, w, ppd in zip(
            rng.uniform(-8.0, 6.0, 40), rng.uniform(0.01, 9.0, 40),
            rng.integers(1, 300, 40))]
        above_one_ulp = 1e300
        while math.log10(above_one_ulp) == 300.0:
            above_one_ulp = np.nextafter(above_one_ulp, math.inf)
        bands += [
            (1.0, 3.0, 1),                          # n = 2
            (1.0, np.nextafter(1.0, 2.0), 60),      # one ulp wide, n = 2
            (1e300, float(above_one_ulp), 60),      # one log10 ulp, n = 2
            (1e-300, 1e300, 60),                    # 36,001 points
            (1.0, 10.0, 32_768),                    # 32,769: two blocks
            (0.01, 100.0, 16_384),                  # 65,537: three blocks
        ]
        counts = []
        for lo, hi, ppd in bands:
            omega = bode(_lag(1.0), lo, hi, ppd).omega
            want = 10.0 ** np.linspace(math.log10(lo), math.log10(hi),
                                       len(omega))
            assert omega.tobytes() == want.tobytes()
            counts.append(len(omega))
        assert counts[-6:] == [2, 2, 2, 36_001, 32_769, 65_537]

    def test_matches_the_numpy_reference(self):
        rng = np.random.default_rng(1979)
        models = []
        for deg in (5, 7, 9, 12):
            # lags and right-half-plane zeros, for several phase wraps
            poles = -(10.0 ** rng.uniform(-1.0, 2.0, size=deg))
            zeros = 10.0 ** rng.uniform(-1.0, 2.0, size=2)
            models.append(TransferFunction.from_coeffs(
                np.real(np.poly(zeros))[::-1], np.real(np.poly(poles))[::-1]))
        models.append(TransferFunction.from_coeffs([1.0], [1.0, 0.0, 1.0]))
        for g in models:
            tr = bode(g, 0.01, 1e4, 40)
            omega = np.logspace(-2.0, 4.0, 241)
            s = 1j * omega[None, :]
            with np.errstate(divide="ignore", invalid="ignore"):
                resp = (_horner(np.array([g.num.coeffs]), s)
                        / _horner(np.array([g.den.coeffs]), s))[0]
                mag = 20.0 * np.log10(np.abs(resp))
                phase = np.degrees(np.unwrap(np.angle(resp)))
            assert tr.omega.tobytes() == omega.tobytes()
            assert tr.mag_db.tobytes() == mag.tobytes()
            finite = np.isfinite(phase)
            assert np.array_equal(np.isfinite(tr.phase_deg), finite)
            assert np.max(np.abs(tr.phase_deg - phase)[finite]) <= 1e-9
            flagged = not (np.isfinite(mag).all() and finite.all())
            assert tr.contains_nonfinite == flagged
            if g.den.degree > 2:
                assert (np.abs(np.diff(np.angle(resp))) > np.pi).sum() >= 2
            else:  # the pole on the axis sits on the grid
                assert flagged

    # Blocks of 2 and 7 points put wraps and the pole on the axis on and
    # next to block edges; 161 points in blocks of 2 and 65,537 in blocks
    # of 32,768 leave one point to the last block.
    @pytest.mark.parametrize("block, ppd",
                             [(2, 40), (7, 40), (32_768, 65_536)])
    def test_blocks_equal_one_pass(self, monkeypatch, block, ppd):
        monkeypatch.setattr(sim_analysis, "_BODE_BLOCK", block)
        rng = np.random.default_rng(30)
        poles = -(10.0 ** rng.uniform(-1.0, 2.0, size=9))
        zeros = 10.0 ** rng.uniform(-1.0, 2.0, size=2)
        for g in (TransferFunction.from_coeffs(np.real(np.poly(zeros))[::-1],
                                               np.real(np.poly(poles))[::-1]),
                  TransferFunction.from_coeffs([1.0], [1.0, 0.0, 1.0])):
            tr = bode(g, 0.01, 1e2, ppd)
            want = _one_pass_bode(g, tr.omega)
            assert len(tr.omega) == 4 * ppd + 1
            assert tr.mag_db.tobytes() == want[0].tobytes()
            assert tr.phase_deg.tobytes() == want[1].tobytes()


def _one_pass_bode(g, omega):
    """(mag_db, phase_deg) of ``bode`` formed over the whole grid at once,
    the unwrap's turns summed by one cumsum."""
    s = 1j * omega[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        resp = (_horner(np.array([g.num.coeffs]), s)
                / _horner(np.array([g.den.coeffs]), s))[0]
        phase = np.angle(resp)
        turns = np.rint(np.diff(phase) / (2.0 * np.pi))
        phase[1:] -= 2.0 * np.pi * np.cumsum(turns)
        return 20.0 * np.log10(np.abs(resp)), np.degrees(phase)


class TestIse:
    def test_identity_is_exactly_zero(self):
        tr = step_response(_lag(1.0), t_final=5.0, dt=1e-3)
        assert ise(tr, tr) == 0.0

    def test_two_lags_analytic(self):
        a = step_response(_lag(1.0), t_final=40.0, dt=1e-3)
        b = step_response(_lag(2.0), t_final=40.0, dt=1e-3)
        assert ise(a, b) == pytest.approx(1.0 / 6.0, abs=1e-3)

    def test_symmetry(self):
        a = step_response(_lag(1.0), t_final=10.0, dt=1e-3)
        b = step_response(_lag(0.5), t_final=10.0, dt=1e-3)
        assert ise(a, b) == ise(b, a)

    def test_grid_mismatch(self):
        a = step_response(_lag(1.0), t_final=10.0, dt=1e-3)
        b = step_response(_lag(1.0), t_final=10.0, dt=2e-3)
        with pytest.raises(GridMismatch):
            ise(a, b)

    def test_grid_mismatch_same_length_or_same_dt(self):
        a = step_response(_lag(1.0), t_final=10.0, dt=1e-3)
        other_dt = step_response(_lag(1.0), t_final=20.0, dt=2e-3)
        other_len = step_response(_lag(1.0), t_final=11.0, dt=1e-3)
        assert len(other_dt.y) == len(a.y) and other_len.dt == a.dt
        for b in (other_dt, other_len):
            with pytest.raises(GridMismatch):
                ise(a, b)
            with pytest.raises(GridMismatch):
                ise(b, a)

    def test_dt_halving_convergence(self):
        vals = []
        for dt in (2e-3, 1e-3):
            a = step_response(_lag(1.0), t_final=40.0, dt=dt)
            b = step_response(_lag(2.0), t_final=40.0, dt=dt)
            vals.append(ise(a, b))
        assert abs(vals[1] - vals[0]) / vals[1] < 1e-3

    # The 4096-sample chunks' edges, the closed-loop comparison's 139,470
    # samples and the step budget, where B = 2048; at the last two the
    # last chunk holds one block.
    @pytest.mark.parametrize("n_steps", [11, 4095, 4096, 4097, 139_469,
                                         MAX_STEP_SAMPLES])
    def test_streamed_equals_whole_trace(self, bench_loop, n_steps):
        dt = 0.55 / n_steps
        a = step_response(bench_loop, t_final=n_steps * dt, dt=dt)
        b = step_response(_lag(0.02), t_final=n_steps * dt, dt=dt)
        got = (ise(a, b), ise(b, a), ise(a, 1.0))
        assert got == (_whole_trace_ise(a, b), _whole_trace_ise(b, a),
                       _whole_trace_ise(a, 1.0))

    def test_one_block_last_chunk_rounds_as_y(self):
        # 161 blocks of 256 samples, 16 to a chunk, and a growing trace
        # whose end dominates the sum: the last block formed alone, a
        # one-row product NumPy hands to gemv, moves this ISE by one ulp.
        c = -0.09925512199683927
        g = TransferFunction.from_coeffs([c], [c, 0.012080382629025943, 1.0])
        t_final = 993.9392057020868
        tr = step_response(g, t_final=t_final, dt=t_final / 40_961)
        assert (len(tr.starts), len(tr.rows)) == (161, 256)
        assert ise(tr, 0.0) == _whole_trace_ise(tr, 0.0)

    def test_streams_without_forming_samples(self, model):
        # the closed-loop comparison of the acceptance suite's criterion 7
        g = closed_current_loop(model, 35.719)
        red = reduce(g, ReductionConfig(target_order=2, numerator_order=1))
        times = [characteristic_times(h) for h in (g, red.reduced)]
        dt = min(times[0][0], times[1][0]) / 20.0
        horizon = 5.0 * max(times[0][1], times[1][1])
        tracemalloc.start()
        try:
            a = step_response(g, t_final=horizon, dt=dt)
            value = ise(a, step_response(red.reduced, t_final=horizon, dt=dt))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 139_470 * 8 / 4  # a quarter of one sample array
        assert a.n_samples == 139_470
        assert value == pytest.approx(0.01535, rel=1e-3, abs=0.0)


class TestResponseMetrics:
    def test_monotone_first_order(self):
        tr = step_response(_lag(1.0), t_final=10.0, dt=1e-3)
        m = response_metrics(tr)
        # the tail mean sits a hair under the last sample, so "zero"
        # overshoot shows up as < 0.01%
        assert m.overshoot_pct <= 0.01
        assert m.rise_10_90_s == pytest.approx(math.log(9.0), rel=1e-3, abs=0.0)

    def test_settling_time_of_underdamped(self):
        wn, zeta = 10.0, 0.5
        g = TransferFunction.from_coeffs(
            [1.0], [1.0, 2.0 * zeta / wn, 1.0 / wn**2])
        tr = step_response(g, t_final=4.0, dt=1e-4)
        m = response_metrics(tr)
        assert 0.0 < m.settling_2pct_s < 4.0
        after = tr.y[tr.t > m.settling_2pct_s]
        assert np.all(np.abs(after - m.final_value) <= 0.02 * m.final_value + 1e-12)

    def test_diverging_trace_rejected(self):
        g = TransferFunction.from_coeffs([1.0], [1.0, -1.0])
        tr = step_response(g, t_final=20.0, dt=1e-3)
        with pytest.raises(NotSettled):
            response_metrics(tr)

    @pytest.mark.parametrize("case", ["monotone lag", "underdamped loop",
                                      "peak at the end", "high start"])
    def test_matches_full_array_formulation(self, model, case):
        g, t_final, dt = {
            "monotone lag": (_lag(1.0), 10.0, 1e-3),
            "underdamped loop": (closed_current_loop(model, 35.719), None, None),
            # overdamped, still rising at the last sample
            "peak at the end": (_from_poles([-1.0, -5.0]), 8.0, 1e-3),
            # y[0] = 0.3 >= 0.1 final, so the 10% crossing is at t = 0
            "high start": (TransferFunction.from_coeffs([1.0, 0.3], [1.0, 1.0]),
                           8.0, 1e-3),
        }[case]
        tr = step_response(g, t_final=t_final, dt=dt)
        want = _full_array_metrics(tr)
        assert response_metrics(tr) == want
        ipeak = int(np.argmax(tr.y))
        if case == "underdamped loop":
            assert want.overshoot_pct > 1.0 and ipeak < len(tr.y) // 10
        if case == "peak at the end":
            assert ipeak == len(tr.y) - 1
        if case == "high start":
            assert 0.1 * want.final_value <= tr.y[0] < 0.9 * want.final_value
        old_ise = _constant_trace_ise(tr, 1.0)
        assert abs(ise(tr, 1.0) - old_ise) <= 1e-15 * old_ise

    def test_stacked_heads_are_single_row_calls(self):
        # rows of one block, each with its own dt and final: an
        # underdamped head, one whose first sample is at or above 0.1
        # final, one in band from sample 0, and a monotone head whose
        # peak is its last sample
        k = np.arange(400)
        heads = np.array([1.0 - np.exp(-0.02 * k) * np.cos(0.05 * k),
                          1.0 - 0.8 * np.exp(-0.03 * k),
                          1.0 + 0.015 * np.exp(-0.01 * k) * np.cos(0.2 * k),
                          1.0 - np.exp(-0.01 * k)])
        dt = np.array([1e-3, 2e-4, 0.5, 3.0])
        final = np.array([1.0, 1.01, 0.999, 0.99])
        got = sim_analysis._metrics_from_head(heads, dt, final)
        for i, m in enumerate(got):
            [alone] = sim_analysis._metrics_from_head(
                heads[i:i + 1], dt[i:i + 1], final[i:i + 1])
            assert [x.hex() for x in m] == [x.hex() for x in alone]
        assert heads[1, 0] >= 0.1 * final[1] and got[1].rise_10_90_s > 0.0
        assert got[2].settling_2pct_s == got[2].rise_10_90_s == 0.0
        assert heads[3].argmax() == len(k) - 1 and got[3].overshoot_pct == 0.0
        assert got[0].overshoot_pct > 0.0

    def test_not_settled_like_full_array_formulation(self):
        for g, t_final in ((TransferFunction.from_coeffs([-1.0], [1.0, 1.0]), 10.0),
                           (_lag(1.0), 0.2),
                           (TransferFunction.from_coeffs([1.0], [1.0, -1.0]), 20.0)):
            tr = step_response(g, t_final=t_final, dt=1e-3)
            with pytest.raises(NotSettled):
                _full_array_metrics(tr)
            with pytest.raises(NotSettled):
                response_metrics(tr)

    def test_constant_reference_trace(self):
        tr = step_response(_lag(1.0), t_final=10.0, dt=1e-2)
        # a unit static gain holds the level 1.0 on the same grid
        ref = step_response(TransferFunction.from_coeffs([1.0], [1.0]),
                            t_final=10.0, dt=1e-2)
        assert np.all(ref.y == 1.0)
        assert ise(ref, 1.0) == 0.0
        assert ise(tr, 1.0) == ise(tr, ref)


def _full_array_metrics(tr):
    """``response_metrics`` as formulated over whole arrays and a stored
    time grid: the reference the fewer-pass version must equal."""
    y = tr.y
    t = np.arange(len(y)) * tr.dt
    k = max(1, int(round(0.05 * len(y))))
    final = float(np.mean(y[-k:]))
    if final <= 0.0:
        raise NotSettled("final value is not positive; metrics undefined")
    band = 0.02 * abs(final)
    if np.any(np.abs(y[-k:] - final) > band):
        raise NotSettled("trace has not settled within its horizon")
    peak = float(np.max(y))
    overshoot = max(0.0, (peak - final) / final * 100.0)
    outside = np.flatnonzero(np.abs(y - final) > band)
    settling = float(t[outside[-1] + 1]) if outside.size else 0.0

    def crossing(level):
        idx = int(np.argmax(y >= level))
        if y[0] >= level:
            return 0.0
        y0, y1 = y[idx - 1], y[idx]
        frac = (level - y0) / (y1 - y0)
        return float(t[idx - 1] + frac * tr.dt)

    rise = crossing(0.9 * final) - crossing(0.1 * final)
    return ResponseMetrics(overshoot, settling, rise, final)


def _whole_trace_ise(a, b):
    """``ise`` over whole ``y`` arrays, the squares summed by ``np.dot``
    in the 4096-sample chunks the streamed version takes."""
    d = a.y - (b.y if isinstance(b, StepTrace) else b)
    total = 0.0
    for i in range(0, len(d), 4096):
        total += np.dot(d[i:i + 4096], d[i:i + 4096])
    return float(a.dt * (total - (d[0] * d[0] + d[-1] * d[-1]) / 2.0))


def _constant_trace_ise(tr, level):
    """ISE against a constant level as a whole trace of that level."""
    d = tr.y - np.full_like(tr.y, level)
    d *= d
    return float(tr.dt * (d.sum() - (d[0] + d[-1]) / 2.0))


class TestStepTraceRobustness:
    def test_diverging_to_minus_infinity(self):
        g = TransferFunction.from_coeffs([-1.0], [1.0, -1.0])
        with pytest.raises(SimulationDiverged):
            step_response(g, t_final=1000.0, dt=0.05)

    def test_nan_samples(self):
        # poles 0.5 +- 0.87j: the samples overflow, and inf - inf is NaN
        g = TransferFunction.from_coeffs([1.0], [1.0, -1.0, 1.0])
        e, c = _step_exponential(np.array([g.num.coeffs]),
                                 np.array([g.den.coeffs]),
                                 np.array([g.den.roots]), np.array([0.01]))
        with np.errstate(over="ignore", invalid="ignore"):
            y = _propagate(_ladder(e[0], 500_001), c[0], 500_000)
        assert np.isnan(y).any()
        with pytest.raises(SimulationDiverged):
            step_response(g, t_final=5000.0, dt=0.01)

    def test_samples_are_one_product_of_the_factors(self):
        # 1 / (s - 1) at dt = 0.5: B = 64, and the starts reach e^704
        g = TransferFunction.from_coeffs([1.0], [-1.0, 1.0])
        tr = step_response(g, t_final=100.0, dt=0.5)
        e, c = _step_exponential(np.array([g.num.coeffs]),
                                 np.array([g.den.coeffs]),
                                 np.array([g.den.roots]), np.array([0.5]))
        want = _propagate(_ladder(e[0], 201), c[0], 200)
        assert tr.n_samples == len(tr.y) == 201
        assert tr.y.tobytes() == want.tobytes()
        assert tr.y is tr.y  # formed once, then kept

    @pytest.mark.parametrize("t_final, diverges", [(712.0, True),
                                                   (709.0, False)])
    def test_finite_factors_that_may_overflow(self, monkeypatch, t_final,
                                              diverges):
        # 1 / (s - 1), y = e^t - 1, at dt = 0.5: the last block starts at
        # e^704 and its rows reach e^31.5, so the factors are finite but
        # their bound trips, and the samples are formed and checked.  At
        # t = 712 the last ones overflow; at 709 they stay below 2^1023.
        g = TransferFunction.from_coeffs([1.0], [-1.0, 1.0])
        checked = []
        check = sim_analysis._check_finite
        monkeypatch.setattr(sim_analysis, "_check_finite",
                            lambda y: checked.append(y) or check(y))
        if diverges:
            with pytest.raises(SimulationDiverged):
                step_response(g, t_final=t_final, dt=0.5)
            assert len(checked) == 1 and not np.isfinite(checked[0][-1])
        else:
            tr = step_response(g, t_final=t_final, dt=0.5)
            assert len(checked) == 1 and checked[0] is tr.y
            assert np.isfinite(tr.starts).all() and np.isfinite(tr.rows).all()
            assert tr.y[-1] == pytest.approx(math.exp(709.0), rel=1e-9,
                                             abs=0.0)
            assert ise(tr, tr) == 0.0

    def test_time_grid_is_index_times_dt(self, model):
        for tr in (step_response(_lag(0.5), t_final=2.0, dt=1e-3),
                   step_response(closed_current_loop(model, 35.719))):
            grid = np.arange(len(tr.y)) * tr.dt
            assert tr.t.dtype == grid.dtype
            assert tr.t.tobytes() == grid.tobytes()
            assert tr.t is tr.t  # built once, then kept


class TestCharacteristicTimes:
    def test_single_lag(self):
        small, large = characteristic_times(_lag(2.0))
        assert small == pytest.approx(2.0)
        assert large == pytest.approx(2.0)

    def test_spread(self, bench_loop):
        small, large = characteristic_times(bench_loop)
        assert small == pytest.approx(0.00138, rel=1e-3, abs=0.0)
        assert large == pytest.approx(0.1077, rel=1e-3, abs=0.0)

    def test_static_rejected(self):
        with pytest.raises(ValidationError):
            characteristic_times(TransferFunction.from_coeffs([1.0], [2.0]))

    def test_unstable_rejected(self):
        with pytest.raises(ValidationError):
            characteristic_times(TransferFunction.from_coeffs([1.0], [-1.0, 1.0]))
