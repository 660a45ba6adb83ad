import warnings

import numpy as np
import pytest

from mordrive import mor_engine, sim_analysis
from mordrive.errors import (
    BadOrder,
    MatchInfeasible,
    NotFactorable,
    Unsupported,
    ValidationError,
    ZeroConstantTerm,
)
from mordrive.mor_engine import (
    RESIDUAL_GRID,
    ReductionConfig,
    adjust_denominator,
    match_numerator,
    matched_condition_pairs,
    reduce,
    reduce_denominator,
    residual_epsilon,
)
from mordrive.poly_tf import (
    Polynomial,
    TransferFunction,
    dc_gain,
    is_stable,
    poly_mul,
)
from mordrive.sim_analysis import ise, step_response


def _random_stable_den(rng, deg, lo=-1.0, hi=3.0):
    """Product of first-order lags with poles log-uniform in [10^lo, 10^hi]."""
    d = Polynomial([1.0])
    for tau in 1.0 / 10.0 ** rng.uniform(lo, hi, size=deg):
        d = poly_mul(d, Polynomial([1.0, float(tau)]))
    return d


class TestReduceDenominator:
    def test_benchmark_cubic_to_second_order(self, bench_den):
        out = reduce_denominator(bench_den, 2)
        expected = [1.0, 0.12988, 0.00241749]
        assert out.degree == 2
        for got, want in zip(out.coeffs, expected):
            assert got == pytest.approx(want, rel=1e-10)

    def test_double_root_to_first_order(self):
        out = reduce_denominator(Polynomial([1.0, 2.0, 1.0]), 1)
        assert out.coeffs == (1.0, 2.0)

    def test_order_equal_to_degree_rejected(self, bench_den):
        with pytest.raises(BadOrder):
            reduce_denominator(bench_den, bench_den.degree)

    def test_order_zero_rejected(self, bench_den):
        with pytest.raises(BadOrder):
            reduce_denominator(bench_den, 0)

    def test_constant_term_preserved(self):
        rng = np.random.default_rng(5150)
        for _ in range(40):
            d = _random_stable_den(rng, int(rng.integers(3, 7)))
            if d.degree < 3:
                continue
            for r in range(1, d.degree):
                out = reduce_denominator(d, r)
                assert out.degree == r
                assert out.coeffs[0] == d.coeffs[0]


class TestAdjustDenominator:
    def test_ten_percent(self):
        out = adjust_denominator(Polynomial([1.0, 0.12988, 0.00241749]), 10.0)
        assert out.coeffs[0] == 1.0
        assert out.coeffs[1] == pytest.approx(0.142868, rel=1e-12)
        assert out.coeffs[2] == pytest.approx(0.00217574, rel=1e-5)

    def test_one_percent(self):
        out = adjust_denominator(Polynomial([1.0, 0.12988, 0.00241749]), 1.0)
        assert out.coeffs[1] == pytest.approx(0.1311788, rel=1e-12)
        assert out.coeffs[2] == pytest.approx(0.0023933151, rel=1e-12)

    def test_zero_percent_rejected(self):
        with pytest.raises(ValidationError):
            adjust_denominator(Polynomial([1.0, 1.0, 1.0]), 0.0)

    def test_low_degree_rejected(self):
        with pytest.raises(BadOrder):
            adjust_denominator(Polynomial([1.0, 1.0]), 5.0)


class TestMatchNumerator:
    def test_benchmark_first_order(self, bench_loop, bench_den):
        d_r = reduce_denominator(bench_den, 2)
        out = match_numerator(bench_loop, d_r, 1)
        assert out.coeff(1) == pytest.approx(0.03, abs=1e-4)
        pairs = matched_condition_pairs(bench_loop, d_r, out, 1)
        for lv, mv in pairs:
            assert abs(lv - mv) <= 1e-9 * (1.0 + abs(lv))

    def test_constant_numerator(self, bench_loop, bench_den):
        d_r = reduce_denominator(bench_den, 2)
        assert match_numerator(bench_loop, d_r, 0).coeffs == (1.0,)

    def test_symmetric_case_forces_zero(self):
        # unit numerator with a reduced denominator sharing the s and s^2
        # coefficients: the first condition collapses to C1^2 = 0
        den = Polynomial([1.0])
        for tau in (1.0, 0.5, 0.1):
            den = poly_mul(den, Polynomial([1.0, tau]))
        g = TransferFunction(Polynomial([1.0]), den)
        d_r = Polynomial(den.coeffs[:3])
        out = match_numerator(g, d_r, 1)
        assert out.coeff(1) == 0.0

    def test_infeasible_reports_discriminant(self, bench_loop):
        # an s^2 coefficient far above the original's makes C1^2 negative
        d_bad = Polynomial([1.0, 0.12988, 0.02])
        with pytest.raises(MatchInfeasible) as err:
            match_numerator(bench_loop, d_bad, 1)
        assert err.value.discriminant is not None
        assert err.value.discriminant < 0.0

    def test_second_order_numerator(self):
        den = Polynomial([1.0])
        for tau in (0.5, 0.05, 0.01, 0.002):
            den = poly_mul(den, Polynomial([1.0, tau]))
        g = TransferFunction(Polynomial([1.0, 0.7]), den)
        d_r = reduce_denominator(den, 3)
        out = match_numerator(g, d_r, 2)
        assert out.degree == 2
        assert out.coeff(1) == pytest.approx(0.7034, abs=2e-3)
        pairs = matched_condition_pairs(g, d_r, out, 2)
        for lv, mv in pairs:
            assert abs(lv - mv) <= 1e-9 * (1.0 + abs(lv))

    def test_orders_above_two_unsupported(self, bench_loop, bench_den):
        d_r = reduce_denominator(bench_den, 2)
        with pytest.raises((Unsupported, BadOrder)):
            match_numerator(bench_loop, d_r, 3)

    def test_sign_follows_original(self, bench_loop, bench_den):
        d_r = reduce_denominator(bench_den, 2)
        out = match_numerator(bench_loop, d_r, 1)
        assert out.coeff(1) > 0.0  # original numerator slope is positive


class TestReducePipeline:
    def test_benchmark_reduction(self, bench_loop):
        res = reduce(bench_loop, ReductionConfig(target_order=2, numerator_order=1))
        assert res.reduced.den.coeffs[1] == pytest.approx(0.12988, rel=1e-10)
        assert res.reduced.den.coeffs[2] == pytest.approx(0.00241749, rel=1e-10)
        assert res.reduced.num.coeff(1) == pytest.approx(0.03, abs=1e-4)
        assert res.chosen_n is None
        assert dc_gain(res.reduced) == dc_gain(bench_loop)

    def test_identity_reduction_zero_ise(self):
        # second-order system reduced to its own order reproduces itself
        g = TransferFunction(Polynomial([1.0, 0.25]), Polynomial([1.0, 2.0, 0.5]))
        res = reduce(g, ReductionConfig(target_order=2, numerator_order=1))
        assert res.reduced.num.coeffs == g.num.coeffs
        assert res.reduced.den.coeffs == g.den.coeffs
        a = step_response(g, t_final=10.0, dt=1e-3)
        b = step_response(res.reduced, t_final=10.0, dt=1e-3)
        assert ise(a, b) == 0.0

    def test_unstable_input_rejected(self):
        g = TransferFunction(Polynomial([1.0]), Polynomial([1.0, -1.0]))
        with pytest.raises((NotFactorable, BadOrder)):
            reduce(g, ReductionConfig(target_order=1, numerator_order=0))
        g3 = TransferFunction(
            Polynomial([1.0]),
            poly_mul(poly_mul(Polynomial([1.0, -1.0]), Polynomial([1.0, 0.5])),
                     Polynomial([1.0, 0.1])))
        with pytest.raises(NotFactorable):
            reduce(g3, ReductionConfig(target_order=2))

    def test_pole_at_origin_rejected(self):
        g = TransferFunction(Polynomial([1.0]), Polynomial([0.0, 1.0, 1.0]))
        with pytest.raises(ZeroConstantTerm):
            reduce(g, ReductionConfig(target_order=1, numerator_order=0))

    def test_zero_dc_numerator_rejected(self):
        g = TransferFunction(Polynomial([0.0, 1.0]),
                             Polynomial([1.0, 2.0, 1.0, 0.1]))
        with pytest.raises(ZeroConstantTerm):
            reduce(g, ReductionConfig(target_order=2))

    def test_deterministic_bitwise(self, bench_loop):
        cfg = ReductionConfig(target_order=2, numerator_order=1)
        r1 = reduce(bench_loop, cfg)
        r2 = reduce(bench_loop, cfg)
        assert r1.reduced.num.coeffs == r2.reduced.num.coeffs
        assert r1.reduced.den.coeffs == r2.reduced.den.coeffs
        assert r1.residual_epsilon == r2.residual_epsilon
        assert r1.matched_conditions == r2.matched_conditions

    def test_fixed_adjustment_applied(self, bench_loop):
        cfg = ReductionConfig(target_order=2, numerator_order=1,
                              adjust_mode="fixed", adjust_percent=10.0)
        res = reduce(bench_loop, cfg)
        assert res.chosen_n == 10.0
        assert res.reduced.den.coeffs[1] == pytest.approx(0.142868, rel=1e-10)
        assert dc_gain(res.reduced) == dc_gain(bench_loop)

    def test_auto_adjustment_scans_grid(self, bench_loop):
        cfg = ReductionConfig(target_order=2, numerator_order=1,
                              adjust_mode="auto", auto_grid=(1.0, 5.0, 1.0))
        res = reduce(bench_loop, cfg)
        assert res.chosen_n in (1.0, 2.0, 3.0, 4.0, 5.0)
        assert res.warnings == ()
        assert is_stable(res.reduced.den)

    def test_auto_scan_builds_full_model_once_without_stepping(
            self, bench_loop, monkeypatch):
        steps = []
        built = []
        scaled_ccf = sim_analysis._scaled_ccf

        def counting(*args, **kwargs):
            steps.append(args)
            return step_response(*args, **kwargs)

        def recording(num, den):
            built.append(den.shape)
            return scaled_ccf(num, den)

        for module in (mor_engine, sim_analysis):
            monkeypatch.setattr(module, "step_response", counting, raising=False)
        monkeypatch.setattr(sim_analysis, "_scaled_ccf", recording)
        res = reduce(bench_loop, ReductionConfig(target_order=2, numerator_order=1,
                                                 adjust_mode="auto"))
        assert res.chosen_n is not None
        assert steps == []
        # the full model once, then all 29 percents in one stack
        assert built == [(4,), (29, 3)]

    def test_auto_rejects_non_finite_and_negative_scores(self, bench_loop,
                                                         monkeypatch):
        cfg = ReductionConfig(target_order=2, numerator_order=1,
                              adjust_mode="auto", auto_grid=(1.0, 5.0, 1.0))
        for scores, want in (([np.nan, -1e-3, 0.2, np.inf, 0.1], 5.0),
                             ([0.3, 0.1, 0.1, -np.inf, 0.2], 2.0),
                             ([np.nan, -1.0, np.inf, -np.inf, np.nan], None)):
            monkeypatch.setattr(mor_engine, "step_ise",
                                lambda *args, s=scores: np.array(s))
            res = reduce(bench_loop, cfg)
            assert res.chosen_n == want
            if want is None:
                assert res.warnings and "failed for every percent" in res.warnings[0]
                assert res.reduced.den.coeffs == reduce_denominator(
                    Polynomial(bench_loop.den.coeffs), 2).coeffs
            else:
                assert res.warnings == ()

    def test_auto_past_kronecker_budget_returns_note(self):
        # degree 40: the full model's Lyapunov block alone has 40^4 entries
        den = np.real(np.poly(-np.geomspace(1.0, 3.0, 40)))[::-1]
        g = TransferFunction(Polynomial([1.0, 0.1]), Polynomial(den / den[0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = reduce(g, ReductionConfig(target_order=2, numerator_order=1,
                                            adjust_mode="auto"))
        assert np.isfinite(res.residual_epsilon)
        assert res.chosen_n is None
        assert "failed for every percent" in res.warnings[0]
        assert "2000000" in res.warnings[0]
        assert res.reduced.den.coeffs == reduce_denominator(g.den, 2).coeffs

    def test_auto_prefers_smaller_ise(self, bench_loop):
        cfg = ReductionConfig(target_order=2, numerator_order=1,
                              adjust_mode="auto", auto_grid=(1.0, 5.0, 1.0))
        res = reduce(bench_loop, cfg)
        ref = step_response(bench_loop, t_final=0.55, dt=1e-4)
        scores = {}
        for n in (1.0, 2.0, 3.0, 4.0, 5.0):
            cand = TransferFunction(
                res.reduced.num,
                adjust_denominator(reduce_denominator(
                    Polynomial(bench_loop.den.coeffs), 2), n))
            scores[n] = ise(ref, step_response(cand, t_final=0.55, dt=1e-4))
        assert min(scores, key=scores.get) == res.chosen_n


class TestReduceProperties:
    def test_dc_gain_preserved_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            deg = int(rng.integers(3, 7))
            den = _random_stable_den(rng, deg)
            assert den.degree == deg
            k = float(rng.uniform(0.2, 50.0))
            g = TransferFunction(Polynomial([k]), den)
            res = reduce(g, ReductionConfig(target_order=2, numerator_order=1))
            assert abs(dc_gain(res.reduced) - dc_gain(g)) <= 1e-12 * abs(dc_gain(g))
        # triple pole (1+0.5s)/((1+s)^3 (1+s/8)) through the auto-adjust scan
        g = TransferFunction(
            Polynomial([1.0, 0.5]),
            poly_mul(Polynomial([1.0, 3.0, 3.0, 1.0]), Polynomial([1.0, 0.125])))
        res = reduce(g, ReductionConfig(target_order=2, numerator_order=1,
                                        adjust_mode="auto"))
        assert abs(dc_gain(res.reduced) - dc_gain(g)) <= 1e-12 * abs(dc_gain(g))

    def test_stability_preserved_smoke(self):
        # the full 1000-system sweep lives in the acceptance suite
        rng = np.random.default_rng(20110520)
        for _ in range(150):
            deg = int(rng.integers(3, 7))
            den = _random_stable_den(rng, deg)
            assert den.degree == deg
            for r in range(1, den.degree):
                out = reduce_denominator(den, r)
                assert is_stable(out)
                if out.degree >= 2:
                    assert is_stable(adjust_denominator(out, 15.0))

    def test_matching_conditions_verified(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            deg = int(rng.integers(3, 7))
            den = _random_stable_den(rng, deg)
            assert den.degree == deg
            g = TransferFunction(Polynomial([1.0]), den)
            res = reduce(g, ReductionConfig(target_order=2, numerator_order=1))
            for lv, mv in res.matched_conditions:
                assert abs(lv - mv) <= 1e-9 * (1.0 + abs(lv))

    def test_residual_vanishes_at_lowest_grid_frequency(self):
        # systems whose slowest dynamics sit well above the 0.1 rad/s grid
        # floor; the DC match then pins the residual there
        rng = np.random.default_rng(1009)
        for _ in range(40):
            deg = int(rng.integers(3, 7))
            den = _random_stable_den(rng, deg, lo=1.3, hi=3.0)
            assert den.degree == deg
            g = TransferFunction(Polynomial([1.0]), den)
            res = reduce(g, ReductionConfig(target_order=2, numerator_order=1))
            eps0 = residual_epsilon(g, res.reduced,
                                    np.array([RESIDUAL_GRID[0]]))
            assert eps0 <= 1e-6


class TestReductionConfig:
    def test_numerator_defaults_to_order_minus_one(self):
        assert ReductionConfig(target_order=3).q == 2

    def test_numerator_order_bounds(self):
        with pytest.raises(BadOrder):
            ReductionConfig(target_order=2, numerator_order=2)

    def test_adjust_mode_validated(self):
        with pytest.raises(ValidationError):
            ReductionConfig(target_order=2, adjust_mode="sometimes")

    def test_fixed_needs_percent(self):
        with pytest.raises(ValidationError):
            ReductionConfig(target_order=2, adjust_mode="fixed")

    def test_auto_grid_range(self):
        with pytest.raises(ValidationError):
            ReductionConfig(target_order=2, adjust_mode="auto",
                            auto_grid=(0.5, 15.0, 0.5))
