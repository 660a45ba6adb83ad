import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mordrive import mor_engine, poly_tf, sim_analysis
from mordrive.controller_design import sweep_gain
from mordrive.errors import (
    BadOrder,
    MatchInfeasible,
    MorDriveError,
    NotFactorable,
    NotNormalized,
    NumericError,
    ValidationError,
    ZeroConstantTerm,
)
from mordrive.mor_engine import (
    RESIDUAL_GRID,
    ReductionConfig,
    adjust_denominator,
    match_numerator,
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
    spectral_square_head,
)
from mordrive.sim_analysis import ise, step_response


_SIX_LAGS = (0.5, 0.05, 0.01, 0.002, 0.0005, 0.0001)


def _lags(taus) -> Polynomial:
    """Product of the first-order lags 1 + tau s."""
    d = Polynomial([1.0])
    for tau in taus:
        d = poly_mul(d, Polynomial([1.0, float(tau)]))
    return d


def _convolved_square(p: Polynomial) -> np.ndarray:
    """p(s) p(-s) in powers of s^2, by plain convolution."""
    c = np.array(p.coeffs)
    return np.convolve(c, c * (-1.0) ** np.arange(len(c)))[::2]


def _assert_matched(g, d_r, n_r, pairs) -> None:
    """``pairs`` are the (L_2x, M_2x) of n_r for x = 1, 2, ..., within 1e-9
    of an independent spectral square, and each L_2x meets its M_2x."""
    big_l = _convolved_square(poly_mul(g.num, d_r))
    big_m = _convolved_square(poly_mul(g.den, n_r))
    for x, (lv, mv) in enumerate(pairs, start=1):
        assert abs(lv - big_l[x]) <= 1e-9 * (1.0 + abs(big_l[x]))
        assert abs(mv - big_m[x]) <= 1e-9 * (1.0 + abs(big_m[x]))
        assert abs(lv - mv) <= 1e-9 * (1.0 + abs(lv))


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
            assert got == pytest.approx(want, rel=1e-10, abs=0.0)

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
        assert out.coeffs[1] == pytest.approx(0.142868, rel=1e-12, abs=0.0)
        assert out.coeffs[2] == pytest.approx(0.00217574, rel=1e-5)

    def test_one_percent(self):
        out = adjust_denominator(Polynomial([1.0, 0.12988, 0.00241749]), 1.0)
        assert out.coeffs[1] == pytest.approx(0.1311788, rel=1e-12, abs=0.0)
        assert out.coeffs[2] == pytest.approx(0.0023933151, rel=1e-12, abs=0.0)

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
        # the loop has unit DC gain, so reduce matches on the loop itself
        res = reduce(bench_loop, ReductionConfig(target_order=2, numerator_order=1))
        assert res.reduced.num == out
        assert len(res.matched_conditions) == 1
        _assert_matched(bench_loop, d_r, out, res.matched_conditions)

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
        with pytest.raises(MatchInfeasible, match=r"q = 1, r = 2.*C1\^2") as err:
            match_numerator(bench_loop, d_bad, 1)
        # the closed form C1^2 = 2 B2 - B1^2 - L2, to the last bit
        b = bench_loop.den.coeff
        big_l = spectral_square_head(poly_mul(bench_loop.num, d_bad), 1)
        assert err.value.discriminant == 2.0 * b(2) - b(1) ** 2 - big_l[1]
        assert err.value.discriminant < 0.0

    def test_infeasible_above_first_order_reports_root(self):
        g = TransferFunction(Polynomial([1.0, 0.7]), _lags(_SIX_LAGS))
        d_r = reduce_denominator(g.den, 5)
        with pytest.raises(MatchInfeasible, match=r"q = 3, r = 5") as err:
            match_numerator(g, d_r, 3)
        # the negative root u = b^2 of the matched series
        assert err.value.discriminant == pytest.approx(-1.05357e-4, rel=1e-4)

    def test_recheck_failure_states_candidates_and_gap(self, bench_loop,
                                                        bench_den, monkeypatch):
        monkeypatch.setattr(mor_engine, "_MATCH_CHECK_REL", -1.0)
        d_r = reduce_denominator(bench_den, 2)
        with pytest.raises(MatchInfeasible,
                           match=r"none of 2 candidate numerators \(q = 1, r = 2\)"
                                 r".*smallest relative gap (\S+)$") as err:
            match_numerator(bench_loop, d_r, 1)
        assert err.value.discriminant is None
        assert 0.0 <= float(str(err.value).rsplit(" ", 1)[1]) <= 1e-12

    def test_second_order_numerator(self):
        den = Polynomial([1.0])
        for tau in (0.5, 0.05, 0.01, 0.002):
            den = poly_mul(den, Polynomial([1.0, tau]))
        g = TransferFunction(Polynomial([1.0, 0.7]), den)
        d_r = reduce_denominator(den, 3)
        out = match_numerator(g, d_r, 2)
        assert out.degree == 2
        assert out.coeff(1) == pytest.approx(0.7034, abs=2e-3)
        res = reduce(g, ReductionConfig(target_order=3, numerator_order=2))
        assert res.reduced.num == out
        _assert_matched(g, d_r, out, res.matched_conditions)

    @pytest.mark.parametrize("r, q", [(4, 3), (5, 4)])
    def test_orders_three_and_four(self, r, q):
        g = TransferFunction(Polynomial([1.0, 0.7]), _lags(_SIX_LAGS))
        d_r = reduce_denominator(g.den, r)
        out = match_numerator(g, d_r, q)
        assert out.degree == q
        assert all(c > 0.0 for c in out.coeffs)  # signs follow 1 + 0.7 s
        res = reduce(g, ReductionConfig(target_order=r, numerator_order=q))
        assert res.reduced.num == out
        assert len(res.matched_conditions) == q
        _assert_matched(g, d_r, out, res.matched_conditions)

    def test_unnormalized_input_rejected(self):
        g = TransferFunction(Polynomial([2.0]), Polynomial([1.0, 1.0, 1.0]))
        with pytest.raises(NotNormalized):
            match_numerator(g, Polynomial([1.0, 1.0]), 0)

    def test_order_above_reduced_degree_rejected(self, bench_loop, bench_den):
        d_r = reduce_denominator(bench_den, 2)
        with pytest.raises(BadOrder):
            match_numerator(bench_loop, d_r, 3)

    def test_sign_choices_bounded_before_any_candidate(self, monkeypatch):
        # two positive roots u = b^2, so four sign choices, over a budget of 3
        g = TransferFunction(Polynomial([1.0, 0.7]), _lags(_SIX_LAGS[:4]))
        d_r = reduce_denominator(g.den, 3)
        assert match_numerator(g, d_r, 2).degree == 2
        squared = []
        spectral_square_head = mor_engine.spectral_square_head
        monkeypatch.setattr(mor_engine, "spectral_square_head",
                            lambda p, q: squared.append(p) or spectral_square_head(p, q))
        monkeypatch.setattr(mor_engine, "MAX_MATCH_CANDIDATES", 3)
        with pytest.raises(BadOrder, match="q = 2 has 4 candidate numerators, "
                                           "more than the budget of 3.*"
                                           "--numerator-order"):
            match_numerator(g, d_r, 2)
        # L and the denominator's square only: no candidate was built
        assert squared == [poly_mul(g.num, d_r), g.den]

    def test_sign_follows_original(self, bench_loop, bench_den):
        d_r = reduce_denominator(bench_den, 2)
        out = match_numerator(bench_loop, d_r, 1)
        assert out.coeff(1) > 0.0  # original numerator slope is positive


class TestReducePipeline:
    def test_benchmark_reduction(self, bench_loop):
        res = reduce(bench_loop, ReductionConfig(target_order=2, numerator_order=1))
        assert res.reduced.den.coeffs[1] == pytest.approx(0.12988, rel=1e-10)
        assert res.reduced.den.coeffs[2] == pytest.approx(0.00241749,
                                                          rel=1e-10, abs=0.0)
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

    def test_overflowing_residual_refused(self):
        # |G / Gr|^2 passes the float maximum on the residual grid
        den = poly_mul(Polynomial([1.0, 1.0]), Polynomial([1.0, 0.1, 0.001]))
        g = TransferFunction(Polynomial([1.0, 1e200]), den)
        gr = TransferFunction(Polynomial([1.0]), reduce_denominator(den, 2))
        assert residual_epsilon(g, gr) == math.inf
        with pytest.raises(NumericError, match="residual epsilon"):
            reduce(g, ReductionConfig(target_order=2, numerator_order=0))

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

    def test_order_above_degree_message_admits_identity(self):
        # r == n is the identity reduction, so the bound is inclusive
        g = TransferFunction(Polynomial([1.0]), Polynomial([1.0, 2.0]))
        with pytest.raises(BadOrder, match=r"^reduced order must satisfy 1 <= r <= 1$"):
            reduce(g, ReductionConfig(target_order=2, numerator_order=0))

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
        solved = []
        eigensolves = []
        scaled_ccf = sim_analysis._scaled_ccf
        roots_of_rows = sim_analysis._roots_of_rows
        eigvals = np.linalg.eigvals

        def counting(*args, **kwargs):
            steps.append(args)
            return step_response(*args, **kwargs)

        def recording(num, den, poles):
            built.append(den.shape)
            return scaled_ccf(num, den, poles)

        def recording_roots(coeffs):
            solved.append(coeffs.shape)
            return roots_of_rows(coeffs)

        def recording_eigvals(a):
            eigensolves.append(sys._getframe(1).f_code.co_filename)
            return eigvals(a)

        for module in (mor_engine, sim_analysis):
            monkeypatch.setattr(module, "step_response", counting, raising=False)
        monkeypatch.setattr(sim_analysis, "_scaled_ccf", recording)
        monkeypatch.setattr(sim_analysis, "_roots_of_rows", recording_roots)
        monkeypatch.setattr(np.linalg, "eigvals", recording_eigvals)
        res = reduce(bench_loop, ReductionConfig(target_order=2, numerator_order=1,
                                                 adjust_mode="auto"))
        assert res.chosen_n is not None
        assert steps == []
        # the full model once, then all 29 percents in one stack, whose
        # roots come from one call of the root kernel
        assert built == [(4,), (29, 3)]
        assert solved == [(29, 3)]
        # and that kernel is the only eigensolve
        assert eigensolves
        assert all(Path(f).parts[-2:] == ("mordrive", "poly_tf.py")
                   for f in eigensolves), eigensolves

    def test_exponentials_solve_nothing_one_per_scan(self, bench_loop, model,
                                                      monkeypatch):
        # an auto reduction, a step response and a sweep: one exponential
        # for each scan or stack, and no linear solve from the package
        solves = []
        stacks = []
        solve = np.linalg.solve
        expm = sim_analysis._expm

        def recording_solve(*args, **kwargs):
            solves.append(sys._getframe(1).f_code.co_filename)
            return solve(*args, **kwargs)

        def recording_expm(a):
            stacks.append(a.shape)
            return expm(a)

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        monkeypatch.setattr(sim_analysis, "_expm", recording_expm)
        reduce(bench_loop, ReductionConfig(target_order=2, numerator_order=1,
                                           adjust_mode="auto"))
        step_response(bench_loop)
        sweep_gain(model, 3.1, 50.0, 15)
        # Van Loan matrices of the 29 percents, the loop's augmented
        # exponential and one per closure of the worked example
        assert stacks == [(29, 12, 12), (1, 4, 4), (15, 5, 5)]
        assert not [f for f in solves if "mordrive" in Path(f).parts], solves

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

    def test_auto_degree_40_picks_fine_trapezoid_minimum(self):
        den = np.real(np.poly(-np.geomspace(1.0, 3.0, 40)))[::-1]
        g = TransferFunction(Polynomial([1.0, 0.1]), Polynomial(den / den[0]))
        cfg = ReductionConfig(target_order=2, numerator_order=1,
                              adjust_mode="auto")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = reduce(g, cfg)
        assert res.chosen_n is not None
        # Richardson-extrapolated trapezoid of exact samples, over the
        # horizon the scan uses, for the chosen percent and its neighbours
        horizon = 5.0 * sim_analysis.characteristic_times(g)[1]
        d_r = reduce_denominator(g.den, 2)
        step = cfg.auto_grid[2]

        def fine_ise(n):
            cand = TransferFunction(res.reduced.num, adjust_denominator(d_r, n))
            coarse, fine = (ise(step_response(g, horizon, horizon / k),
                                step_response(cand, horizon, horizon / k))
                            for k in (2e5, 4e5))
            return (4.0 * fine - coarse) / 3.0

        best = fine_ise(res.chosen_n)
        for n in (res.chosen_n - step, res.chosen_n + step):
            if cfg.auto_grid[0] <= n <= cfg.auto_grid[1]:
                assert best <= fine_ise(n) * (1.0 + 1e-6), n

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


def _fresh(g: TransferFunction) -> TransferFunction:
    """An equal transfer function that shares no cached state with ``g``."""
    return TransferFunction(Polynomial(g.num.coeffs), Polynomial(g.den.coeffs))


class TestFactorizationReuse:
    @pytest.fixture()
    def factored(self, monkeypatch):
        """Polynomials handed to even_odd_factor while the test runs."""
        seen = []
        even_odd_factor = poly_tf.even_odd_factor

        def counting(d):
            seen.append(d)
            return even_odd_factor(d)

        # mor_engine too, so a direct call that bypasses the cache is counted
        for module in (poly_tf, mor_engine):
            monkeypatch.setattr(module, "even_odd_factor", counting, raising=False)
        return seen

    @pytest.fixture()
    def squared(self, monkeypatch):
        """(polynomial, q) handed to mor_engine.spectral_square_head while
        the test runs."""
        seen = []
        spectral_square_head = mor_engine.spectral_square_head

        def recording(p, q):
            seen.append((p, q))
            return spectral_square_head(p, q)

        monkeypatch.setattr(mor_engine, "spectral_square_head", recording)
        return seen

    @pytest.fixture()
    def evaluated(self, monkeypatch):
        """Polynomials handed to poly_eval while the test runs."""
        seen = []
        poly_eval = poly_tf.poly_eval

        def recording(p, s):
            seen.append(p)
            return poly_eval(p, s)

        for module in (poly_tf, mor_engine):
            monkeypatch.setattr(module, "poly_eval", recording)
        return seen

    @staticmethod
    def _sweep_orders(g: TransferFunction) -> list:
        """Unadjusted reductions of ``g`` at every r < n and q < min(r, 3)."""
        out = []
        for r in range(1, g.den.degree):
            for q in range(min(r, 3)):
                try:
                    out.append(reduce(g, ReductionConfig(target_order=r,
                                                         numerator_order=q)))
                except MatchInfeasible:
                    continue
        return out

    @pytest.mark.parametrize("q", [1, 2])
    def test_one_reduce_builds_each_intermediate_once(self, bench_loop, q,
                                                      factored, squared):
        g = _fresh(bench_loop)  # num(0) = den(0) = 1, so g_hat equals g
        res = reduce(g, ReductionConfig(target_order=3 if q == 2 else 2,
                                        numerator_order=q))
        assert factored == [g.den]
        # unadjusted, so the reduced denominator is d_r itself
        big_l = poly_mul(g.num, res.reduced.den)
        assert [p for p, _ in squared if p == big_l] == [big_l]
        # only the q matched coefficients of each square are built
        assert {n for _, n in squared} == {q}

    def test_sweep_over_orders_factors_once(self, factored):
        rng = np.random.default_rng(8)
        g = TransferFunction(Polynomial([2.0, 0.3]),
                             _random_stable_den(rng, 7).scaled(3.0))
        assert len(self._sweep_orders(g)) > 10
        assert len(factored) == 1

    def test_sweep_over_orders_evaluates_on_grid_once(self, evaluated):
        rng = np.random.default_rng(8)
        g = TransferFunction(Polynomial([2.0, 0.3]),
                             _random_stable_den(rng, 7).scaled(3.0))
        done = self._sweep_orders(g)
        assert len(done) > 10
        g_hat = g.dc_normalized
        # the model's num and den once each; matching never reads the
        # grid, so the DC-normalized num and den are not evaluated
        for p, times in ((g.num, 1), (g.den, 1), (g_hat.num, 0), (g_hat.den, 0)):
            assert sum(1 for e in evaluated if e is p) == times
        # each unadjusted reduced denominator once, for the final residual
        for res in done:
            assert sum(1 for e in evaluated if e is res.reduced.den) == 1

    def test_numerator_orders_share_one_reduced_denominator(self):
        rng = np.random.default_rng(8)
        g = TransferFunction(Polynomial([2.0, 0.3]),
                             _random_stable_den(rng, 7).scaled(3.0))
        twin = _fresh(g)
        shared = 0
        for r in range(1, g.den.degree):
            dens = []
            for q in range(min(r, 3)):
                try:
                    dens.append(reduce(g, ReductionConfig(
                        target_order=r, numerator_order=q)).reduced.den)
                except MatchInfeasible:
                    continue
            if len(dens) < min(r, 3):
                continue
            shared += 1
            d_r = reduce_denominator(g.dc_normalized.den, r)
            assert all(d is d_r for d in dens)
            # bit-equal to the order built afresh, on an uncached object
            alone = reduce_denominator(Polynomial(g.dc_normalized.den.coeffs), r)
            assert alone is not d_r
            assert [c.hex() for c in alone.coeffs] == [c.hex() for c in d_r.coeffs]
            twin_den = reduce(twin, ReductionConfig(target_order=r,
                                                    numerator_order=0)).reduced.den
            assert twin_den is not d_r and twin_den == d_r
            assert twin_den.on_residual_grid is not d_r.on_residual_grid
        assert shared >= 3
        # equal coefficients share no cache: each is kept on its own object
        g_hat, twin_hat = g.dc_normalized, twin.dc_normalized
        assert twin_hat is not g_hat
        assert twin_hat.den.factorization is not g_hat.den.factorization
        assert twin_hat.den.reduced_orders is not g_hat.den.reduced_orders
        for p, q in ((g.num, twin.num), (g.den, twin.den)):
            assert q.on_residual_grid is not p.on_residual_grid

    def test_constant_numerator_builds_no_spectral_square(self, bench_loop,
                                                         squared):
        for r in (1, 2, 3):
            res = reduce(bench_loop, ReductionConfig(target_order=r,
                                                     numerator_order=0))
            assert res.matched_conditions == ()
        assert squared == []

    def test_shared_model_gives_what_fresh_models_give(self):
        rng = np.random.default_rng(2024)
        # its q = 1 discriminant is zero up to rounding (about -3.6e-15),
        # so any change in the arithmetic would show
        systems = [TransferFunction(
            Polynomial([1.0]),
            poly_mul(Polynomial([1.0, 1.0]), Polynomial([1.0, 0.4 / 0.3, 1.0 / 0.09])))]
        for deg in [d for d in range(3, 11) for _ in range(2)]:
            # real lags and damped quadratic factors, den(0) != 1
            pairs = int(rng.integers(0, deg // 2 + 1))
            den = _random_stable_den(rng, deg - 2 * pairs).scaled(
                float(rng.uniform(0.5, 4.0)))
            for w, z in zip(10.0 ** rng.uniform(-1.0, 3.0, size=pairs),
                            rng.uniform(0.1, 0.9, size=pairs)):
                den = poly_mul(den, Polynomial([1.0, 2.0 * z / w, 1.0 / w ** 2]))
            num = Polynomial([float(rng.uniform(0.2, 50.0))])
            for tau in 10.0 ** -rng.uniform(0.0, 3.0, size=int(rng.integers(0, 3))):
                num = poly_mul(num, Polynomial([1.0, float(tau)]))
            systems.append(TransferFunction(num, den))

        def outcome(g, cfg):
            try:
                return repr(reduce(g, cfg))
            except MorDriveError as exc:
                return repr((type(exc), str(exc), getattr(exc, "discriminant", None)))

        outcomes = []
        for shared in systems:
            for r in range(1, shared.den.degree + 1):
                for q in range(min(r, 3)):
                    for mode in ("none", "auto") if r == 2 else ("none",):
                        cfg = ReductionConfig(target_order=r, numerator_order=q,
                                              adjust_mode=mode)
                        got = outcome(shared, cfg)
                        assert got == outcome(_fresh(shared), cfg)
                        outcomes.append(got)
        infeasible = [o for o in outcomes if "MatchInfeasible" in o]
        assert 0 < len(infeasible) < len(outcomes)
        assert any("C1^2" in o for o in infeasible)  # carries a discriminant

    def test_failure_not_cached(self, factored):
        g = TransferFunction(
            Polynomial([1.0]),
            poly_mul(poly_mul(Polynomial([1.0, -1.0]), Polynomial([1.0, 0.5])),
                     Polynomial([1.0, 0.1])))
        for _ in range(3):
            with pytest.raises(NotFactorable):
                reduce(g, ReductionConfig(target_order=2))
        assert factored == [g.den] * 3


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
            s0 = 1j * RESIDUAL_GRID[0]
            assert abs(abs(g(s0) / res.reduced(s0)) ** 2 - 1.0) <= 1e-6
            assert residual_epsilon(g, res.reduced) == res.residual_epsilon

    def test_stiff_hurwitz_models_reduce(self):
        # Damped quadratic factors with natural frequencies spread over
        # 1..1e6 rad/s: the even and odd parts' coefficients in s^2 span
        # up to ~60 decades, and their companion roots can miss the
        # residual bound by a small factor until poly_roots polishes them.
        rng = np.random.default_rng(20261018)
        for deg in (14, 16, 20):
            for _ in range(40):
                wn = np.exp(rng.uniform(0.0, math.log(1e6), size=deg // 2))
                wn[0], wn[-1] = 1.0, 1e6
                zeta = rng.uniform(0.05, 0.95, size=deg // 2)
                den = Polynomial([1.0])
                for w, z in zip(wn, zeta):
                    den = poly_mul(den, Polynomial([1.0, 2.0 * z / w, 1.0 / w ** 2]))
                g = TransferFunction(Polynomial([1.0, 0.1]), den)
                res = reduce(g, ReductionConfig(target_order=2, numerator_order=1))
                assert res.reduced.den.degree == 2
                assert dc_gain(res.reduced) == dc_gain(g)


class TestReductionConfig:
    def test_numerator_defaults_to_order_minus_one(self):
        assert ReductionConfig(target_order=3).q == 2

    def test_target_order_zero_rejected(self):
        with pytest.raises(BadOrder):
            ReductionConfig(target_order=0)

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
