import functools
import itertools
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
        assert out.coeffs[2] == pytest.approx(0.00217574, rel=1e-5, abs=0.0)

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


def _bench_style_model(rng):
    """(g, r): a ``_bench_style_tf`` of degree 5-10 and a reduced order
    4 <= r < degree."""
    g = _bench_style_tf(rng, 5)
    return g, int(rng.integers(4, g.den.degree))


def _bench_style_tf(rng, lowest: int) -> TransferFunction:
    """A DC-normalized stable model of degree lowest-10, its poles real
    or complex with damping 0.2-0.9 and its zeros real, all within a
    spread of 10 to 1000."""
    n = int(rng.integers(lowest, 11))
    spread = 10.0 ** rng.uniform(1.0, 3.0)
    den, left = Polynomial([1.0]), n
    while left:
        mag = spread ** rng.uniform(-0.5, 0.5)
        if left >= 2 and rng.random() < 0.5:
            zeta = rng.uniform(0.2, 0.9)
            den = poly_mul(den, Polynomial([1.0, 2.0 * zeta / mag,
                                            1.0 / mag ** 2]))
            left -= 2
        else:
            den = poly_mul(den, Polynomial([1.0, 1.0 / mag]))
            left -= 1
    num = _lags(spread ** -rng.uniform(-0.5, 0.5, size=int(rng.integers(n))))
    return TransferFunction(num, den)


def _oracle_models() -> list[TransferFunction]:
    """The matching oracle's 60 seeded ``_bench_style_tf`` models of
    degree 3-10."""
    rng = np.random.default_rng(4)
    return [_bench_style_tf(rng, 3) for _ in range(60)]


def _mp_mul(mpmath, a, b):
    """Ascending coefficients of the product a b, in mpmath."""
    return [mpmath.fsum(mpmath.mpf(a[i]) * b[k - i]
                        for i in range(len(a)) if 0 <= k - i < len(b))
            for k in range(len(a) + len(b) - 1)]


def _mp_square(mpmath, p, q):
    """x^0..x^q of p(s) p(-s), x = s^2, in mpmath."""
    c = [mpmath.mpf(v) for v in p] + [0] * (2 * q + 1)
    return [mpmath.fsum((-1) ** i * c[i] * c[2 * x - i]
                        for i in range(2 * x + 1)) for x in range(q + 1)]


def _mp_matched_series(mpmath, g, d_r, q):
    """Descending coefficients of u^q + S_1 u^(q-1) + ... + S_q, the series
    S = L / D of ``_root_factors``, in mpmath from the float inputs."""
    big_l = _mp_square(mpmath, _mp_mul(mpmath, g.num.coeffs, d_r.coeffs), q)
    big_d = _mp_square(mpmath, g.den.coeffs, q)
    series = []
    for x in range(q + 1):
        series.append(big_l[x] - mpmath.fsum(big_d[i] * series[x - i]
                                             for i in range(1, x + 1)))
    return series


def _mp_roots(mpmath, series):
    """Roots u of a matched series, to the working precision; the float
    roots only seed the iteration."""
    start = np.roots([float(c) for c in series])
    return mpmath.polyroots(series, maxsteps=500, extraprec=300,
                            roots_init=[mpmath.mpc(complex(z)) for z in start])


def _mp_top_ranked(mpmath, g, u, q):
    """The exact top-ranked candidate numerator, ascending, built from
    roots u of the matched series none of which is zero or negative, and
    ranked as ``_match`` ranks."""
    factors = []
    for z in u:
        if mpmath.im(z) > 0:
            b = 2 * mpmath.re(mpmath.sqrt(z))
            factors.append(([1, b, abs(z)], [1, -b, abs(z)]))
        elif mpmath.im(z) == 0:
            b = mpmath.sqrt(mpmath.re(z))
            factors.append(([1, b], [1, -b]))
    signs = [mpmath.sign(c) for c in g.num.coeffs[1:q + 1]]

    def rank(n):
        return (-sum(s != 0 and mpmath.sign(c) == s
                     for c, s in zip(n[1:], signs)), [-c for c in n])

    return min((functools.reduce(functools.partial(_mp_mul, mpmath), choice, [1])
                for choice in itertools.product(*factors)), key=rank)


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
        assert err.value.discriminant == pytest.approx(-1.05357e-4, rel=1e-4,
                                                       abs=0.0)

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

    def test_returns_the_exact_top_ranked_candidate(self):
        # Every r >= 2 and 1 <= q < r of the oracle's models: the matched
        # series is rebuilt from the same float inputs in 60-digit
        # arithmetic, and its roots give every candidate exactly.  The
        # returned numerator is the exact top-ranked candidate to 1e-7
        # per coefficient, or MatchInfeasible where an exact root is
        # negative.  A match with a root u near zero or near the real
        # axis, where the float floor of _root_factors may decide, is
        # skipped and counted.
        mpmath = pytest.importorskip("mpmath")
        matched, infeasible, skipped, gaps = 0, 0, 0, []
        for g in _oracle_models():
            for r in range(2, g.den.degree):
                d_r = reduce_denominator(g.den, r)
                with mpmath.workdps(60):
                    series = _mp_matched_series(mpmath, g, d_r, r - 1)
                    big_l = _mp_square(
                        mpmath, _mp_mul(mpmath, g.num.coeffs, d_r.coeffs), r - 1)
                    for q in range(1, r):
                        u = _mp_roots(mpmath, series[:q + 1])
                        top = max(abs(z) for z in u)
                        if any(abs(z) <= 1e-6 * top
                               or 0 < abs(mpmath.im(z)) <= 1e-6 * abs(z)
                               for z in u):
                            skipped += 1
                            continue
                        if any(mpmath.im(z) == 0 and z < 0 for z in u):
                            with pytest.raises(MatchInfeasible):
                                match_numerator(g, d_r, q)
                            infeasible += 1
                            continue
                        got = match_numerator(g, d_r, q).coeffs
                        want = _mp_top_ranked(mpmath, g, u, q)
                        assert len(got) == len(want), (r, q)
                        assert all(abs(a - b) <= 1e-7 * abs(b)
                                   for a, b in zip(got, want)), (r, q, got)
                        # the float answer's exact re-check gap
                        big_m = _mp_square(
                            mpmath, _mp_mul(mpmath, g.den.coeffs, got), q)
                        gaps.append(max(abs(lv - mv) / (1 + abs(lv)) for lv, mv
                                        in zip(big_l[1:q + 1], big_m[1:])))
                        matched += 1
        assert matched > 500 and infeasible > 200 and skipped <= 4
        # matches whose L - M is so ill-conditioned that a re-check at
        # 1e-9 would refuse the top-ranked candidate (five, at q = 6, 7)
        assert sum(gap > 1e-9 for gap in gaps) >= 3

    def test_top_ranked_pass_squares_one_candidate(self, monkeypatch):
        # two positive roots u = b^2 and a complex pair, so 8 sign
        # choices; the top-ranked one alone is squared
        g = TransferFunction(Polynomial([1.0, 0.7]), _lags(_SIX_LAGS))
        d_r = reduce_denominator(g.den, 5)
        big_l = spectral_square_head(poly_mul(g.num, d_r), 4)
        assert len(mor_engine._root_factors(g, d_r, big_l, 4)) == 3
        squared = []
        monkeypatch.setattr(mor_engine, "spectral_square_head",
                            lambda p, q: squared.append(p) or spectral_square_head(p, q))
        out = match_numerator(g, d_r, 4)
        assert squared == [poly_mul(g.num, d_r), g.den, poly_mul(g.den, out)]
        # and where the winner's float L and M differ by more than 1e-9
        # relative, so that a re-check at 1e-9 would reject it: oracle
        # model 15, degree 9, q = 6 of r = 7
        g = _oracle_models()[15]
        d_r = reduce_denominator(g.den, 7)
        squared.clear()
        out = match_numerator(g, d_r, 6)
        assert squared == [poly_mul(g.num, d_r), g.den, poly_mul(g.den, out)]
        big_l, big_m = (spectral_square_head(p, 6) for p in squared[::2])
        assert max(abs(lv - mv) / (1.0 + abs(lv))
                   for lv, mv in zip(big_l[1:], big_m[1:])) > 1e-9

    def test_sign_follows_original(self, bench_loop, bench_den):
        d_r = reduce_denominator(bench_den, 2)
        out = match_numerator(bench_loop, d_r, 1)
        assert out.coeff(1) > 0.0  # original numerator slope is positive

    def test_infeasible_exactly_when_an_exact_root_is_negative(self):
        # At q = r - 1 >= 3 the matched series of 40 seeded models is
        # rebuilt from the same float inputs in 60-digit arithmetic; a
        # model with a root u near zero or near the real axis, where the
        # float floor of _root_factors may decide, is skipped and counted
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(26)
        verdicts, skipped = [], 0
        while len(verdicts) + skipped < 40:
            g, r = _bench_style_model(rng)
            q = r - 1
            d_r = reduce_denominator(g.den, r)
            big_l = spectral_square_head(poly_mul(g.num, d_r), q)
            try:
                mor_engine._root_factors(g, d_r, big_l, q)
                got = False
            except MatchInfeasible:
                got = True
            with mpmath.workdps(60):
                u = mpmath.polyroots(_mp_matched_series(mpmath, g, d_r, q),
                                     maxsteps=500, extraprec=300)
                top = max(abs(z) for z in u)
                if any(abs(z) <= 1e-6 * top
                       or 0 < abs(mpmath.im(z)) <= 1e-6 * abs(z) for z in u):
                    skipped += 1
                    continue
                want = any(mpmath.im(z) == 0 and z < 0 for z in u)
            verdicts.append((got, want))
        assert skipped <= 4
        assert all(got == want for got, want in verdicts)
        # both outcomes occur, so neither branch is vacuous
        assert {want for _, want in verdicts} == {False, True}

    def test_ranks_as_every_candidate_built(self):
        # every r and 1 <= q < r of the oracle's models: the winner and
        # its matched pairs are those of building each candidate's
        # Polynomial and taking min by the key, repr for repr
        outcomes = []
        for g in _oracle_models():
            for r in range(2, g.den.degree):
                d_r = reduce_denominator(g.den, r)
                for q in range(1, r):
                    got, want = (_outcome(f, g, d_r, q) for f in
                                 (mor_engine._match, _match_every_candidate))
                    assert got == want, (r, q)
                    outcomes.append(got[0])
        assert outcomes.count("MatchInfeasible") > 100
        assert len(outcomes) - outcomes.count("MatchInfeasible") > 500

    @pytest.mark.parametrize("factors", [
        # no factor: the constant numerator
        [],
        # a repeated pair: (+, -) and (-, +) give one product, a tie
        [(np.array([1.0, 0.5]), np.array([1.0, -0.5]))] * 2,
        [(np.array([1.0, 0.8, 0.3]), np.array([1.0, -0.8, 0.3]))] * 2
        + [(np.array([1.0, 2.0]), np.array([1.0, -2.0]))],
        # products whose top coefficient underflows to 0.0 or -0.0, so
        # the candidates are ranked on their trimmed coefficients
        [(np.array([1.0, 1e-200]), np.array([1.0, -1e-200]))] * 2,
        [(np.array([1.0, 1e-170]), np.array([1.0, -1e-170])),
         (np.array([1.0, 3e-160, 1e-300]), np.array([1.0, -3e-160, 1e-300]))],
    ], ids=["none", "tied-real", "tied-complex", "underflow", "underflow-mixed"])
    def test_ranks_ties_and_underflow_as_every_candidate_built(
            self, monkeypatch, factors):
        monkeypatch.setattr(mor_engine, "_root_factors",
                            lambda g, d_r, big_l, q: factors)
        for g in _oracle_models()[:6]:
            d_r = reduce_denominator(g.den, 2)
            got, want = (_outcome(f, g, d_r, 1) for f in
                         (mor_engine._match, _match_every_candidate))
            assert got == want


def _match_every_candidate(g, d_r, q):
    """``mor_engine._match`` ranking as a Polynomial per candidate: every
    sign choice built, then ``min`` by the ranking key."""
    big_l = spectral_square_head(poly_mul(g.num, d_r), q)
    signs = [math.copysign(1.0, c) if c != 0.0 else 0.0
             for c in g.num.coeffs[1:q + 1]]
    n_r = min((Polynomial(functools.reduce(np.convolve, choice, np.ones(1)))
               for choice in itertools.product(
                   *mor_engine._root_factors(g, d_r, big_l, q))),
              key=lambda n_r: (
                  -sum(c != 0.0 and math.copysign(1.0, c) == s
                       for c, s in zip(n_r.coeffs[1:], signs)),
                  tuple(-c for c in n_r.coeffs)))
    big_m = spectral_square_head(poly_mul(g.den, n_r), q)
    return n_r, tuple(zip(big_l[1:], big_m[1:]))


def _outcome(match, g, d_r, q):
    """repr of ``match(g, d_r, q)``, or its error's type and message."""
    try:
        n_r, pairs = match(g, d_r, q)
    except MorDriveError as exc:
        return type(exc).__name__, str(exc)
    return repr(n_r), repr(pairs)


class TestReducePipeline:
    def test_benchmark_reduction(self, bench_loop):
        res = reduce(bench_loop, ReductionConfig(target_order=2, numerator_order=1))
        assert res.reduced.den.coeffs[1] == pytest.approx(0.12988, rel=1e-10,
                                                          abs=0.0)
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
        # reduce does not compute the residual; reading it refuses, each time
        res = reduce(g, ReductionConfig(target_order=2, numerator_order=0))
        assert res.reduced.den == gr.den
        for _ in range(2):
            with pytest.raises(NumericError,
                               match="^residual epsilon of the reduced model is inf$"):
                res.residual_epsilon

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
        assert res.reduced.den.coeffs[1] == pytest.approx(0.142868, rel=1e-10,
                                                          abs=0.0)
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

    def test_degree_one_roots_run_no_root_kernel(self, bench_loop, monkeypatch):
        # the cubic's even and odd parts and the q = 1 matching condition
        # are degree 1: only the full denominator and the scan's stack
        # reach the kernel
        solved = []
        kernel = poly_tf._roots_of_rows

        def recording(coeffs):
            solved.append(coeffs.shape)
            return kernel(coeffs)

        for module in (poly_tf, sim_analysis):
            monkeypatch.setattr(module, "_roots_of_rows", recording)
        for mode, want in (("auto", [(1, 4), (29, 3)]), ("none", [])):
            g = TransferFunction(Polynomial(bench_loop.num.coeffs),
                                 Polynomial(bench_loop.den.coeffs))
            solved.clear()
            reduce(g, ReductionConfig(target_order=2, numerator_order=1,
                                      adjust_mode=mode))
            assert solved == want, mode

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

    @pytest.mark.parametrize("loop", ["design", "benchmark"])
    def test_auto_reports_the_score_that_chose_it(self, bench_loop, model, loop):
        g = model.loop_gain_design if loop == "design" else bench_loop
        cfg = ReductionConfig(target_order=2, numerator_order=1,
                              adjust_mode="auto")
        res = reduce(g, cfg)
        # the scan's own row at the winning percent, bit for bit
        lo, hi, step = cfg.auto_grid
        grid = list(np.arange(lo, hi + step / 2.0, step))
        d_r = reduce_denominator(g.dc_normalized.den, 2)
        dens = np.array([adjust_denominator(d_r, n).coeffs for n in grid])
        scores = sim_analysis.step_ise(g, res.reduced.num.coeffs, dens)
        best = grid.index(res.chosen_n)
        assert res.step_ise.hex() == float(scores[best]).hex()
        assert int(np.nanargmin(scores)) == best
        for other in (dict(adjust_mode="none"),
                      dict(adjust_mode="fixed", adjust_percent=5.0)):
            assert reduce(g, ReductionConfig(target_order=2, numerator_order=1,
                                             **other)).step_ise is None

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
        # reduce evaluates nothing on the grid: the residual is left unread
        assert evaluated == []
        # a read evaluates the four polynomials once; a second read, none
        for res in done:
            eps = res.residual_epsilon
            assert res.residual_epsilon == eps
            assert [id(p) for p in evaluated] == [
                id(p) for p in (g.num, res.reduced.den, g.den, res.reduced.num)]
            evaluated.clear()

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
        assert shared >= 3
        # equal coefficients share no cache: each is kept on its own object
        g_hat, twin_hat = g.dc_normalized, twin.dc_normalized
        assert twin_hat is not g_hat
        assert twin_hat.den.factorization is not g_hat.den.factorization
        assert twin_hat.den.reduced_orders is not g_hat.den.reduced_orders

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

    @pytest.mark.parametrize("orders", [
        dict(target_order=2, numerator_order=1.5), dict(target_order=2.5),
        dict(target_order=2.0), dict(target_order=3, numerator_order=1.0)])
    def test_non_integer_orders_rejected(self, orders):
        with pytest.raises(BadOrder, match="must be integers"):
            ReductionConfig(**orders)

    @pytest.mark.parametrize("grid", [(1.0, 15.0, math.inf), (1.0, 15.0, 1e-6),
                                      (1.0, 15.0, 5e-324), (1.0, 1.0, 1e-300)])
    def test_auto_grid_without_a_bounded_length_rejected(self, grid):
        # an arange that fails, stacks 14,000,001 Van Loan matrices,
        # overflows its length or holds no percent
        with pytest.raises(ValidationError, match="1 to 300 percents"):
            ReductionConfig(target_order=2, adjust_mode="auto", auto_grid=grid)

    def test_auto_grid_budget_counts_what_the_scan_builds(self):
        # the default grid and those the tests and the bench use are
        # accepted, and a grid is accepted exactly when the scan's arange
        # holds 1 to MAX_AUTO_PERCENTS percents
        assert mor_engine.MAX_AUTO_PERCENTS == 300
        for grid in ((1.0, 15.0, 0.5), (1.0, 5.0, 1.0), (1.0, 15.0, 7.0)):
            ReductionConfig(target_order=2, adjust_mode="auto", auto_grid=grid)
        verdicts = set()
        for step in np.geomspace(0.04, 0.06, 200):  # 350 to 234 percents
            count = len(np.arange(1.0, 15.0 + step / 2.0, step))
            try:
                ReductionConfig(target_order=2, auto_grid=(1.0, 15.0, float(step)))
                accepted = True
            except ValidationError:
                accepted = False
            assert accepted == (count <= 300), (step, count)
            verdicts.add(accepted)
        assert verdicts == {True, False}
