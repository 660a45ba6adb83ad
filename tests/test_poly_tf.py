import math

import numpy as np
import pytest

from mordrive import poly_tf
from mordrive.errors import (
    NonConvergence,
    NotFactorable,
    NotNormalized,
    PoleAtOrigin,
    ValidationError,
    ZeroConstantTerm,
)
from mordrive.poly_tf import (
    Polynomial,
    TransferFunction,
    combine_stability_parts,
    dc_gain,
    even_odd_factor,
    is_stable,
    poly_eval,
    poly_mul,
    poly_roots,
    spectral_square_head,
)


def _bits(values) -> list[str]:
    """Exact bit patterns, so -0.0 and 0.0 differ."""
    return [float(v).hex() for v in values]


def _match_roots(got, expected, rel=1e-8):
    """Greedy nearest pairing; sorting complex conjugates is unstable."""
    assert len(got) == len(expected)
    remaining = list(got)
    for e in expected:
        best = min(remaining, key=lambda r: abs(r - e))
        assert abs(best - e) <= rel * (1.0 + abs(e)), (best, e)
        remaining.remove(best)


class TestPolyMul:
    def test_identity_factor(self):
        out = poly_mul(Polynomial([1.0]), Polynomial([1.0, 0.03]))
        assert out.coeffs == (1.0, 0.03)

    def test_square_of_binomial(self):
        out = poly_mul(Polynomial([1.0, 1.0]), Polynomial([1.0, 1.0]))
        assert out.coeffs == (1.0, 2.0, 1.0)

    def test_benchmark_three_factor_expansion(self, bench_den):
        # hand expansion: 0.1077+0.0208+0.00138, pairwise and triple products
        expected = [1.0, 0.12988, 0.00241749, 3.0914208e-06]
        assert bench_den.degree == 3
        for got, want in zip(bench_den.coeffs, expected):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_degree_adds(self):
        a = Polynomial([1.0, 2.0, 3.0])
        b = Polynomial([4.0, 5.0])
        assert poly_mul(a, b).degree == 3


class TestPolyEval:
    def test_root_of_square(self):
        assert poly_eval(Polynomial([1.0, 2.0, 1.0]), -1.0) == 0.0

    def test_constant_at_imaginary_point(self):
        assert poly_eval(Polynomial([1.0]), 100j) == 1.0

    def test_constant_term_at_zero(self, bench_den):
        assert poly_eval(bench_den, 0.0) == 1.0

    def test_horner_is_polyval_bit_for_bit(self):
        # one evaluator: np.polyval's steps over a stack of rows, and a
        # point evaluates as it does as an element of an array
        rng = np.random.default_rng(3000)
        for _ in range(200):
            n = int(rng.integers(0, 15))
            rows = rng.uniform(-3.0, 3.0, size=(3, n + 1))
            x = (rng.normal(size=(3, 9)) + 1j * rng.normal(size=(3, 9))) \
                * 10.0 ** rng.uniform(-2.0, 2.0)
            got = poly_tf._horner(rows, x)
            for row, xi, yi in zip(rows, x, got):
                want = np.polyval(row[::-1], xi)
                assert _bits(yi.real) == _bits(want.real)
                assert _bits(yi.imag) == _bits(want.imag)
            p = Polynomial(rows[0])
            y, point = poly_eval(p, x[0]), poly_eval(p, complex(x[0, 0]))
            assert _bits(y.real) == _bits(got[0].real)
            assert _bits(y.imag) == _bits(got[0].imag)
            assert _bits([point.real, point.imag]) == _bits(
                [got[0, 0].real, got[0, 0].imag])


class TestPolyRoots:
    def test_factorable_quadratic(self):
        _match_roots(poly_roots(Polynomial([2.0, 3.0, 1.0])), [-1.0, -2.0])

    def test_pure_imaginary_pair(self):
        _match_roots(poly_roots(Polynomial([1.0, 0.0, 1.0])), [1j, -1j])

    def test_motor_characteristic_quadratic(self):
        # independent oracle: quadratic formula on J*La s^2 + (Bt*La+J*Ra) s + (Kb^2+Ra*Bt)
        a, b, c = 0.0043704, 0.2490568, 1.9352
        disc = math.sqrt(b * b - 4.0 * a * c)
        expected = [(-b + disc) / (2 * a), (-b - disc) / (2 * a)]
        got = poly_roots(Polynomial([c, b, a]))
        _match_roots(got, expected, rel=1e-10)
        _match_roots(got, [-9.28, -47.7], rel=5e-3)

    def test_residual_contract(self):
        p = Polynomial([1.0, 0.12988, 0.00241749, 3.0914208e-06])
        bound = 1e-10 * max(abs(c) for c in p.coeffs)
        for r in poly_roots(p):
            assert abs(poly_eval(p, r)) <= bound
        # repeated and widely spread real roots: (s+1)^3, (s+1)^4,
        # (s+1)(s+2)...(s+12) and (s+1)...(s+20), whose coefficients span
        # 18 decades; the bound relaxes to the evaluation rounding floor
        # 4 n eps sum|c_i||r|^i
        eps = np.finfo(float).eps
        for roots in ([-1.0] * 3, [-1.0] * 4, [-float(k) for k in range(1, 13)],
                      [-float(k) for k in range(1, 21)]):
            p = Polynomial(np.poly(roots)[::-1].tolist())
            assert p.degree == len(roots)
            got = poly_roots(p)
            assert len(got) == p.degree
            for r in got:
                floor = 4.0 * p.degree * eps * sum(
                    abs(c) * abs(r) ** i for i, c in enumerate(p.coeffs))
                bound = max(1e-10 * max(abs(c) for c in p.coeffs), floor)
                assert abs(poly_eval(p, r)) <= bound

    def test_degree_zero_rejected(self):
        with pytest.raises(ValidationError):
            poly_roots(Polynomial([3.0]))

    def test_roots_within_bound_are_numpys(self):
        # only roots over the residual bound are polished; the rest are
        # the companion eigenvalues bit for bit
        rng = np.random.default_rng(5150)
        for _ in range(60):
            coeffs = rng.uniform(-2.0, 2.0, size=int(rng.integers(2, 12)))
            p = Polynomial(coeffs.tolist())
            want = sorted((complex(r) for r in np.roots(coeffs[::-1])),
                          key=lambda r: (r.real, r.imag))
            got = poly_roots(p)
            assert _bits(r.real for r in got) == _bits(r.real for r in want)
            assert _bits(r.imag for r in got) == _bits(r.imag for r in want)

    def test_round_trip_property(self):
        # coefficients from numpy, roots from the finder under test
        rng = np.random.default_rng(1213)
        for _ in range(120):
            n = int(rng.integers(1, 9))
            roots = []
            while len(roots) < n:
                if n - len(roots) >= 2 and rng.random() < 0.5:
                    re = rng.uniform(-3.0, 3.0)
                    im = rng.uniform(0.05, 3.0)
                    roots += [complex(re, im), complex(re, -im)]
                else:
                    roots.append(complex(rng.uniform(-3.0, 3.0), 0.0))
            if n > 1:
                sep = min(abs(a - b) for i, a in enumerate(roots)
                          for b in roots[i + 1:])
                if sep < 0.01:
                    continue
            p = Polynomial(np.poly(roots)[::-1].tolist())
            assert p.degree == n
            got = poly_roots(p)
            rebuilt = np.real(np.poly(got))[::-1]
            for c_got, c_ref in zip(rebuilt, np.poly(roots)[::-1]):
                assert c_got == pytest.approx(float(c_ref), rel=1e-8, abs=1e-10)


def _stiff_parts(deg, count):
    """Even and odd parts, as polynomials in s^2, of the stiff Hurwitz
    denominators that ``test_stiff_hurwitz_models_reduce`` reduces."""
    rng = np.random.default_rng(20261018)
    even, odd = [], []
    for _ in range(count):
        wn = np.exp(rng.uniform(0.0, math.log(1e6), size=deg // 2))
        wn[0], wn[-1] = 1.0, 1e6
        zeta = rng.uniform(0.05, 0.95, size=deg // 2)
        den = Polynomial([1.0])
        for w, z in zip(wn, zeta):
            den = poly_mul(den, Polynomial([1.0, 2.0 * z / w, 1.0 / w ** 2]))
        even.append(den.coeffs[0::2])
        odd.append(den.coeffs[1::2])
    return np.array(even), np.array(odd)


def _companion_over(rows):
    """Rows of which a companion root, ``np.roots``' eigenvalue, lies over
    the residual bound, so that ``_roots_of_rows`` polishes it."""
    z = np.array([np.sort(np.roots(row[::-1]), kind="stable") for row in rows])
    residual = np.abs(poly_tf._horner(rows, z))
    return (residual > poly_tf._root_limit(rows, z)).any(axis=1)


class TestStackedRoots:
    """``_roots_of_rows`` gives each row exactly what ``poly_roots`` gives."""

    @staticmethod
    def _assert_rows_are_poly_roots(rows):
        got, failures = poly_tf._roots_of_rows(rows)
        assert got.shape == (len(rows), rows.shape[1] - 1)
        assert len(failures) == len(rows)
        for row, z, why in zip(rows, got, failures):
            try:
                want = poly_roots(Polynomial(row))
            except NonConvergence as exc:
                assert np.isnan(z).all() and why == str(exc)
                continue
            assert why is None
            assert _bits(z.real) == _bits(r.real for r in want)
            assert _bits(z.imag) == _bits(r.imag for r in want)
        return got, failures

    def test_random_rows_with_zero_constant_terms(self):
        rng = np.random.default_rng(1507)
        rows = rng.uniform(-2.0, 2.0, size=(30, 7))
        rows[3, 0] = 0.0
        rows[8, :3] = 0.0
        rows[9, :6] = 0.0
        z, failures = self._assert_rows_are_poly_roots(rows)
        assert failures == [None] * len(rows)
        assert (z[8] == 0.0).sum() == 3 and (z[9] == 0.0).all()
        # rows within the bound are the companion eigenvalues bit for bit
        for row, zi, over in zip(rows, z, _companion_over(rows)):
            if not over:
                want = np.sort(np.roots(row[::-1]), kind="stable")
                assert _bits(zi.real) == _bits(want.real)
                assert _bits(zi.imag) == _bits(want.imag)

    def test_stiff_rows_over_the_bound(self):
        for deg in (14, 16, 20):
            for rows in _stiff_parts(deg, 40):
                assert 0 < _companion_over(rows).sum() < len(rows)
                self._assert_rows_are_poly_roots(rows)

    def test_rows_that_do_not_converge(self):
        rows = np.array([[2.0, 3.0, 1.0], [np.nan, 3.0, 1.0], [1.0, 0.0, 1.0]])
        got, failures = self._assert_rows_are_poly_roots(rows)
        assert np.isnan(got[1]).all() and not np.isnan(got[[0, 2]]).any()
        assert failures[1].startswith("companion eigenvalues failed: ")

    def test_one_eigensolve_per_zero_term_group(self, monkeypatch):
        # an over-bound row is polished in place, not solved once more
        rows = _stiff_parts(16, 40)[0]
        rows[5, 0] = 0.0
        rows[7, :2] = 0.0
        assert _companion_over(rows).sum() > 3
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: calls.append(len(a)) or eigvals(a))
        want, failures = poly_tf._roots_of_rows(rows)
        assert failures == [None] * len(rows)
        assert sorted(calls) == [1, 1, len(rows) - 2]
        # a NaN row fails without a solve of its own, and leaves the
        # other rows' roots unchanged
        calls.clear()
        rows[11, 3] = np.nan
        got, failures = poly_tf._roots_of_rows(rows)
        assert sorted(calls) == [1, 1, len(rows) - 2]
        assert failures[11].startswith("companion eigenvalues failed: ")
        others = np.arange(len(rows)) != 11
        assert _bits(got[others].real.ravel()) == _bits(want[others].real.ravel())
        assert _bits(got[others].imag.ravel()) == _bits(want[others].imag.ravel())
        self._assert_rows_are_poly_roots(rows)

    def test_failed_stack_solve_retries_row_by_row(self, monkeypatch):
        # eigvals raising on the stack solves each row alone; a row that
        # raises alone as well fails with LAPACK's message, and only it
        rows = np.array([[2.0, 3.0, 1.0], [6.0, 5.0, 1.0], [1.0, 0.5, 2.0]])
        want, _ = poly_tf._roots_of_rows(rows)
        calls = []
        eigvals = np.linalg.eigvals

        def flaky(a):
            calls.append(len(a))
            if len(a) > 1 or a[0, 0, 0] == -5.0:  # row 1's companion
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", flaky)
        got, failures = poly_tf._roots_of_rows(rows)
        assert calls == [3, 1, 1, 1]
        assert failures == [
            None, "companion eigenvalues failed: Eigenvalues did not converge",
            None]
        assert np.isnan(got[1]).all()
        for i in (0, 2):
            assert _bits(got[i].real) == _bits(want[i].real)
            assert _bits(got[i].imag) == _bits(want[i].imag)
        with pytest.raises(NonConvergence, match="companion eigenvalues"):
            poly_roots(Polynomial(rows[1]))

    def test_one_by_one_companions_make_no_eigensolve(self, monkeypatch):
        rng = np.random.default_rng(2020)
        linear = (rng.uniform(-2.0, 2.0, size=(20, 2))
                  * 10.0 ** rng.uniform(-50.0, 50.0, size=(20, 2)))
        quadratic = rng.uniform(0.5, 2.0, size=(6, 3))
        quadratic[4, 0] = 0.0  # a zero-constant-term group of size 1
        # a root under 2^-459, where LAPACK scales the matrix, is solved
        tiny = np.array([[1.2345e-150, 1.0]])
        cases = [(linear, []), (quadratic, [5]), (tiny, [1])]
        wants = [[np.sort(np.roots(row[::-1]), kind="stable") for row in rows]
                 for rows, _ in cases]
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: calls.append(len(a)) or eigvals(a))
        for (rows, solves), want in zip(cases, wants):
            assert not _companion_over(rows).any()
            calls.clear()
            got, failures = poly_tf._roots_of_rows(rows)
            assert calls == solves
            assert failures == [None] * len(rows)
            for z, w in zip(got, want):
                assert _bits(z.real) == _bits(w.real)
                assert _bits(z.imag) == _bits(w.imag)

    def test_overflowing_companion_is_solved_scaled(self):
        c0, c1, c2 = 2.27e278, 0.132, 3.85e-281
        assert math.isinf(c0 / c2)  # where np.roots fails
        # the quadratic formula, each term divided by 2 c2 on its own
        re = -c1 / (2.0 * c2)
        im = math.sqrt(4.0 * c2 * c0 - c1 * c1) / (2.0 * c2)
        got = poly_roots(Polynomial([c0, c1, c2]))
        _match_roots(got, [complex(re, -im), complex(re, im)], rel=1e-12)
        # stacked with ordinary rows it is solved as alone, and they are too
        rows = np.array([[2.0, 3.0, 1.0], [c0, c1, c2], [1.0, 0.5, 2.0]])
        _, failures = self._assert_rows_are_poly_roots(rows)
        assert failures == [None] * 3
        # a root past the float range still fails
        with pytest.raises(NonConvergence, match="non-finite"):
            poly_roots(Polynomial([1e300, 1e300, 1e-300]))


class TestRootsCache:
    @pytest.fixture()
    def calls(self, monkeypatch):
        """Polynomials handed to poly_tf.poly_roots while the test runs."""
        seen = []

        def counting(p):
            seen.append(p)
            return poly_roots(p)

        monkeypatch.setattr(poly_tf, "poly_roots", counting)
        return seen

    def test_found_once_and_shared(self, calls):
        p = Polynomial([2.0, 3.0, 1.0])
        assert is_stable(p) is True
        _match_roots(p.roots, [-1.0, -2.0])
        assert p.roots is p.roots
        assert calls == [p]

    def test_failure_raised_again(self, calls):
        p = Polynomial([float("nan"), 1.0])
        for _ in range(2):
            with pytest.raises(NonConvergence):
                p.roots
        assert len(calls) == 2


class TestFactorizationAndNormalizationCache:
    def test_factorization_kept_like_roots(self, bench_den):
        p = Polynomial(bench_den.coeffs)
        assert p.factorization is p.factorization
        assert p.factorization == even_odd_factor(p)
        bad = Polynomial([1.0, 1.0, -2.0])
        for _ in range(2):
            with pytest.raises(NotFactorable):
                bad.factorization

    def test_dc_normalized_kept(self):
        g = TransferFunction(Polynomial([2.0, 0.5]), Polynomial([4.0, 2.0, 1.0]))
        g_hat = g.dc_normalized
        assert g.dc_normalized is g_hat
        assert g_hat.num.coeffs == (1.0, 0.25)
        assert g_hat.den.coeffs == (1.0, 0.5, 0.25)
        for num, den in (([0.0, 1.0], [1.0, 1.0]), ([1.0], [0.0, 1.0])):
            g = TransferFunction(Polynomial(num), Polynomial(den))
            for _ in range(2):
                with pytest.raises(ZeroConstantTerm):
                    g.dc_normalized


class TestIsStable:
    def test_first_order_stable(self):
        assert is_stable(Polynomial([1.0, 1.0])) is True

    def test_right_half_plane_root(self):
        assert is_stable(Polynomial([-1.0, 1.0])) is False

    def test_constant_rejected(self):
        with pytest.raises(ValidationError):
            is_stable(Polynomial([1.0]))

    def test_benchmark_denominator(self, bench_den):
        assert is_stable(bench_den) is True


class TestEvenOddFactor:
    def test_benchmark_split(self, bench_den):
        f = even_odd_factor(bench_den)
        assert f.e0 == 1.0
        assert f.e1 == pytest.approx(0.12988, rel=1e-12, abs=0.0)
        assert len(f.z_sq) == 1 and len(f.p_sq) == 1
        assert f.z_sq[0] == pytest.approx(1.0 / 0.00241749, rel=1e-3)
        assert f.p_sq[0] == pytest.approx(0.12988 / 3.0914208e-06, rel=1e-3)
        assert f.z_sq[0] < f.p_sq[0]

    def test_double_real_root(self):
        f = even_odd_factor(Polynomial([1.0, 2.0, 1.0]))
        assert f.e0 == 1.0 and f.e1 == 2.0
        assert f.z_sq == pytest.approx((1.0,))
        assert f.p_sq == ()

    def test_marginally_stable_rejected(self):
        # (s+1)(s^2+1) has even/odd magnitudes colliding
        with pytest.raises(NotFactorable):
            even_odd_factor(Polynomial([1.0, 1.0, 1.0, 1.0]))

    def test_pole_at_origin_rejected(self):
        with pytest.raises(ZeroConstantTerm):
            even_odd_factor(Polynomial([0.0, 1.0, 1.0]))

    def test_unstable_mixed_signs_rejected(self):
        with pytest.raises(NotFactorable):
            even_odd_factor(Polynomial([1.0, 1.0, -2.0]))

    def test_constant_rejected(self):
        with pytest.raises(ValidationError):
            even_odd_factor(Polynomial([1.0]))

    @pytest.mark.parametrize("p, reason", [
        # even part 1 + 0.1 x + x^2 in x = s^2 has complex roots
        (Polynomial([1.0, 1.0, 0.1, 1.0, 1.0]), "even part has a complex"),
        (combine_stability_parts(1.0, 1.0, [1.0, 2.0], [3.0, 4.0]),
         r"p1\^2 >= z2\^2"),
    ], ids=["complex-even-root", "p1-above-z2"])
    def test_broken_root_pattern_rejected(self, p, reason):
        with pytest.raises(NotFactorable, match=reason):
            even_odd_factor(p)

    @pytest.mark.parametrize("coeffs", [[1.0, 0.0, 1.0], [2.0, 0.0, 3.0, 1.0]])
    def test_zero_s_coefficient_rejected(self, coeffs):
        # the odd part is degenerate; the zero-coefficient test catches it
        with pytest.raises(NotFactorable, match="zero coefficients"):
            even_odd_factor(Polynomial(coeffs))

    def test_reconstruction_property(self):
        # randomized stable polynomials, degree <= 8
        rng = np.random.default_rng(20240311)
        checked = 0
        while checked < 250:
            deg = int(rng.integers(2, 9))
            d = Polynomial([1.0])
            left = deg
            while left > 0:
                if left >= 2 and rng.random() < 0.35:
                    wn = 10.0 ** rng.uniform(-1.0, 2.0)
                    z = rng.uniform(0.3, 0.95)
                    d = poly_mul(d, Polynomial(
                        [1.0, 2.0 * z / wn, 1.0 / wn**2]))
                    left -= 2
                else:
                    tau = 1.0 / 10.0 ** rng.uniform(-1.0, 2.0)
                    d = poly_mul(d, Polynomial([1.0, tau]))
                    left -= 1
            assert d.degree == deg
            f = even_odd_factor(d)
            merged = []
            for i in range(len(f.p_sq)):
                merged += [f.z_sq[i], f.p_sq[i]]
            if len(f.z_sq) > len(f.p_sq):
                merged.append(f.z_sq[-1])
            assert merged == sorted(merged)  # strict interlacing as ordered list
            assert len(set(merged)) == len(merged)
            rebuilt = combine_stability_parts(f.e0, f.e1, f.z_sq, f.p_sq)
            assert rebuilt.degree == d.degree
            for c_in, c_out in zip(d.coeffs, rebuilt.coeffs):
                assert c_out == pytest.approx(c_in, rel=1e-8, abs=0.0)
            checked += 1

    def test_recombination_matches_polynomial_chain_bitwise(self):
        def reference(e0, e1, z_sq, p_sq):
            even = Polynomial([e0])
            for z2 in z_sq:
                even = poly_mul(even, Polynomial([1.0, 0.0, 1.0 / z2]))
            odd = Polynomial([0.0, e1])
            for p2 in p_sq:
                odd = poly_mul(odd, Polynomial([1.0, 0.0, 1.0 / p2]))
            n = max(even.degree, odd.degree) + 1
            return Polynomial([even.coeff(i) + odd.coeff(i) for i in range(n)])

        rng = np.random.default_rng(6061)
        for _ in range(200):
            k = int(rng.integers(0, 8))
            e0, e1 = rng.uniform(0.1, 10.0, size=2) * rng.choice([-1.0, 1.0])
            z_sq = tuple(10.0 ** rng.uniform(-3.0, 6.0, size=k + int(rng.integers(0, 2))))
            p_sq = tuple(10.0 ** rng.uniform(-3.0, 6.0, size=k))
            got = combine_stability_parts(float(e0), float(e1), z_sq, p_sq)
            want = reference(float(e0), float(e1), z_sq, p_sq)
            assert _bits(got.coeffs) == _bits(want.coeffs)


class TestSpectralSquare:
    def test_quadratic_closed_form(self):
        # [1, l1, l2] -> [1, 2 l2 - l1^2, l2^2]
        out = spectral_square_head(Polynomial([1.0, 2.0, 1.0]), 2)
        assert out == (1.0, -2.0, 1.0)

    def test_constant_identity(self):
        assert spectral_square_head(Polynomial([1.0]), 0) == (1.0,)

    def test_benchmark_product_s2_coefficient(self):
        m = Polynomial([1.0, 0.15988, 0.0063139, 7.2525e-05])
        assert spectral_square_head(m, 1)[1] == pytest.approx(-0.0129338, abs=1e-5)

    def test_requires_unit_constant(self):
        with pytest.raises(NotNormalized):
            spectral_square_head(Polynomial([2.0, 1.0]), 1)

    def test_overflowing_square_is_inf(self):
        assert (spectral_square_head(Polynomial([1.0, 1e200]), 1)
                == (1.0, -math.inf))

    def test_head_is_leading_coefficients_bitwise(self):
        def reference(p):
            # the closed-form sum over every x, coefficient by coefficient
            m, u = p.coeff, p.degree
            out = [1.0]
            for x in range(1, u + 1):
                acc = (-1.0) ** x * m(x) ** 2
                for i in range(x):
                    acc += (-1.0) ** i * 2.0 * m(i) * m(2 * x - i)
                out.append(acc)
            return tuple(out)

        rng = np.random.default_rng(3301)
        for _ in range(80):
            deg = int(rng.integers(1, 13))
            p = Polynomial([1.0] + (rng.uniform(-1.0, 1.0, size=deg)
                                    * 10.0 ** rng.uniform(-4.0, 2.0, size=deg)
                                    ).tolist())
            full = reference(p)
            for q in range(deg + 1):
                assert _bits(spectral_square_head(p, q)) == _bits(full[:q + 1])
            # past the degree, +0.0
            assert (_bits(spectral_square_head(p, deg + 2))
                    == _bits(full + (0.0, 0.0)))

    def test_matches_squared_magnitude_property(self):
        rng = np.random.default_rng(8452)
        omega = np.logspace(-2.0, 3.0, 100)
        for _ in range(60):
            deg = int(rng.integers(1, 7))
            p = Polynomial([1.0])
            for tau in 1.0 / 10.0 ** rng.uniform(-1.0, 2.0, size=deg):
                p = poly_mul(p, Polynomial([1.0, float(tau)]))
            ss = Polynomial(spectral_square_head(p, deg))
            for w in omega:
                lhs = abs(poly_eval(p, 1j * w)) ** 2
                rhs = poly_eval(ss, -w * w).real
                assert rhs == pytest.approx(lhs, rel=1e-10)


class TestDcGain:
    def test_simple_ratio(self):
        assert dc_gain(TransferFunction.from_coeffs([2.0, 1.0], [1.0, 1.0])) == 2.0

    def test_pole_at_origin(self):
        with pytest.raises(PoleAtOrigin):
            dc_gain(TransferFunction.from_coeffs([1.0], [0.0, 1.0]))


class TestTransferFunctionInvariants:
    def test_empty_polynomial_rejected(self):
        with pytest.raises(ValidationError):
            Polynomial([])

    def test_improper_rejected(self):
        with pytest.raises(ValidationError):
            TransferFunction.from_coeffs([1.0, 1.0, 1.0], [1.0, 1.0])

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValidationError):
            TransferFunction.from_coeffs([1.0], [0.0])

    def test_equal_degrees_allowed(self):
        g = TransferFunction.from_coeffs([1.0, 2.0], [1.0, 1.0])
        assert g.num.degree == g.den.degree
