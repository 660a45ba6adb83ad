"""Polynomial and rational transfer-function kernel.

Coefficients are stored in ascending powers of s everywhere in this
package: ``coeffs[i]`` multiplies ``s**i``.  All values are immutable
after construction and every operation is a pure function, so the types
are safe to share between threads.  ``Polynomial.roots``,
``Polynomial.factorization``, ``Polynomial.reduced_orders`` (the
per-order reduced denominators) and ``TransferFunction.dc_normalized``
are pure caches filled on first use, kept on the object itself and never
keyed by value, so a race at worst computes one twice.  ``poly_roots``
and ``poly_eval`` are the one-row cases of the stacked kernels
``_roots_of_rows`` (the one eigensolve, which a gain sweep and the auto
scan call) and ``_horner``; ``poly_roots`` alone returns a degree-1 root
in LAPACK's unscaled range as -c0 / c1, the 1 x 1 eigenvalue, without it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    NonConvergence,
    NotFactorable,
    NotNormalized,
    PoleAtOrigin,
    ValidationError,
    ZeroConstantTerm,
)

# Primary residual bound for accepted roots, relative to max|coeff|.
_ROOT_RESIDUAL_REL = 1e-10
_EPS = float(np.finfo(float).eps)

# LAPACK's eigensolver scales a matrix whose largest entry lies outside
# [sqrt(tiny) / eps, its inverse] = [2^-459, 2^459], which can move the
# last bit of an eigenvalue; inside it a 1 x 1 matrix's is its entry.
_EIG_UNSCALED = (2.0 ** -459, 2.0 ** 459)

# Imaginary parts below this (relative) size count as zero when a real
# root is required.
_REAL_IMAG_TOL = 1e-8


@dataclass(frozen=True)
class Polynomial:
    """Real-coefficient polynomial in ascending powers of s.

    Construction drops only leading coefficients that are exactly zero;
    every other coefficient is kept, however small next to the rest.
    """

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Sequence[float]):
        if (isinstance(coeffs, np.ndarray) and coeffs.ndim == 1
                and coeffs.dtype == np.float64):
            vals = coeffs.tolist()  # the same Python floats, in one call
        else:
            vals = [float(c) for c in coeffs]
        if not vals:
            raise ValidationError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(_trimmed(vals)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @functools.cached_property
    def roots(self) -> tuple[complex, ...]:
        """``poly_roots(self)``, found on first access and kept; a failure
        is not kept and raises again on the next access."""
        return tuple(poly_roots(self))

    @functools.cached_property
    def factorization(self) -> "StabilityFactorization":
        """``even_odd_factor(self)``, kept like ``roots``."""
        return even_odd_factor(self)

    @functools.cached_property
    def reduced_orders(self) -> dict[int, "Polynomial"]:
        """Order r -> ``mor_engine.reduce_denominator(self, r)``, which
        fills it on success, so each order is built once per object."""
        return {}

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    def coeff(self, power: int) -> float:
        """Coefficient of s**power, zero beyond the stored degree."""
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return 0.0

    def scaled(self, factor: float) -> "Polynomial":
        return Polynomial([factor * c for c in self.coeffs])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return poly_mul(self, other)


def _trimmed(vals: list[float]) -> list[float]:
    """``vals`` less the exact zeros at its end (the highest powers), its
    first entry always kept: what a ``Polynomial`` of them stores."""
    while len(vals) > 1 and vals[-1] == 0.0:
        vals.pop()
    return vals


def poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """Product polynomial (coefficient convolution)."""
    return Polynomial(np.convolve(a.coeffs, b.coeffs))


def poly_eval(p: Polynomial, s: complex | np.ndarray) -> complex | np.ndarray:
    """``_horner`` on one row, at a point (giving a Python ``complex``)
    or elementwise over an array (giving a complex array of its shape)."""
    x = np.asarray(s, dtype=complex)
    out = _horner(np.array([p.coeffs]), x.reshape(1, -1)).reshape(x.shape)
    return complex(out) if out.ndim == 0 else out


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row i of ascending ``coeffs`` at each x[i, j] by Horner's rule,
    with the steps of NumPy's own evaluator, out of place as there: NumPy
    rounds an in-place complex product of one element differently."""
    y = np.zeros_like(x)
    for col in coeffs.T[::-1, :, None]:
        y = y * x + col
    return y


def poly_roots(p: Polynomial) -> list[complex]:
    """All complex roots, sorted by ascending (real, imag), each with
    ``|p(root)| <= max(1e-10 * max|coeff|, 4 n eps sum|c_i||root|^i)``,
    or ``NonConvergence``: ``_roots_of_rows`` on one row.  A degree-1
    root -c0 / c1 inside LAPACK's unscaled range is that kernel's 1 x 1
    companion eigenvalue, whose residual is within 2 eps |c0|, so it is
    returned without the kernel."""
    if p.degree < 1:
        raise ValidationError("root finding needs degree >= 1")
    if p.degree == 1:
        top = -p.coeffs[0] / p.coeffs[1]
        if _EIG_UNSCALED[0] <= abs(top) <= _EIG_UNSCALED[1]:
            return [complex(top)]
    z, failures = _roots_of_rows(np.array([p.coeffs]))
    if failures[0] is not None:
        raise NonConvergence(failures[0])
    return z[0].tolist()


def _roots_of_rows(coeffs: np.ndarray) -> tuple[np.ndarray, list[str | None]]:
    """``poly_roots`` of each row of ``coeffs``, an (m, n + 1) stack of
    ascending coefficients with a nonzero last column, as an (m, n)
    complex array, and per row None or why it failed (its roots NaN).

    The roots are ``np.roots``' bit for bit, from one companion
    eigensolve per count of zero constant terms (row by row if it fails
    on finite matrices), but a root over the residual bound gets one
    Newton step, kept where it leaves a finite, lower residual.  A finite
    row whose companion entries c_i / c_n overflow, where ``np.roots``
    fails, is solved as p(2^k u) instead, with 2^k about its largest
    root, and s = 2^k u.
    """
    m, n = coeffs.shape[0], coeffs.shape[1] - 1
    z = np.zeros((m, n), dtype=complex)
    failures: list[str | None] = [None] * m
    if coeffs[:, 0].all():
        groups = [(slice(None), 0)]
    else:
        zero_terms = np.argmax(coeffs != 0.0, axis=1)
        groups = [(zero_terms == t, t)
                  for t in sorted(set(zero_terms.tolist())) if t < n]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for rows, t in groups:
            size = n - t
            desc = coeffs[rows, t:][:, ::-1]
            top = -desc[:, 1:] / desc[:, :1]  # the companion's first row
            finite = np.isfinite(top).all(axis=1) & np.isfinite(desc[:, 0])
            scaled = []
            if not finite.all():
                finite, scaled = _rebalance(desc, top, finite)
                top[~finite] = 0.0  # solved as zeros and failed, not retried
                for i in np.arange(m)[rows][~finite].tolist():
                    failures[i] = "companion eigenvalues failed: not finite"
            a = np.zeros((len(desc), size, size))
            a.reshape(len(desc), -1)[:, size::size + 1] = 1.0  # subdiagonal
            a[:, 0, :] = top
            try:
                z[rows, :size] = np.linalg.eigvals(a)
            except np.linalg.LinAlgError:
                for j, i in enumerate(np.arange(m)[rows].tolist()):
                    try:
                        z[i, :size] = np.linalg.eigvals(a[j:j + 1])
                    except np.linalg.LinAlgError as exc:
                        failures[i] = f"companion eigenvalues failed: {exc}"
            for j, k in scaled:  # s = 2^k u, exactly
                u = z[np.arange(m)[rows][j]]  # a view
                u.real, u.imag = np.ldexp(u.real, k), np.ldexp(u.imag, k)
        if not np.isfinite(z).all():
            for i in np.flatnonzero(~np.isfinite(z).all(axis=1)).tolist():
                failures[i] = "companion eigenvalues are non-finite"
        if n > 1:
            z = np.sort(z, axis=1, kind="stable")
        pz = _horner(coeffs, z)
        # The limit is at least the primary bound, so its rounding floor
        # is needed only at roots past that bound.
        over = np.abs(pz) > _ROOT_RESIDUAL_REL * np.abs(coeffs).max(
            axis=1, keepdims=True)
        if over.any():
            over[over] = np.abs(pz[over]) > _root_limit(
                coeffs[np.nonzero(over)[0]], z[over][:, None])[:, 0]
        if over.any():
            rows = np.nonzero(over)[0]
            c, zo, pzo = coeffs[rows], z[over][:, None], pz[over][:, None]
            newton = zo - pzo / _horner(c[:, 1:] * np.arange(1, n + 1), zo)
            res, res_newton = np.abs(pzo), np.abs(_horner(c, newton))
            keep = np.isfinite(res_newton) & (res_newton < res)
            zo, res = np.where(keep, newton, zo), np.where(keep, res_newton, res)
            z[over] = zo[:, 0]
            if n > 1:
                z = np.sort(z, axis=1, kind="stable")
            for i, r, lim in zip(rows.tolist(), res[:, 0].tolist(),
                                 _root_limit(c, zo)[:, 0].tolist()):
                if r > lim and failures[i] is None:
                    failures[i] = f"root residual {r:.3e} exceeds {lim:.3e}"
        if any(failures):
            z[[why is not None for why in failures]] = np.nan
    return z, failures


def _rebalance(desc: np.ndarray, top: np.ndarray, finite: np.ndarray):
    """Rebuild in place each non-finite companion first row ``top[j]`` of
    a finite descending row ``desc[j]`` of degree d as that of p(2^k u),
    for the least k >= 0 that keeps each entry -c_i 2^(k i) / (c_d 2^(k d))
    within 2 in size.  With each c = m 2^e, an entry is rounded once, from
    -(m_i / m_d) 2^(e_i - e_d - k (d - i)), as an unscaled one would be.
    Returns which tops are finite now and (j, k) per row rebuilt."""
    redo = ~finite & np.isfinite(desc).all(axis=1)
    if not redo.any():
        return finite, []
    m, e = np.frexp(desc[redo])
    gap, steps = e[:, 1:] - e[:, :1], np.arange(1, desc.shape[1])
    k = np.where(m[:, 1:] != 0.0, -(-gap // steps), 0).max(axis=1)
    top[redo] = -np.ldexp(m[:, 1:] / m[:, :1], gap - k[:, None] * steps)
    return finite | redo, list(zip(np.flatnonzero(redo).tolist(), k.tolist()))


def _root_limit(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``poly_roots``' residual bound at each root z[i, j] of row i of
    ``coeffs``: the primary bound, relaxed to the rounding floor of
    evaluating p(z), below which |p(z)| cannot be told from zero."""
    n = coeffs.shape[1] - 1
    bound = _ROOT_RESIDUAL_REL * np.abs(coeffs).max(axis=1, keepdims=True)
    return np.maximum(bound,
                      4.0 * n * _EPS * _horner(np.abs(coeffs), np.abs(z)))


def is_stable(p: Polynomial) -> bool:
    """True iff every root lies strictly in the left half-plane."""
    if p.degree < 1:
        raise ValidationError("stability test needs degree >= 1")
    return all(r.real < 0.0 for r in p.roots)


@dataclass(frozen=True)
class StabilityFactorization:
    """Even/odd split of a Hurwitz polynomial into quadratic factors.

    The even part is ``e0 * prod(1 + s^2/z_sq[i])`` and the odd part
    ``e1 * s * prod(1 + s^2/p_sq[i])``.  Both lists are ascending and
    strictly interlaced: z1^2 < p1^2 < z2^2 < ...
    """

    e0: float
    e1: float
    z_sq: tuple[float, ...]
    p_sq: tuple[float, ...]


def _positive_real_neg_roots(poly_in_x: Polynomial, what: str) -> tuple[float, ...]:
    """Roots of a polynomial in x = s^2, returned as ascending -x > 0."""
    if poly_in_x.degree < 1:
        return ()
    out = []
    for r in poly_roots(poly_in_x):
        if abs(r.imag) > _REAL_IMAG_TOL * (1.0 + abs(r.real)):
            raise NotFactorable(f"{what} has a complex squared-root magnitude: {r}")
        if r.real >= 0.0:
            raise NotFactorable(f"{what} has a non-positive squared magnitude: {r.real}")
        out.append(-r.real)
    out.sort()
    return tuple(out)


def even_odd_factor(d: Polynomial) -> StabilityFactorization:
    """Split a Hurwitz polynomial into interlaced even/odd factors.

    Raises ``ZeroConstantTerm`` when d(0) = 0 (a pole at the origin is
    outside the method) and ``NotFactorable`` for any input that fails
    the even/odd interlacing test, which is exactly the class of
    non-Hurwitz or degenerate polynomials.
    """
    c = d.coeffs
    if d.degree < 1:
        raise ValidationError("factorization needs degree >= 1")
    if c[0] == 0.0:
        raise ZeroConstantTerm("constant term is zero (pole at the origin)")
    sign = math.copysign(1.0, c[0])
    if any(ci == 0.0 or math.copysign(1.0, ci) != sign for ci in c):
        # Hurwitz polynomials have all coefficients of one strict sign.
        raise NotFactorable("mixed-sign or zero coefficients; not Hurwitz")

    even_x = Polynomial(c[0::2])
    odd_x = Polynomial(c[1::2])
    z_sq = _positive_real_neg_roots(even_x, "even part")
    p_sq = _positive_real_neg_roots(odd_x, "odd part")
    for i, pv in enumerate(p_sq):
        if not z_sq[i] < pv:
            raise NotFactorable(f"interlacing broken: z{i + 1}^2 >= p{i + 1}^2")
        if i + 1 < len(z_sq) and not pv < z_sq[i + 1]:
            raise NotFactorable(f"interlacing broken: p{i + 1}^2 >= z{i + 2}^2")

    return StabilityFactorization(e0=c[0], e1=c[1], z_sq=z_sq, p_sq=p_sq)


def combine_stability_parts(e0: float, e1: float,
                            z_sq: Sequence[float],
                            p_sq: Sequence[float]) -> Polynomial:
    """Rebuild ``e0*prod(1+s^2/z^2) + e1*s*prod(1+s^2/p^2)``."""
    even = np.array([e0], dtype=float)
    for z2 in z_sq:
        even = np.convolve(even, [1.0, 0.0, 1.0 / z2])
    odd = np.array([0.0, e1])
    for p2 in p_sq:
        odd = np.convolve(odd, [1.0, 0.0, 1.0 / p2])
    parts = np.zeros((2, max(len(even), len(odd))))
    parts[0, :len(even)], parts[1, :len(odd)] = even, odd
    return Polynomial(parts[0] + parts[1])


def spectral_square_head(p: Polynomial, q: int) -> tuple[float, ...]:
    """Coefficients of x^0..x^q of p(s)·p(-s), a polynomial in x = s^2.

    The input must have unit constant term.  Coefficient x is the
    closed-form sum ``sum_i (-1)^i 2 m_i m_{2x-i} + (-1)^x m_x^2``, so
    the q + 1 leading ones that numerator matching reads cost O(q^2).
    Past the degree of p every sum is +0.0; a term that overflows is inf.
    """
    if p.coeffs[0] != 1.0:
        raise NotNormalized("spectral square expects unit constant term")
    m = p.coeff
    out = [1.0]
    for x in range(1, q + 1):
        try:  # not m * m, which rounds some squares apart
            acc = (-1.0) ** x * m(x) ** 2
        except OverflowError:  # where m * m gives inf
            acc = (-1.0) ** x * math.inf
        for i in range(x):
            acc += (-1.0) ** i * 2.0 * m(i) * m(2 * x - i)
        out.append(acc)
    return tuple(out)


@dataclass(frozen=True)
class TransferFunction:
    """Proper rational function num(s)/den(s)."""

    num: Polynomial
    den: Polynomial

    def __post_init__(self):
        if self.den.is_zero:
            raise ValidationError("denominator must not be the zero polynomial")
        if self.num.degree > self.den.degree:
            raise ValidationError(
                f"improper transfer function: numerator degree {self.num.degree} "
                f"exceeds denominator degree {self.den.degree}"
            )

    @classmethod
    def from_coeffs(cls, num: Sequence[float], den: Sequence[float]) -> "TransferFunction":
        return cls(Polynomial(num), Polynomial(den))

    def __call__(self, s: complex) -> complex:
        return poly_eval(self.num, s) / poly_eval(self.den, s)

    @functools.cached_property
    def dc_normalized(self) -> "TransferFunction":
        """num/num(0) over den/den(0), kept like ``Polynomial.roots``."""
        n0, d0 = self.num.coeffs[0], self.den.coeffs[0]
        if d0 == 0.0:
            raise ZeroConstantTerm("denominator constant term is zero")
        if n0 == 0.0:
            raise ZeroConstantTerm(
                "numerator constant term is zero; DC normalization impossible")
        return TransferFunction(Polynomial([c / n0 for c in self.num.coeffs]),
                                Polynomial([c / d0 for c in self.den.coeffs]))


def dc_gain(g: TransferFunction) -> float:
    """Transfer-function value at s = 0."""
    if g.den.coeffs[0] == 0.0:
        raise PoleAtOrigin("DC gain undefined: pole at the origin")
    return g.num.coeffs[0] / g.den.coeffs[0]
