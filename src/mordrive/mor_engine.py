"""Mixed model-order reduction for stable, proper transfer functions.

The pipeline has three stages: the reduced denominator keeps the
lowest-frequency quadratic factors of the even/odd split, the reduced
numerator of any order q is chosen so the leading q + 1 coefficients of
|G|^2/|Gr|^2 match (found from the roots of one power series in s^2),
and an optional percentage adjustment trades the s and s^2 denominator
coefficients against each other.
"""
from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadOrder,
    MatchInfeasible,
    MorDriveError,
    NotNormalized,
    NumericError,
    ValidationError,
)
from .poly_tf import (
    Polynomial,
    StabilityFactorization,
    TransferFunction,
    _trimmed,
    combine_stability_parts,
    dc_gain,
    poly_eval,
    poly_mul,
    poly_roots,
    spectral_square_head,
)
from .sim_analysis import step_ise

# Largest number of candidate numerators one match may build: one per
# choice of sign of each nonzero root of the matched spectral series.
# All are formed and ranked as coefficient lists, and only the top-ranked
# one becomes a Polynomial and is squared.
MAX_MATCH_CANDIDATES = 4096

# Most percents an auto grid may hold.  step_ise scores them all in one
# stack, at a peak of 14 KiB per percent for the benchmark loop (r = 2)
# and 617 KiB for a degree-20 lag chain reduced to r = 19, so 300
# percents take about 4 MiB and 181 MiB; a 0.05-percent step over the
# whole 1-15 range (281 percents) fits.
MAX_AUTO_PERCENTS = 300

# Log grid of the reported squared-magnitude residual: 60 points/decade
# over 1e-1..1e4 rad/s.
RESIDUAL_GRID = np.logspace(-1.0, 4.0, 60 * 5 + 1)


@dataclass(frozen=True)
class ReductionConfig:
    """Knobs for ``reduce``.

    ``numerator_order`` defaults to ``target_order - 1``.  The adjust
    mode is one of ``none``, ``fixed`` (with ``adjust_percent``) or
    ``auto``, which scans ``auto_grid`` (start, stop, step percents,
    at most ``MAX_AUTO_PERCENTS`` of them) for the step-response ISE
    minimizer.  Orders must be integers.
    """

    target_order: int
    numerator_order: int | None = None
    adjust_mode: str = "none"
    adjust_percent: float | None = None
    auto_grid: tuple[float, float, float] = (1.0, 15.0, 0.5)

    def __post_init__(self):
        if not (isinstance(self.target_order, (int, np.integer))
                and isinstance(self.q, (int, np.integer))):
            raise BadOrder("target and numerator orders must be integers")
        if self.target_order < 1:
            raise BadOrder("target order must be >= 1")
        if self.numerator_order is not None:
            if not 0 <= self.numerator_order < self.target_order:
                raise BadOrder("numerator order must satisfy 0 <= q < r")
        if self.adjust_mode not in ("none", "fixed", "auto"):
            raise ValidationError("adjust mode must be none, fixed or auto")
        if self.adjust_mode == "fixed":
            if self.adjust_percent is None or not 0.0 < self.adjust_percent <= 15.0:
                raise ValidationError("fixed adjust percent must be in (0, 15]")
        lo, hi, step = self.auto_grid
        if not (1.0 <= lo <= hi <= 15.0 and step > 0.0):
            raise ValidationError("auto grid must stay within [1, 15] percent")
        # the length of _auto_adjust's arange is the ceiling of this ratio
        if not (math.isfinite(step)
                and 0.0 < (hi + step / 2.0 - lo) / step <= MAX_AUTO_PERCENTS):
            raise ValidationError(
                f"auto grid step {step} must be finite and give 1 to "
                f"{MAX_AUTO_PERCENTS} percents")

    @property
    def q(self) -> int:
        if self.numerator_order is None:
            return self.target_order - 1
        return self.numerator_order


@dataclass(frozen=True)
class ReductionResult:
    """Reduced model plus the diagnostics behind it: ``original`` is the
    full model reduced, ``step_ise`` the auto scan's score of the chosen
    percent (None in the other modes or when every percent failed)."""

    reduced: TransferFunction
    original: TransferFunction
    factorization: StabilityFactorization
    matched_conditions: tuple[tuple[float, float], ...]
    chosen_n: float | None
    step_ise: float | None = None
    warnings: tuple[str, ...] = ()

    @functools.cached_property
    def residual_epsilon(self) -> float:
        """``residual_epsilon(self.original, self.reduced)``, found on
        first read and kept like ``Polynomial.roots``; a value that is
        not finite raises ``NumericError`` on every read."""
        eps = residual_epsilon(self.original, self.reduced)
        if not math.isfinite(eps):
            raise NumericError(f"residual epsilon of the reduced model is {eps}")
        return eps


def reduce_denominator(den: Polynomial, r: int) -> Polynomial:
    """Order-r denominator from the lowest even/odd quadratic factors.

    Keeps the ``r // 2`` smallest squared even-root magnitudes and the
    ``(r - 1) // 2`` smallest odd ones, then recombines.  The result
    has degree exactly r and the same constant term as the input.  It is
    kept in ``den.reduced_orders``, so every numerator order at one r
    shares one object; a failure is not kept.
    """
    if not 1 <= r < den.degree:
        raise BadOrder(f"reduced order must satisfy 1 <= r < {den.degree}")
    kept = den.reduced_orders
    if r not in kept:
        fact = den.factorization
        reduced = combine_stability_parts(
            fact.e0, fact.e1, fact.z_sq[:r // 2], fact.p_sq[:(r - 1) // 2])
        if reduced.degree != r:
            raise MorDriveError(
                f"reduced denominator degree {reduced.degree} != {r}")
        kept[r] = reduced
    return kept[r]


def adjust_denominator(d_r: Polynomial, n: float) -> Polynomial:
    """Raise the s coefficient by n% and lower the s^2 coefficient by n%."""
    if d_r.degree < 2:
        raise BadOrder("adjustment needs denominator degree >= 2")
    if not 0.0 < n <= 15.0:
        raise ValidationError("adjust percent must be in (0, 15]")
    return Polynomial(_adjusted(d_r.coeffs, n)[0])


def _adjusted(coeffs: tuple[float, ...], n: float | np.ndarray) -> np.ndarray:
    """One row of ``coeffs`` per percent in ``n``, with the s coefficient
    times (1 + n/100) and the s^2 coefficient times (1 - n/100)."""
    rows = np.tile(coeffs, (np.size(n), 1))
    rows[:, 1] *= 1.0 + n / 100.0
    rows[:, 2] *= 1.0 - n / 100.0
    return rows


def residual_epsilon(g: TransferFunction, gr: TransferFunction) -> float:
    """max over RESIDUAL_GRID of | |G/Gr|^2 - 1 |, which only a report
    reads.  The complex ratio (N_g D_r) / (D_g N_r) is formed first, so
    no factor is squared on its own and overflows; a value that
    overflows anyway gives inf or nan."""
    s = 1j * RESIDUAL_GRID
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ng_dr = poly_eval(g.num, s) * poly_eval(gr.den, s)
        ratio = np.abs(ng_dr / (poly_eval(g.den, s) * poly_eval(gr.num, s))) ** 2
    return float(np.max(np.abs(ratio - 1.0)))


def _check_normalized(p: Polynomial, what: str) -> None:
    if p.coeffs[0] != 1.0:
        raise NotNormalized(f"{what} must have unit constant term")


def _root_factors(g: TransferFunction, d_r: Polynomial,
                  big_l: tuple[float, ...], q: int) -> list[tuple[np.ndarray, ...]]:
    """The two sign choices of each factor of a numerator N with
    N(s)N(-s) matching L = spectral_square_head(g.num d_r, q) to s^(2q).

    S = L / spectral_square_head(g.den, q), as a power series in x = s^2,
    is N(s)N(-s) = prod(1 - u_k x) with N = prod(1 + b_k s) and
    u_k = b_k^2, so the u_k are the roots of u^q + S_1 u^(q-1) + ... + S_q.
    Each positive root gives the factors 1 +- sqrt(u) s, each complex pair
    the real quadratics with b = +-sqrt(u) and its conjugate; a root no
    larger than 1e-8 times the largest counts as zero and gives no factor.
    Any other negative root admits no real numerator.
    """
    big_d = spectral_square_head(g.den, q)
    series = []
    for x in range(q + 1):
        acc = big_l[x]
        for i in range(1, x + 1):
            acc -= big_d[i] * series[x - i]
        series.append(acc)
    u = poly_roots(Polynomial(series[::-1]))
    floor = 1e-8 * max(abs(z) for z in u)
    factors = []
    for z in u:
        if abs(z) <= floor or z.imag < 0.0:
            continue
        if z.imag > 0.0:
            b = cmath.sqrt(z)
            factors.append((np.array([1.0, 2.0 * b.real, abs(z)]),
                            np.array([1.0, -2.0 * b.real, abs(z)])))
        elif z.real > 0.0:
            b = math.sqrt(z.real)
            factors.append((np.array([1.0, b]), np.array([1.0, -b])))
        else:
            raise MatchInfeasible(
                f"matching conditions (q = {q}, r = {d_r.degree}) need "
                f"{'C1^2' if q == 1 else 'u = b^2'} = {z.real:.6e} < 0",
                discriminant=z.real)
    if 2 ** len(factors) > MAX_MATCH_CANDIDATES:
        raise BadOrder(
            f"numerator order q = {q} has {2 ** len(factors)} candidate "
            f"numerators, more than the budget of {MAX_MATCH_CANDIDATES}; "
            "pass a smaller --numerator-order")
    return factors


def match_numerator(g: TransferFunction, d_r: Polynomial, q: int) -> Polynomial:
    """Numerator of order q matching the squared-magnitude expansion.

    ``g`` must be DC-normalized (both constant terms exactly 1) and
    ``d_r`` likewise.  Exactly q conditions are imposed; q = 0 returns
    the constant numerator.  For any q the numerators that meet them are
    found from the roots of the matched spectral series (Chen, Chang &
    Han, 1979), one per choice of sign of each root; more than
    ``MAX_MATCH_CANDIDATES`` of them are refused with ``BadOrder``.  All
    meet the q conditions exactly and give the same |N(jw)|^2, so the
    ranking decides: first the one whose coefficients agree in sign with
    the original numerator most often, then the one with the largest
    coefficients, compared from the lowest power up.  The top-ranked one
    is returned; ``MatchInfeasible`` means a negative root, for which no
    real numerator exists.
    """
    return _match(g, d_r, q)[0]


def _match(g: TransferFunction, d_r: Polynomial, q: int
           ) -> tuple[Polynomial, tuple[tuple[float, float], ...]]:
    """``match_numerator`` plus the winner's matched condition pairs."""
    _check_normalized(g.num, "numerator")
    _check_normalized(g.den, "denominator")
    _check_normalized(d_r, "reduced denominator")
    if not 0 <= q <= d_r.degree:
        raise BadOrder(f"numerator order must satisfy 0 <= q <= {d_r.degree}")
    if q == 0:
        return Polynomial([1.0]), ()

    big_l = spectral_square_head(poly_mul(g.num, d_r), q)
    # most powers 1..q agreeing in sign with g.num first, then largest
    # coefficients from the lowest power up; ties keep the built order.
    # Each choice is ranked by the coefficients its Polynomial would
    # store, and only the winner's is built.
    signs = [math.copysign(1.0, c) if c != 0.0 else 0.0
             for c in g.num.coeffs[1:q + 1]]
    best = min((_trimmed(functools.reduce(np.convolve, choice).tolist())
                if choice else [1.0]
                for choice in itertools.product(*_root_factors(g, d_r, big_l, q))),
               key=lambda coeffs: (
                   -sum(c != 0.0 and math.copysign(1.0, c) == s
                        for c, s in zip(coeffs[1:], signs)),
                   tuple(-c for c in coeffs)))
    n_r = Polynomial(best)
    big_m = spectral_square_head(poly_mul(g.den, n_r), q)
    return n_r, tuple(zip(big_l[1:], big_m[1:]))


def _auto_adjust(g: TransferFunction, k: float, n_r: Polynomial,
                 d_r: Polynomial, cfg: ReductionConfig):
    """Scan the percent grid for the step-response ISE minimizer.

    All percents are scored at once by the exact step-error ISE over
    5 x the slowest time constant of the full model (``step_ise``, no
    time grid).  Unstable candidates and non-finite or negative scores
    are rejected; ties go to the smaller percent.  Returns the percent,
    the denominator, its score and the warnings.
    """
    lo, hi, step = cfg.auto_grid
    grid = np.arange(lo, hi + step / 2.0, step)
    scores = np.full(len(grid), np.nan)
    if d_r.degree >= 2:  # adjust_denominator refuses lower degrees
        dens = _adjusted(d_r.coeffs, grid)
        scores = step_ise(g, n_r.scaled(k).coeffs, dens)
    ok = np.isfinite(scores) & (scores >= 0.0)
    if not np.any(ok):
        return None, d_r, None, ("auto adjustment failed for every percent; "
                                 "returning the unadjusted denominator",)
    best = int(np.argmin(np.where(ok, scores, np.inf)))
    return float(grid[best]), Polynomial(dens[best]), float(scores[best]), ()


def reduce(g: TransferFunction, cfg: ReductionConfig) -> ReductionResult:
    """Full reduction pipeline for a stable, proper transfer function.

    Normalizes out the DC gain, reduces the denominator, matches the
    numerator, optionally applies the percent adjustment, and restores
    the gain, so the reduced model keeps the original DC gain exactly.
    A target order equal to the input degree keeps the denominator
    unchanged (identity reduction).  The residual epsilon is not
    computed here but when the result's ``residual_epsilon`` is read.
    """
    g_hat = g.dc_normalized
    k = dc_gain(g)
    den_hat = g_hat.den
    fact = den_hat.factorization
    if cfg.target_order > den_hat.degree:
        raise BadOrder(f"reduced order must satisfy 1 <= r <= {den_hat.degree}")
    d_r = (den_hat if cfg.target_order == den_hat.degree
           else reduce_denominator(den_hat, cfg.target_order))
    n_r, pairs = _match(g_hat, d_r, cfg.q)

    chosen_n: float | None = None
    score: float | None = None
    notes: tuple[str, ...] = ()
    d_final = d_r
    if cfg.adjust_mode == "fixed":
        d_final = adjust_denominator(d_r, cfg.adjust_percent)
        chosen_n = cfg.adjust_percent
    elif cfg.adjust_mode == "auto":
        chosen_n, d_final, score, notes = _auto_adjust(g, k, n_r, d_r, cfg)

    return ReductionResult(reduced=TransferFunction(n_r.scaled(k), d_final),
                           original=g, factorization=fact,
                           matched_conditions=pairs, chosen_n=chosen_n,
                           step_ise=score, warnings=notes)
