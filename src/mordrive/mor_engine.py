"""Mixed model-order reduction for stable, proper transfer functions.

The pipeline has three stages: the reduced denominator keeps the
lowest-frequency quadratic factors of the even/odd split, the reduced
numerator is chosen so the leading coefficients of |G|^2/|Gr|^2 match,
and an optional percentage adjustment trades the s and s^2 denominator
coefficients against each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadOrder,
    MatchInfeasible,
    MorDriveError,
    NotNormalized,
    Unsupported,
    ValidationError,
)
from .poly_tf import (
    Polynomial,
    StabilityFactorization,
    TransferFunction,
    combine_stability_parts,
    dc_gain,
    poly_eval,
    poly_mul,
    poly_roots,
    spectral_square,
)
from .sim_analysis import (DEFAULT_HORIZON_FACTOR, characteristic_times,
                           step_ise)

# Log grid used for the squared-magnitude residual and for picking
# between candidate numerators: 60 points/decade over 1e-1..1e4 rad/s.
RESIDUAL_GRID = np.logspace(-1.0, 4.0, 60 * 5 + 1)

_TIE_REL = 1e-9
_MATCH_CHECK_REL = 1e-9


@dataclass(frozen=True)
class ReductionConfig:
    """Knobs for ``reduce``.

    ``numerator_order`` defaults to ``target_order - 1``.  The adjust
    mode is one of ``none``, ``fixed`` (with ``adjust_percent``) or
    ``auto``, which scans ``auto_grid`` (start, stop, step percents)
    for the step-response ISE minimizer.
    """

    target_order: int
    numerator_order: int | None = None
    adjust_mode: str = "none"
    adjust_percent: float | None = None
    auto_grid: tuple[float, float, float] = (1.0, 15.0, 0.5)

    def __post_init__(self):
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

    @property
    def q(self) -> int:
        if self.numerator_order is None:
            return self.target_order - 1
        return self.numerator_order


@dataclass(frozen=True)
class ReductionResult:
    """Reduced model plus the diagnostics behind it."""

    reduced: TransferFunction
    factorization: StabilityFactorization
    matched_conditions: tuple[tuple[float, float], ...]
    residual_epsilon: float
    chosen_n: float | None
    warnings: tuple[str, ...] = ()


def reduce_denominator(den: Polynomial, r: int) -> Polynomial:
    """Order-r denominator from the lowest even/odd quadratic factors.

    Keeps the ``r // 2`` smallest squared even-root magnitudes and the
    ``(r - 1) // 2`` smallest odd ones, then recombines.  The result
    has degree exactly r and the same constant term as the input.
    """
    if not 1 <= r < den.degree:
        raise BadOrder(f"reduced order must satisfy 1 <= r < {den.degree}")
    fact = den.factorization
    reduced = combine_stability_parts(
        fact.e0, fact.e1, fact.z_sq[:r // 2], fact.p_sq[:(r - 1) // 2])
    if reduced.degree != r:
        raise MorDriveError(f"reduced denominator degree {reduced.degree} != {r}")
    return reduced


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


def _epsilon(ng_dr: np.ndarray, dg: np.ndarray, nr: np.ndarray) -> float:
    """max | |(N_g D_r) / (D_g N_r)|^2 - 1 | from grid values; the complex
    ratio is formed first, so no factor is squared on its own and overflows."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(ng_dr / (dg * nr)) ** 2
    return float(np.max(np.abs(ratio - 1.0)))


def residual_epsilon(g: TransferFunction, gr: TransferFunction,
                     omega: np.ndarray | None = None) -> float:
    """max over the grid of | |G/Gr|^2 - 1 |."""
    s = 1j * (RESIDUAL_GRID if omega is None else omega)
    return _epsilon(poly_eval(g.num, s) * poly_eval(gr.den, s),
                    poly_eval(g.den, s), poly_eval(gr.num, s))


def matched_condition_pairs(g: TransferFunction, d_r: Polynomial,
                            n_r: Polynomial,
                            q: int) -> tuple[tuple[float, float], ...]:
    """Recomputed (L_2x, M_2x) pairs for x = 1..q."""
    big_l = spectral_square(poly_mul(g.num, d_r))
    big_m = spectral_square(poly_mul(g.den, n_r))
    return tuple((big_l.coeff(x), big_m.coeff(x)) for x in range(1, q + 1))


def _check_normalized(p: Polynomial, what: str) -> None:
    if p.coeffs[0] != 1.0:
        raise NotNormalized(f"{what} must have unit constant term")


def _candidate_numerators(g: TransferFunction, big_l: Polynomial,
                          q: int) -> list[Polynomial]:
    """All real numerators satisfying the first q matching conditions,
    given L = spectral_square(g.num d_r)."""
    b = g.den.coeff

    if q == 1:
        # With l = D*(1 + C1 s): M2 = 2 B2 - B1^2 - C1^2.
        rhs = 2.0 * b(2) - b(1) ** 2 - big_l.coeff(1)
        if rhs < 0.0:
            raise MatchInfeasible(
                f"first matching condition needs C1^2 = {rhs:.6e} < 0",
                discriminant=rhs)
        c1 = math.sqrt(rhs)
        if c1 == 0.0:
            return [Polynomial([1.0, 0.0])]
        return [Polynomial([1.0, c1]), Polynomial([1.0, -c1])]

    # q == 2: the first condition gives C2 = (gamma + C1^2)/2; feeding
    # that into the second leaves a quartic in t = C1.  Each l_k below
    # is written as a polynomial in t.
    gamma = big_l.coeff(1) - 2.0 * b(2) + b(1) ** 2
    l1 = Polynomial([b(1), 1.0])
    l2 = Polynomial([b(2) + gamma / 2.0, b(1), 0.5])
    l3 = Polynomial([b(3) + b(1) * gamma / 2.0, b(2), b(1) / 2.0])
    l4 = Polynomial([b(4) + b(2) * gamma / 2.0, b(3), b(2) / 2.0])
    m4 = l4.scaled(2.0) + poly_mul(l1, l3).scaled(-2.0) + poly_mul(l2, l2)
    quartic = m4 - Polynomial([big_l.coeff(2)])
    out: list[Polynomial] = []
    for root in poly_roots(quartic):
        if abs(root.imag) > 1e-8 * (1.0 + abs(root.real)):
            continue
        t = root.real
        out.append(Polynomial([1.0, t, (gamma + t * t) / 2.0]))
    if not out:
        raise MatchInfeasible("no real solution to the matching conditions")
    return out


def match_numerator(g: TransferFunction, d_r: Polynomial, q: int) -> Polynomial:
    """Numerator of order q matching the squared-magnitude expansion.

    ``g`` must be DC-normalized (both constant terms exactly 1) and
    ``d_r`` likewise.  Exactly q conditions are imposed; q = 0 returns
    the constant numerator, q in {1, 2} is solved in closed form (the
    q = 2 case through a quartic), larger q is unsupported.  Among
    real solutions the one with the smallest squared-magnitude
    residual over the standard grid wins; ties go to coefficients
    whose signs match the original numerator.
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
    if q > 2:
        raise Unsupported("numerator orders above 2 are not supported")

    big_l = spectral_square(poly_mul(g.num, d_r))
    s = 1j * RESIDUAL_GRID
    ng_dr, dg = poly_eval(g.num, s) * poly_eval(d_r, s), poly_eval(g.den, s)
    candidates = []
    for n_r in _candidate_numerators(g, big_l, q):
        big_m = spectral_square(poly_mul(g.den, n_r))
        pairs = tuple((big_l.coeff(x), big_m.coeff(x)) for x in range(1, q + 1))
        if any(abs(lv - mv) > _MATCH_CHECK_REL * (1.0 + abs(lv))
               for lv, mv in pairs):
            continue
        candidates.append((_epsilon(ng_dr, dg, poly_eval(n_r, s)), n_r, pairs))
    if not candidates:
        raise MatchInfeasible("no candidate satisfied the matching re-check")

    best = min(res for res, _, _ in candidates)
    tied = [(n_r, pairs) for res, n_r, pairs in candidates
            if res <= best + _TIE_REL * (1.0 + best)]

    def sign_matches(n_r: Polynomial) -> int:
        return sum(
            1 for i in range(1, q + 1)
            if n_r.coeff(i) != 0.0 and g.num.coeff(i) != 0.0
            and math.copysign(1.0, n_r.coeff(i)) == math.copysign(1.0, g.num.coeff(i))
        )

    tied.sort(key=lambda t: (-sign_matches(t[0]), tuple(-c for c in t[0].coeffs)))
    return tied[0]


def _auto_adjust(g: TransferFunction, k: float, n_r: Polynomial,
                 d_r: Polynomial, cfg: ReductionConfig):
    """Scan the percent grid for the step-response ISE minimizer.

    All percents are scored at once by the exact step-error ISE over
    5 x the slowest time constant of the full model (``step_ise``, no
    time grid).  Unstable candidates and non-finite or negative scores
    are rejected; ties go to the smaller percent.
    """
    lo, hi, step = cfg.auto_grid
    grid = np.arange(lo, hi + step / 2.0, step)
    horizon = DEFAULT_HORIZON_FACTOR * characteristic_times(g)[1]
    scores = np.full(len(grid), np.nan)
    if d_r.degree >= 2:  # adjust_denominator refuses lower degrees
        dens = _adjusted(d_r.coeffs, grid)
        scores = step_ise(g, n_r.scaled(k).coeffs, dens, horizon)
    ok = np.isfinite(scores) & (scores >= 0.0)
    if not np.any(ok):
        return None, d_r, ("auto adjustment failed for every percent; "
                           "returning the unadjusted denominator",)
    best = int(np.argmin(np.where(ok, scores, np.inf)))
    return float(grid[best]), Polynomial(dens[best]), ()


def reduce(g: TransferFunction, cfg: ReductionConfig) -> ReductionResult:
    """Full reduction pipeline for a stable, proper transfer function.

    Normalizes out the DC gain, reduces the denominator, matches the
    numerator, optionally applies the percent adjustment, and restores
    the gain, so the reduced model keeps the original DC gain exactly.
    A target order equal to the input degree keeps the denominator
    unchanged (identity reduction).
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
    notes: tuple[str, ...] = ()
    d_final = d_r
    if cfg.adjust_mode == "fixed":
        d_final = adjust_denominator(d_r, cfg.adjust_percent)
        chosen_n = cfg.adjust_percent
    elif cfg.adjust_mode == "auto":
        chosen_n, d_final, notes = _auto_adjust(g, k, n_r, d_r, cfg)

    reduced = TransferFunction(n_r.scaled(k), d_final)
    eps = residual_epsilon(g, reduced)
    return ReductionResult(reduced=reduced, factorization=fact,
                           matched_conditions=pairs, residual_epsilon=eps,
                           chosen_n=chosen_n, warnings=notes)
