"""Current-controller gain selection and gain sweeps.

Two design routes place the closed-loop characteristic equation at a
target damping ratio through one solve, ``solve_damping_gain``: the
conventional route on the two-pole approximation of the loop, and the
reduced-order route on the second-order model from ``mor_engine``.
A gain sweep closes the full type-1 loop over a grid of controller
gains and measures each closure's step response.  The gains are
measured as stacks of closed loops, which share one degree: one root
solve and one ``sim_analysis._unit_step_measures`` call per stack of up
to ``_STACK_ROWS`` gains, and ``evaluate_gain`` is the same path on a
stack of one.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .drive_model import DerivedDriveModel, kc_from_K
from .errors import (
    BadOrder,
    NoPositiveGain,
    NoRealGain,
    NumericError,
    ValidationError,
)
from .mor_engine import ReductionConfig, ReductionResult, reduce
from .poly_tf import Polynomial, TransferFunction, _roots_of_rows
from .sim_analysis import _unit_step_measures

# Largest number of gains one sweep may evaluate.
MAX_SWEEP_STEPS = 2_000_000

# Largest number of gains measured as one stack.  A row's stacked state
# is a few kilobytes (its ladder of up to 21 powers of a 5 x 5 exponential
# is 4.2 KB, and each doubling sum or exponential temporary is one more
# matrix), so a stack's state stays near a megabyte however long the
# sweep is.  Its head windows are sampled in blocks no larger than one
# whole trace, so its peak is about that of one trace measured whole.
_STACK_ROWS = 256


@dataclass(frozen=True)
class DesignReport:
    """Outcome of one controller design."""

    method: str
    K: float
    Kc: float
    Tc: float
    reduced_model: ReductionResult | None
    closed_loop_poles: tuple[complex, ...]
    achieved_zeta: float
    natural_frequency: float


@dataclass(frozen=True)
class SweepPoint:
    """Step-response metrics of the closed current loop at one gain; the
    metrics stay None where the closure is unstable or not measurable."""

    Kc: float
    stable: bool
    overshoot_pct: float | None = None
    settling_2pct_s: float | None = None
    rise_10_90_s: float | None = None
    ise_vs_reference: float | None = None


def design_conventional(model: DerivedDriveModel,
                        zeta: float | None = None) -> DesignReport:
    """Gain from the two-pole approximation of the current loop.

    After cancelling the mid time constant, the characteristic
    equation (1+sT1)(1+sTr) + K = 0 is placed at the requested damping
    ratio by ``solve_damping_gain`` with a unit numerator, which there
    reduces to K = (T1+Tr)^2 / (4 zeta^2 T1 Tr) - 1.
    """
    return _design(model, zeta, None)


def solve_damping_gain(den: Polynomial, num: Polynomial, zeta: float) -> float:
    """Loop gain K placing ``den + K * num`` at the damping ratio zeta.

    ``den`` is a second-order polynomial [d0, d1, d2] and ``num`` the
    reduced numerator [1, c1, (c2)]; the condition
    ``(d1 + K c1)^2 = 4 zeta^2 (d2 + K c2)(d0 + K)`` is a quadratic in
    K.  Returns the smallest strictly positive real root; raises
    ``NoRealGain`` (carrying the discriminant) when no real root
    exists and ``NoPositiveGain`` when no root is positive.
    """
    if den.degree != 2:
        raise BadOrder("damping-gain solve needs a second-order denominator")
    if num.coeff(0) != 1.0:
        raise ValidationError("numerator must carry unit constant term")
    d0, d1, d2 = (den.coeff(i) for i in range(3))
    c1 = num.coeff(1)
    c2 = num.coeff(2)

    four_z2 = 4.0 * zeta * zeta
    qa = c1 * c1 - four_z2 * c2
    qb = 2.0 * d1 * c1 - four_z2 * (d2 + c2 * d0)
    qc = d1 * d1 - four_z2 * d2 * d0

    if qa == 0.0:
        if qb == 0.0:
            raise NoRealGain("damping condition is degenerate", 0.0, (qa, qb, qc))
        roots = [-qc / qb]
    else:
        disc = qb * qb - 4.0 * qa * qc
        if disc < 0.0:
            raise NoRealGain(
                f"no real loop gain reaches zeta = {zeta}: discriminant "
                f"{disc:.6e} < 0 for {qa:.6e} K^2 + {qb:.6e} K + {qc:.6e} = 0",
                disc, (qa, qb, qc))
        sq = math.sqrt(disc)
        roots = [(-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa)]
    positive = sorted(r for r in roots if r > 0.0)
    if not positive:
        raise NoPositiveGain(
            f"damping condition roots {sorted(roots)} contain no positive gain")
    return positive[0]


def design_via_mor(model: DerivedDriveModel,
                   cfg: ReductionConfig | None = None,
                   zeta: float | None = None) -> DesignReport:
    """Gain from the reduced second-order loop model.

    The design loop shape is reduced to order 2; closing it with loop
    gain K gives the characteristic polynomial
    ``(d2 + K c2) s^2 + (d1 + K c1) s + (d0 + K)`` whose damping-ratio
    condition is solved by ``solve_damping_gain``.
    """
    return _design(model, zeta,
                   ReductionConfig(target_order=2) if cfg is None else cfg)


def _design(model: DerivedDriveModel, zeta: float | None,
            cfg: ReductionConfig | None) -> DesignReport:
    """Report of the gain placing ``den + K * num`` at the damping ratio:
    on the two-pole approximation when ``cfg`` is None, else on the
    order-2 reduction of the design loop shape."""
    z = model.params.zeta if zeta is None else zeta
    if not 0.0 < z <= 1.0:
        raise ValidationError("zeta must lie in (0, 1]")
    if cfg is None:
        red = None
        t1, tr = model.T1, model.params.tr_s
        den, num = Polynomial([1.0, t1 + tr, t1 * tr]), Polynomial([1.0])
    else:
        if cfg.target_order != 2:
            raise BadOrder("gain design needs a reduction to order 2")
        red = reduce(model.loop_gain_design, cfg)
        red.residual_epsilon  # reported: refuse inf or nan before the solve
        den, num = red.reduced.den, red.reduced.num

    k = solve_damping_gain(den, num, z)
    kc = kc_from_K(model, k)  # refuses an out-of-range gain before its poles
    _, [closed] = _closures(num.coeffs, den.coeffs, [k])
    poles = Polynomial(closed).roots
    mags = abs(poles[0]), abs(poles[1])
    wn = math.sqrt(mags[0] * mags[1])
    if not 0.0 < wn < math.inf:  # the product over- or underflowed
        wn = math.sqrt(mags[0]) * math.sqrt(mags[1])
    zeta_got = -(poles[0].real + poles[1].real) / (2.0 * wn)
    return DesignReport(method="conventional" if red is None else "mor",
                        K=k, Kc=kc, Tc=model.params.tc_s,
                        reduced_model=red, closed_loop_poles=poles,
                        achieved_zeta=zeta_got, natural_frequency=wn)


def closed_current_loop(model: DerivedDriveModel, kc: float) -> TransferFunction:
    """Unity closure of the full type-1 loop gain at controller gain Kc."""
    _check_gain(kc)
    loop = model.loop_gain_full
    nums, dens = _closures(loop.num.coeffs, loop.den.coeffs, [kc])
    return TransferFunction.from_coeffs(nums[0], dens[0])


def _closures(num: tuple[float, ...], den: tuple[float, ...],
              gains: np.ndarray | list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Rows K num and den + K num, one per gain K, of ascending
    coefficients with ``num`` no longer than ``den``: the unity closure
    of num/den at each gain, formed here only.  A product or sum that
    overflows is inf.  Each row of dens is den plus K num padded with
    0.0, added in place."""
    num, den = np.asarray(num, dtype=float), np.asarray(den, dtype=float)
    with np.errstate(over="ignore"):
        nums = np.asarray(gains, dtype=float)[:, None] * num
        dens = np.zeros((len(nums), len(den)))
        dens[:, :len(num)] = nums
        dens += den
    return nums, dens


def _check_gain(kc: float) -> None:
    if not 0.0 < kc < math.inf:
        raise ValidationError("controller gain must be positive and finite")


def evaluate_gain(model: DerivedDriveModel, kc: float) -> SweepPoint:
    """Close the loop at one gain and measure its unit-step response on
    the default grid, as ``response_metrics`` and ``ise`` against 1 would
    on the whole trace: ``sweep_gain``'s path on a stack of one."""
    _check_gain(kc)
    [point] = _measure_gains(model, np.array([kc], dtype=float))
    return point


def sweep_gain(model: DerivedDriveModel, kc_min: float, kc_max: float,
               steps: int) -> list[SweepPoint]:
    """Step-response metrics over a linear grid of controller gains.

    Unstable closures are flagged rather than aborting the sweep, and
    per-point simulation failures leave that point's metrics empty.  A
    non-finite gain or more than ``MAX_SWEEP_STEPS`` steps is refused with
    ``ValidationError``.  The gains are measured in stacks of up to
    ``_STACK_ROWS``, each point as ``evaluate_gain`` gives it.
    """
    return [point for stack in _sweep_stacks(model, kc_min, kc_max, steps)
            for point in stack]


def _sweep_stacks(model: DerivedDriveModel, kc_min: float, kc_max: float,
                  steps: int) -> Iterator[list[SweepPoint]]:
    """``sweep_gain``'s points one stack at a time, each measured only
    when it is asked for; the arguments are checked on the call."""
    if not 0.0 < kc_min < kc_max < math.inf:
        raise ValidationError("need 0 < kc_min < kc_max < inf")
    if steps < 2:
        raise ValidationError("need at least 2 sweep steps")
    if steps > MAX_SWEEP_STEPS:
        raise ValidationError(
            f"sweep of {steps} steps exceeds the budget of {MAX_SWEEP_STEPS}; "
            "pass fewer --steps")
    with np.errstate(over="ignore"):  # the last step can round past the maximum
        gains = np.linspace(kc_min, kc_max, steps)
    return (_measure_gains(model, gains[start:start + _STACK_ROWS])
            for start in range(0, steps, _STACK_ROWS))


def _measure_gains(model: DerivedDriveModel,
                   gains: np.ndarray) -> list[SweepPoint]:
    """The sweep point of each gain, its loop closed as
    ``closed_current_loop`` does and measured with the others as one
    stack: one root solve and one ``_unit_step_measures`` call.  Every
    closure den + Kc num has the loop's degree, since num's is lower.

    A closure that overflows, or whose roots do not converge, counts as
    unstable, as one with a root at or right of the imaginary axis does;
    a stable one that cannot be measured keeps empty metrics.
    """
    loop = model.loop_gain_full
    nums, dens = _closures(loop.num.coeffs, loop.den.coeffs, gains)
    poles, _ = _roots_of_rows(dens)
    stable = np.all(poles.real < 0.0, axis=-1)
    measured = iter(_unit_step_measures(nums[stable], dens[stable],
                                        poles[stable]))
    points = []
    for kc, ok in zip(gains.tolist(), stable.tolist()):
        got = next(measured) if ok else None
        if not ok or isinstance(got, Exception):
            points.append(SweepPoint(Kc=kc, stable=ok))
            continue
        metrics, err = got
        points.append(SweepPoint(
            Kc=kc, stable=True, overshoot_pct=metrics.overshoot_pct,
            settling_2pct_s=metrics.settling_2pct_s,
            rise_10_90_s=metrics.rise_10_90_s, ise_vs_reference=err))
    return points
