"""Current-controller gain selection and gain sweeps.

Two design routes place the closed-loop characteristic equation at a
target damping ratio through one solve, ``solve_damping_gain``: the
conventional route on the two-pole approximation of the loop, and the
reduced-order route on the second-order model from ``mor_engine``.
A gain sweep simulates the full type-1 loop closure over a grid of
controller gains and extracts step-response metrics.
"""
from __future__ import annotations

import math
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
from .poly_tf import (
    Polynomial,
    TransferFunction,
    UNITY,
    close_loop,
    is_stable,
)
from .sim_analysis import ise, response_metrics, step_response

# Largest number of gains one sweep may evaluate.
MAX_SWEEP_STEPS = 2_000_000


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
    warnings: tuple[str, ...] = ()


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
        den, num = red.reduced.den, red.reduced.num

    k = solve_damping_gain(den, num, z)
    poles = (den + num.scaled(k)).roots
    wn = math.sqrt(abs(poles[0]) * abs(poles[1]))
    zeta_got = -(poles[0].real + poles[1].real) / (2.0 * wn)
    return DesignReport(method="conventional" if red is None else "mor",
                        K=k, Kc=kc_from_K(model, k), Tc=model.params.tc_s,
                        reduced_model=red, closed_loop_poles=poles,
                        achieved_zeta=zeta_got, natural_frequency=wn)


def closed_current_loop(model: DerivedDriveModel, kc: float) -> TransferFunction:
    """Unity closure of the full type-1 loop gain at controller gain Kc."""
    if not 0.0 < kc < math.inf:
        raise ValidationError("controller gain must be positive and finite")
    scaled = TransferFunction(model.loop_gain_full.num.scaled(kc),
                              model.loop_gain_full.den)
    return close_loop(scaled, UNITY)


def evaluate_gain(model: DerivedDriveModel, kc: float) -> SweepPoint:
    """Close the loop at one gain, simulate a unit step and measure it."""
    closed = closed_current_loop(model, kc)
    try:
        stable = is_stable(closed.den)
    except NumericError:
        stable = False
    if not stable:
        return SweepPoint(Kc=kc, stable=False)
    try:
        trace = step_response(closed)
        metrics = response_metrics(trace)
        err = ise(trace, trace.input_amplitude)
    except (NumericError, ValidationError):  # ValidationError: step budget
        return SweepPoint(Kc=kc, stable=True)
    return SweepPoint(Kc=kc, stable=True, overshoot_pct=metrics.overshoot_pct,
                      settling_2pct_s=metrics.settling_2pct_s,
                      rise_10_90_s=metrics.rise_10_90_s,
                      ise_vs_reference=err)


def sweep_gain(model: DerivedDriveModel, kc_min: float, kc_max: float,
               steps: int) -> list[SweepPoint]:
    """Step-response metrics over a linear grid of controller gains.

    Unstable closures are flagged rather than aborting the sweep, and
    per-point simulation failures leave that point's metrics empty.  A
    non-finite gain or more than ``MAX_SWEEP_STEPS`` steps is refused with
    ``ValidationError``.
    """
    if not 0.0 < kc_min < kc_max < math.inf:
        raise ValidationError("need 0 < kc_min < kc_max < inf")
    if steps < 2:
        raise ValidationError("need at least 2 sweep steps")
    if steps > MAX_SWEEP_STEPS:
        raise ValidationError(
            f"sweep of {steps} steps exceeds the budget of {MAX_SWEEP_STEPS}; "
            "pass fewer --steps")
    return [evaluate_gain(model, float(kc))
            for kc in np.linspace(kc_min, kc_max, steps)]
