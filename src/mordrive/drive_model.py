"""Converter-fed DC drive constants and current-loop transfer functions.

``derive_model`` turns nameplate data into the gain/time-constant set
of the linearized drive and assembles the loop transfer functions used
for controller design: the full type-1 loop (integrator plus back-EMF
zero) and the simplified third-order design shape.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ComplexMotorPoles, TimeConstantOrdering, ValidationError
from .poly_tf import Polynomial, TransferFunction, poly_roots


@dataclass(frozen=True)
class MotorDriveParams:
    """Nameplate and loop data, SI units throughout."""

    rated_voltage_v: float
    rated_current_a: float
    ra_ohm: float
    la_h: float
    j_kgm2: float
    bt_nm_per_rad_s: float
    kb_v_per_rad_s: float
    supply_line_voltage_v: float
    vcm_v: float
    imax_a: float
    tc_s: float
    tr_s: float = 0.00138
    zeta: float = 0.707

    def __post_init__(self):
        # Every field must be positive except zeta, checked below.
        for f in dataclasses.fields(self):
            if f.name == "zeta":
                continue
            value = getattr(self, f.name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)
                    and value > 0.0):
                raise ValidationError(f"{f.name} must be a positive finite number")
        if not 0.0 < self.zeta <= 1.0:
            raise ValidationError("zeta must lie in (0, 1]")


@dataclass(frozen=True)
class DerivedDriveModel:
    """Drive constants and loop transfer functions derived from nameplate data."""

    params: MotorDriveParams
    K1: float
    T1: float
    T2: float
    Tm: float
    Kr: float
    Hc: float
    rated_control_voltage: float
    # Full current-loop gain with unit controller gain: PI(1) x converter
    # x motor x transducer, type 1 with the back-EMF zero.
    loop_gain_full: TransferFunction
    # Simplified third-order design shape with unit loop gain.
    loop_gain_design: TransferFunction


def derive_model(p: MotorDriveParams) -> DerivedDriveModel:
    """Derive gains, time constants and loop transfer functions.

    The two motor time constants come from the roots of the armature
    quadratic ``J*La s^2 + (Bt*La + J*Ra) s + (Kb^2 + Ra*Bt)``; the
    ordering Tr < T2 < T1 is enforced because the design chain depends
    on it.  Nameplate values from which a derived constant, or a
    coefficient of that quadratic, comes out zero or non-finite are
    refused with ``ValidationError``.
    """
    try:
        denom = p.kb_v_per_rad_s ** 2 + p.ra_ohm * p.bt_nm_per_rad_s
    except OverflowError:  # float ** raises where * would give inf
        denom = math.inf
    quad = [denom, p.bt_nm_per_rad_s * p.la_h + p.j_kgm2 * p.ra_ohm,
            p.j_kgm2 * p.la_h]
    _check_derived(("Kb^2 + Ra*Bt", quad[0]), ("Bt*La + J*Ra", quad[1]),
                   ("J*La", quad[2]))  # before K1 divides by the first
    k1 = p.bt_nm_per_rad_s / denom
    tm = p.j_kgm2 / p.bt_nm_per_rad_s

    roots = poly_roots(Polynomial(quad))
    for r in roots:
        if abs(r.imag) > 1e-9 * (1.0 + abs(r.real)):
            raise ComplexMotorPoles(
                f"armature quadratic has complex roots {roots}; the "
                "two-time-constant motor model does not apply")
    mags = sorted(abs(r) for r in roots)
    _check_derived(("1/T1", mags[0]), ("1/T2", mags[1]))
    t1 = 1.0 / mags[0]
    t2 = 1.0 / mags[1]

    kr = 1.35 * p.supply_line_voltage_v / p.vcm_v
    _check_derived(("Kr", kr))
    rated_cv = p.rated_voltage_v / kr
    hc = rated_cv / p.imax_a
    g0 = k1 * kr * hc / p.tc_s
    _check_derived(("K1", k1), ("Tm", tm), ("T1", t1), ("T2", t2),
                   ("Hc", hc), ("K1*Kr*Hc/Tc", g0),
                   ("K1*Hc*Kr*Tm", k1 * hc * kr * tm))  # kc_from_K divides by it

    if not p.tr_s < t2 < t1:
        raise TimeConstantOrdering(
            f"need Tr < T2 < T1, got Tr={p.tr_s:g}, T2={t2:g}, T1={t1:g}")

    # (1+sT1)(1+sT2)(1+sTr), shared by both loop shapes.
    lags = (Polynomial([1.0, t1]) * Polynomial([1.0, t2])
            * Polynomial([1.0, p.tr_s]))

    # Unit-Kc loop gain: {K1*Kr*Hc/Tc} (1+sTc)(1+sTm) / [s(1+sT1)(1+sT2)(1+sTr)]
    full_num = (Polynomial([1.0, p.tc_s]) * Polynomial([1.0, tm])).scaled(g0)
    loop_gain_full = TransferFunction(full_num, Polynomial([0.0, 1.0]) * lags)
    loop_gain_design = TransferFunction(Polynomial([1.0, p.tc_s]), lags)

    return DerivedDriveModel(
        params=p, K1=k1, T1=t1, T2=t2, Tm=tm, Kr=kr, Hc=hc,
        rated_control_voltage=rated_cv,
        loop_gain_full=loop_gain_full, loop_gain_design=loop_gain_design)


def _check_derived(*named: tuple[str, float]) -> None:
    """``ValidationError`` unless every derived value is positive and
    finite: nameplate values far out of range overflow or underflow."""
    for name, value in named:
        if not 0.0 < value < math.inf:
            raise ValidationError(
                f"derived {name} = {value!r} is not a positive finite "
                "number; the nameplate values are out of range")


def kc_from_K(model: DerivedDriveModel, K: float) -> float:
    """Controller gain for a given loop gain: Kc = K*Tc/(K1*Hc*Kr*Tm)."""
    p = model.params
    kc = K * p.tc_s / (model.K1 * model.Hc * model.Kr * model.Tm)
    _check_derived(("Kc", kc))  # far-out nameplates overflow it
    return kc


def worked_example_params() -> MotorDriveParams:
    """The built-in 220 V, 8.3 A two-quadrant drive used in the docs."""
    return MotorDriveParams(
        rated_voltage_v=220.0,
        rated_current_a=8.3,
        ra_ohm=4.0,
        la_h=0.072,
        j_kgm2=0.0607,
        bt_nm_per_rad_s=0.0869,
        kb_v_per_rad_s=1.26,
        supply_line_voltage_v=230.0,
        vcm_v=10.0,
        imax_a=20.0,
        tc_s=0.03,
        tr_s=0.00138,
        zeta=0.707,
    )
