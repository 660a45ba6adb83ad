"""Time- and frequency-domain evaluation of transfer functions.

Step responses integrate a controllable-canonical state-space
realization with the classical fourth-order fixed-step scheme; Bode
traces evaluate the rational function directly on a log grid.

The scheme's one-step update x+ = M x + v is not applied step by step.
The N steps are cut into blocks of about sqrt(N): the powers of M within
a block come from doubling, the block-start states from the same update
raised to a whole block, and all N outputs from one matrix product, so
only the output, never the state, is kept per step.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    GridMismatch,
    NotSettled,
    SimulationDiverged,
    StiffnessWarning,
    ValidationError,
)
from .poly_tf import TransferFunction, poly_eval

DEFAULT_DT_DIVISOR = 20.0
DEFAULT_HORIZON_FACTOR = 5.0

# Largest number of time steps one step response may take.  Each float64
# array over such a grid is 16 MB, and a response holds four at once (time,
# output and two propagation temporaries); a wide pole spread under the
# default dt and horizon would ask for far more.
MAX_STEP_SAMPLES = 2_000_000

# Largest Bode grid; a point costs one complex response and three floats.
MAX_BODE_POINTS = 2_000_000


@dataclass(frozen=True, eq=False)
class StepTrace:
    """Uniformly sampled step response."""

    t: np.ndarray
    y: np.ndarray
    dt: float
    input_amplitude: float


@dataclass(frozen=True, eq=False)
class BodeTrace:
    """Magnitude (dB) and unwrapped phase (deg) on an ascending log grid."""

    omega: np.ndarray
    mag_db: np.ndarray
    phase_deg: np.ndarray
    contains_nonfinite: bool


class ResponseMetrics(NamedTuple):
    overshoot_pct: float
    settling_2pct_s: float
    rise_10_90_s: float
    final_value: float


def characteristic_times(g: TransferFunction) -> tuple[float, float]:
    """(smallest, largest) time constants from the denominator poles.

    The smallest constant is 1/max|pole| (resolution limit), the
    largest 1/min|Re pole| (decay limit).  Raises ``ValidationError``
    when no finite decay time exists (static gain, pole at or right of
    the imaginary axis), in which case callers must supply explicit
    horizons.
    """
    if g.den.degree < 1:
        raise ValidationError("static system has no time constants")
    poles = g.den.roots
    fastest = max(abs(p) for p in poles)
    slowest_decay = min(-p.real for p in poles)
    if fastest <= 0.0 or slowest_decay <= 0.0:
        raise ValidationError(
            "no finite decay time: system has a pole at or right of the "
            "imaginary axis; pass t_final and dt explicitly"
        )
    return 1.0 / fastest, 1.0 / slowest_decay


def _ccf_realization(g: TransferFunction):
    """Controllable canonical (A, B, C, D) for a proper SISO function."""
    n = g.den.degree
    lead = g.den.coeffs[-1]
    alpha = np.array([c / lead for c in g.den.coeffs[:-1]], dtype=float)
    beta = np.array([g.num.coeff(i) / lead for i in range(n + 1)], dtype=float)
    d = beta[n]
    if n == 0:
        return np.zeros((0, 0)), np.zeros(0), np.zeros(0), d
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = 1.0
    a[n - 1, :] = -alpha
    b = np.zeros(n)
    b[n - 1] = 1.0
    c = beta[:n] - d * alpha
    return a, b, c, d


def _rk4_step_matrices(a: np.ndarray, b: np.ndarray, dt: float, u: float):
    """One-step update x+ = M x + v of classical RK4 for constant input."""
    n = a.shape[0]
    eye = np.eye(n)
    ah = a * dt
    ah2 = ah @ ah
    ah3 = ah2 @ ah
    ah4 = ah3 @ ah
    m = eye + ah + ah2 / 2.0 + ah3 / 6.0 + ah4 / 24.0
    s = eye * dt + a * dt**2 / 2.0 + (a @ a) * dt**3 / 6.0 + (a @ a @ a) * dt**4 / 24.0
    return m, (s @ b) * u


def _propagate(m: np.ndarray, v: np.ndarray, c: np.ndarray,
               n_steps: int) -> np.ndarray:
    """Projections c^T x_k, k = 1..n_steps, of x+ = M x + v from x_0 = 0.

    ``c`` is (dim, p) and the result (n_steps, p).  For j up to the block
    size B = ceil(sqrt(n_steps)), M^j and w_j = (I + ... + M^(j-1)) v come
    from doubling, w_(a+b) = M^a w_b + w_a; the block-start states x_(iB)
    from a call on (M^B, w_B) with c = I; output iB + j is
    c^T M^j x_(iB) + c^T w_j.
    """
    dim = v.shape[0]
    block = math.isqrt(n_steps - 1) + 1
    n_blocks = (n_steps + block - 1) // block
    mp = np.empty((block, dim, dim))
    w = np.empty((block, dim))
    mp[0], w[0] = m, v
    have = 1
    while have < block:
        k = min(have, block - have)
        mp[have:have + k] = mp[:k] @ mp[have - 1]
        w[have:have + k] = mp[:k] @ w[have - 1] + w[:k]
        have += k
    starts = np.zeros((n_blocks, dim))
    if n_blocks > 1:
        starts[1:] = _propagate(mp[-1], w[-1], np.eye(dim), n_blocks - 1)
    out = starts @ (c.T @ mp).reshape(-1, dim).T
    out += (w @ c).reshape(1, -1)
    return out.reshape(n_blocks * block, -1)[:n_steps]


def step_response(g: TransferFunction, t_final: float | None = None,
                  dt: float | None = None,
                  amplitude: float = 1.0) -> StepTrace:
    """Step response on a uniform grid starting at t = 0.

    Defaults: ``dt`` = smallest time constant / 20 and ``t_final`` =
    5 x largest time constant, both derived from the denominator
    poles.  A ``StiffnessWarning`` fires when the chosen dt is coarser
    than a tenth of the fastest time constant.  A grid of more than
    ``MAX_STEP_SAMPLES`` steps is refused with ``ValidationError``.
    """
    tc_small = None
    if g.den.degree >= 1:
        try:
            tc_small, tc_large = characteristic_times(g)
        except ValidationError:
            if t_final is None or dt is None:
                raise
            tc_small = None
    elif t_final is None or dt is None:
        raise ValidationError("static system needs explicit t_final and dt")

    if dt is None:
        dt = tc_small / DEFAULT_DT_DIVISOR
    if t_final is None:
        t_final = DEFAULT_HORIZON_FACTOR * tc_large
    if dt <= 0.0:
        raise ValidationError("dt must be positive")
    if t_final < 10.0 * dt:
        raise ValidationError("t_final must cover at least 10 steps")
    steps = t_final / dt
    if not (math.isfinite(steps) and round(steps) <= MAX_STEP_SAMPLES):
        raise ValidationError(
            f"step response needs {steps:.3g} steps (t_final = {t_final:g} s, "
            f"dt = {dt:g} s), more than the budget of {MAX_STEP_SAMPLES}; "
            "pass a larger dt or a shorter t_final (--dt / --t-final)")
    if tc_small is not None and dt > tc_small / 10.0:
        warnings.warn(
            f"dt = {dt:g} is coarse next to the fastest time constant "
            f"{tc_small:g}", StiffnessWarning, stacklevel=2)

    a, b, c, d = _ccf_realization(g)
    n_steps = int(round(steps))
    t = np.arange(n_steps + 1) * dt
    y = np.empty(n_steps + 1)
    y[0] = d * amplitude
    if a.shape[0] > 0:
        m, v = _rk4_step_matrices(a, b, dt, amplitude)
        with np.errstate(over="ignore", invalid="ignore"):
            y[1:] = _propagate(m, v, c[:, None], n_steps)[:, 0]
            y[1:] += d * amplitude
    else:
        y[1:] = d * amplitude
    if not np.all(np.isfinite(y)):
        raise SimulationDiverged("step response produced non-finite samples")
    return StepTrace(t=t, y=y, dt=dt, input_amplitude=amplitude)


def bode(g: TransferFunction, omega_min: float, omega_max: float,
         points_per_decade: int = 60) -> BodeTrace:
    """Magnitude/phase of g(jw) on a log grid.

    The grid has ``round(ppd * decades) + 1`` points (at least 2).
    Poles on the imaginary axis yield infinities that are passed
    through and flagged via ``contains_nonfinite``.  A grid of more
    than ``MAX_BODE_POINTS`` points is refused with ``ValidationError``.
    """
    if not (0.0 < omega_min < omega_max):
        raise ValidationError("need 0 < omega_min < omega_max")
    if points_per_decade < 1:
        raise ValidationError("points_per_decade must be >= 1")
    decades = math.log10(omega_max / omega_min)
    # An int compared with a float is exact in Python, so no product
    # overflows here, however large points_per_decade is.
    if points_per_decade > MAX_BODE_POINTS / decades:
        raise ValidationError(
            f"bode grid of {points_per_decade} points per decade over "
            f"{decades:.3g} decades exceeds the budget of {MAX_BODE_POINTS} "
            "points; pass a smaller --ppd or a narrower band")
    n = max(2, int(round(points_per_decade * decades)) + 1)
    omega = np.logspace(math.log10(omega_min), math.log10(omega_max), n)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = 1j * omega
        resp = poly_eval(g.num, s) / poly_eval(g.den, s)
        mag_db = 20.0 * np.log10(np.abs(resp))
    phase = np.degrees(np.unwrap(np.angle(resp)))
    flag = not (np.all(np.isfinite(mag_db)) and np.all(np.isfinite(phase)))
    return BodeTrace(omega=omega, mag_db=mag_db, phase_deg=phase,
                     contains_nonfinite=bool(flag))


def ise(a: StepTrace, b: StepTrace) -> float:
    """Trapezoidal integral of the squared sample difference."""
    if a.t.shape != b.t.shape or not np.array_equal(a.t, b.t):
        raise GridMismatch("traces do not share a time grid")
    diff = a.y - b.y
    return float(np.trapezoid(diff * diff, a.t))


def response_metrics(tr: StepTrace) -> ResponseMetrics:
    """Overshoot, 2% settling time, 10-90% rise time and final value.

    The final value is the mean of the last 5% of samples; the trace
    counts as settled only if that whole tail stays within 2% of it.
    """
    y = tr.y
    t = tr.t
    k = max(1, int(round(0.05 * len(y))))
    final = float(np.mean(y[-k:]))
    if final <= 0.0:
        raise NotSettled("final value is not positive; metrics undefined")
    band = 0.02 * abs(final)
    if np.any(np.abs(y[-k:] - final) > band):
        raise NotSettled("trace has not settled within its horizon")

    peak = float(np.max(y))
    overshoot = max(0.0, (peak - final) / final * 100.0)

    outside = np.flatnonzero(np.abs(y - final) > band)
    settling = float(t[outside[-1] + 1]) if outside.size else 0.0

    def crossing(level: float) -> float:
        idx = int(np.argmax(y >= level))
        if y[0] >= level:
            return 0.0
        y0, y1 = y[idx - 1], y[idx]
        frac = (level - y0) / (y1 - y0)
        return float(t[idx - 1] + frac * tr.dt)

    rise = crossing(0.9 * final) - crossing(0.1 * final)
    return ResponseMetrics(overshoot_pct=overshoot, settling_2pct_s=settling,
                           rise_10_90_s=rise, final_value=final)


def constant_trace(like: StepTrace, value: float) -> StepTrace:
    """Trace holding a constant value on the same grid as ``like``."""
    return StepTrace(t=like.t, y=np.full_like(like.y, value), dt=like.dt,
                     input_amplitude=like.input_amplitude)
