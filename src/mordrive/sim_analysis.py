"""Time- and frequency-domain evaluation of transfer functions.

Step responses are exact samples, to rounding, of a pole-scaled
controllable-canonical realization under a step input; Bode traces
evaluate the rational function directly on a log grid.

The one-step update is one matrix exponential, E = [[M, v], [0, 1]] =
e^([[A, b u], [0, 0]] dt) (Van Loan 1978), on the state with a constant
1 appended, and E itself is propagated: sample k is (c, d u) E^k e_last.
E's last row is set to exactly (0, ..., 0, 1), since as computed it is
off by rounding and that error would grow with k.  The N steps are cut
into blocks of about sqrt(N): the rows (c, d u) E^j within a block come
from doubling, the block starts from the same routine on E raised to a
whole block, and all outputs from one 2-D product written straight into
the trace's one output buffer, so no state is kept per step.  A trace
stores no time grid: its samples sit at k dt, and metrics and ISE work
from the index and dt.

``step_ise`` needs no time grid: the exact step-error ISE over a finite
horizon is a Gramian of the error system, from the same exponential
applied to Van Loan's block matrix and doubled up to the horizon, for a
whole stack of candidate models at once.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    GridMismatch,
    NotSettled,
    SimulationDiverged,
    ValidationError,
)
from .poly_tf import TransferFunction, poly_eval

DEFAULT_DT_DIVISOR = 20.0
DEFAULT_HORIZON_FACTOR = 5.0

# Largest number of time steps one step response may take.  Each float64
# array over such a grid is 16 MB, and a measured sweep point holds two at
# once (the output and the metrics' deviation buffer); a wide pole spread
# under the default dt and horizon would ask for far more.
MAX_STEP_SAMPLES = 2_000_000

# Largest Bode grid; a point costs one complex response and three floats.
MAX_BODE_POINTS = 2_000_000


@dataclass(frozen=True, eq=False)
class StepTrace:
    """Uniformly sampled step response: sample k sits at t = k dt.

    No time grid is stored; ``t`` builds it on first access and keeps it.
    """

    y: np.ndarray
    dt: float
    input_amplitude: float

    @functools.cached_property
    def t(self) -> np.ndarray:
        """Sample times, ``np.arange(len(y)) * dt``."""
        return np.arange(len(self.y)) * self.dt


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


def _ccf(num: np.ndarray, den: np.ndarray):
    """Controllable canonical (A, c, d) of num/den, batched over leading axes.

    ``num`` and ``den`` hold ascending coefficients, ``num`` no more than
    ``den``; the input vector b is the last unit vector.
    """
    n = den.shape[-1] - 1
    lead = den[..., -1:]
    alpha = den[..., :-1] / lead
    beta = np.zeros(den.shape)
    beta[..., :num.shape[-1]] = num / lead
    d = beta[..., n]
    a = np.zeros(den.shape[:-1] + (n, n))
    a[..., range(n - 1), range(1, n)] = 1.0
    a[..., n - 1:, :] = -alpha[..., None, :]
    return a, beta[..., :n] - d[..., None] * alpha, d


# Padé-13 coefficients and the 1-norm up to which they need no scaling
# (Higham 2005, "The scaling and squaring method for the matrix
# exponential revisited").
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """e^A by Padé-13 scaling and squaring, batched over leading axes.

    Each matrix is scaled by its own 2^-s so that its 1-norm is at most
    theta_13, and its Padé approximant squared s times.
    """
    b = _PADE13
    s = np.maximum(np.frexp(np.abs(a).sum(axis=-2).max(axis=-1) / _THETA13)[1], 0)
    a = a / np.ldexp(1.0, s)[..., None, None]
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(np.max(s, initial=0))):
        r = np.where((k < s)[..., None, None], r @ r, r)
    return r


def _scaled_ccf(num: np.ndarray, den: np.ndarray, poles=None):
    """(A, b, c, d, poles) of num/den in pole-scaled canonical form, batched.

    The controllable canonical realization is rescaled by D = diag(1,
    |p1|, |p1 p2|, ...), poles by ascending magnitude with a zero
    magnitude taken as 1, which keeps every entry of A within the pole
    magnitudes however stiff the denominator is.  Any positive diagonal
    D is an exact similarity, and this one leaves the first state alone,
    so x0 = A^-1 b is still -(lead / constant term) e_1.  ``poles`` are
    the roots of ``den`` where the caller has them already; otherwise
    they come from the eigenvalues of A.
    """
    a, c, d = _ccf(num, den)
    poles = np.linalg.eigvals(a) if poles is None else np.asarray(poles)
    mags = np.sort(np.abs(poles), axis=-1)
    scale = np.ones(poles.shape)
    np.cumprod(np.where(mags == 0.0, 1.0, mags)[..., :-1], axis=-1,
               out=scale[..., 1:])
    b = np.zeros(poles.shape)
    b[..., -1:] = 1.0 / scale[..., -1:]
    return (a * scale[..., None, :] / scale[..., :, None], b, c * scale, d,
            poles)


def _propagate(e: np.ndarray, c: np.ndarray, n_steps: int) -> np.ndarray:
    """Outputs c^T E^k e_last, k = 0..n_steps, as an (n_steps + 1, p) view
    of one buffer; ``c`` is (dim, p).

    ``e`` is an augmented exponential [[M, v], [0, 1]] whose last row is
    exactly (0, ..., 0, 1), so E^k e_last is x_k of x+ = M x + v from x_0
    = 0 with a constant 1 appended, and c's last row weights that 1: no
    offset row or offset recurrence is needed.  The block size B is the
    power of two >= sqrt(n_steps + 1).  The rows c^T E^j, j < B, come
    from log2 B doublings, each the rows so far times E^h and then E^h
    squared, all 2-D products; the block starts E^(iB) e_last from a call
    on (E^B, I); and output iB + j from one product of the starts against
    those rows.
    """
    if n_steps == 0:
        return c[-1:]
    dim, p = c.shape
    block = 1 << math.isqrt(n_steps).bit_length()
    n_blocks = n_steps // block + 1
    rows = np.empty((block * p, dim))
    rows[:p] = c.T
    h = 1
    while h < block:
        np.matmul(rows[:h * p], e, out=rows[h * p:2 * h * p])
        e = e @ e
        h *= 2
    starts = _propagate(e, np.eye(dim), n_blocks - 1)
    out = np.empty((n_blocks * block, p))
    np.matmul(starts, rows.T, out=out.reshape(n_blocks, block * p))
    return out[:n_steps + 1]


def step_response(g: TransferFunction, t_final: float | None = None,
                  dt: float | None = None,
                  amplitude: float = 1.0) -> StepTrace:
    """Step response on a uniform grid starting at t = 0.

    The samples are exact to rounding whatever ``dt`` is, so ``dt`` sets
    the resolution only.  Defaults: ``dt`` = smallest time constant / 20
    and ``t_final`` = 5 x largest time constant, both derived from the
    denominator poles; static, integrating and unstable systems need
    both explicitly.  The realization is scaled by the denominator's
    cached roots, ``g.den.roots``.  A grid of more than
    ``MAX_STEP_SAMPLES`` steps is refused with ``ValidationError``, and
    non-finite samples raise ``SimulationDiverged``.
    """
    if g.den.degree >= 1 and (t_final is None or dt is None):
        tc_small, tc_large = characteristic_times(g)
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

    n_steps = int(round(steps))
    n = g.den.degree
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a, b, c, d, _ = _scaled_ccf(np.array(g.num.coeffs),
                                    np.array(g.den.coeffs),
                                    g.den.roots if n else ())
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n], aug[:n, n] = a * dt, b * (amplitude * dt)
        e = _expm(aug)
        # The last row is (0, ..., 0, 1) only to rounding; pinned exactly,
        # so that the constant input does not drift over the steps.
        e[n, :n], e[n, n] = 0.0, 1.0
        y = _propagate(e, np.append(c, d * amplitude)[:, None], n_steps)[:, 0]
    # min and max carry any NaN through, so these two passes see every
    # non-finite sample.
    if not (math.isfinite(y.min()) and math.isfinite(y.max())):
        raise SimulationDiverged("step response produced non-finite samples")
    return StepTrace(y=y, dt=dt, input_amplitude=amplitude)


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
    decades = math.log10(omega_max) - math.log10(omega_min)
    # An int compared with a float is exact in Python, so no product
    # overflows here, however large points_per_decade is.
    if points_per_decade > MAX_BODE_POINTS / decades:
        raise ValidationError(
            f"bode grid of {points_per_decade} points per decade over "
            f"{decades:.3g} decades exceeds the budget of {MAX_BODE_POINTS} "
            "points; pass a smaller --ppd or a narrower band")
    n = max(2, int(round(points_per_decade * decades)) + 1)
    omega = np.logspace(math.log10(omega_min), math.log10(omega_max), n)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s = 1j * omega
        resp = poly_eval(g.num, s) / poly_eval(g.den, s)
        mag_db = 20.0 * np.log10(np.abs(resp))
    phase = np.degrees(np.unwrap(np.angle(resp)))
    flag = not (np.all(np.isfinite(mag_db)) and np.all(np.isfinite(phase)))
    return BodeTrace(omega=omega, mag_db=mag_db, phase_deg=phase,
                     contains_nonfinite=bool(flag))


def ise(a: StepTrace, b: StepTrace | float) -> float:
    """Trapezoidal integral of the squared difference between trace ``a``
    and either a trace on the same grid or a constant level ``b``.

    A trace's grid is k * dt, so two grids match exactly when their
    lengths and dt do, and the trapezoid is dt times the sum of squares
    less half the squared end samples, over one temporary.
    """
    if isinstance(b, StepTrace):
        if len(a.y) != len(b.y) or a.dt != b.dt:
            raise GridMismatch("traces do not share a time grid")
        b = b.y
    d = a.y - b
    return float(a.dt * (np.dot(d, d) - (d[0] * d[0] + d[-1] * d[-1]) / 2.0))


def step_ise(g: TransferFunction, num, dens, t_final: float) -> np.ndarray:
    """Exact ISE over [0, t_final] between the unit-step responses of g
    and of each num/den_i, with no time grid.

    ``g`` must be stable.  ``dens`` is an (m, r + 1) array of ascending
    denominators of one degree r >= 1 and ``num`` their shared
    numerator, of degree at most r.  A candidate with a pole at or right
    of the imaginary axis scores NaN.  The error y_g - y_i is the output
    c e^(At) e_last of the system on (x_g, x_i, 1) with A = [[A_g, 0,
    b_g], [0, A_i, b_i], [0, 0, 0]] and c = (c_g, -c_i, d_g - d_i), so
    the ISE is the last diagonal entry of the Gramian W(T) = int_0^T
    e^(A^T t) c^T c e^(At) dt.  W(h) for h = T / 2^s is F22^T F12 of one
    exponential F of [[-A^T, c^T c], [0, A]] h (Van Loan 1978), s chosen
    from ||A||_1 T alone so that e^(Ah) is not rounded to I, and s
    doublings W <- W + E^T W E, E <- E^2 with E = e^(Ah) reach T.  W is
    linear in c^T c, so c is scaled to unit max-abs and the result
    scaled back.  All candidates share one stacked exponential.
    """
    dens = np.asarray(dens, dtype=float)
    n, m, r = g.den.degree, len(dens), dens.shape[1] - 1
    out = np.full(m, np.nan)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a_g, b_g, c_g, d_g, _ = _scaled_ccf(np.array(g.num.coeffs),
                                            np.array(g.den.coeffs),
                                            g.den.roots)
        a_i, b_i, c_i, d_i, poles = _scaled_ccf(np.asarray(num, dtype=float),
                                                dens)
        stable = np.all(poles.real < 0.0, axis=-1)
        k, dim = int(stable.sum()), n + r + 1
        a = np.zeros((k, dim, dim))
        a[:, :n, :n], a[:, :n, -1] = a_g, b_g
        a[:, n:-1, n:-1], a[:, n:-1, -1] = a_i[stable], b_i[stable]
        c = np.empty((k, dim))
        c[:, :n], c[:, n:-1], c[:, -1] = c_g, -c_i[stable], d_g - d_i[stable]
        c_max = np.abs(c).max(axis=-1)
        c /= c_max[:, None]
        s = max(np.frexp(np.abs(a).sum(axis=-2).max(initial=0.0)
                         * t_final / _THETA13)[1], 0)
        h = t_final / 2.0 ** s
        vl = np.zeros((k, 2 * dim, 2 * dim))
        vl[:, :dim, :dim] = -h * a.swapaxes(-1, -2)
        vl[:, :dim, dim:] = h * c[:, :, None] * c[:, None, :]
        vl[:, dim:, dim:] = h * a
        f = _expm(vl)
        e = f[:, dim:, dim:]
        w = e.swapaxes(-1, -2) @ f[:, :dim, dim:]
        for _ in range(s):
            w = w + e.swapaxes(-1, -2) @ w @ e
            e = e @ e
        out[stable] = w[:, -1, -1] * c_max * c_max
    return out


def response_metrics(tr: StepTrace) -> ResponseMetrics:
    """Overshoot, 2% settling time, 10-90% rise time and final value.

    The final value is the mean of the last 5% of samples; the trace
    counts as settled only if that whole tail stays within 2% of it.
    """
    y, dt = tr.y, tr.dt
    k = max(1, int(round(0.05 * len(y))))
    final = float(np.mean(y[-k:]))
    if final <= 0.0:
        raise NotSettled("final value is not positive; metrics undefined")
    band = 0.02 * abs(final)
    dev = np.subtract(y, final)
    np.abs(dev, out=dev)
    if np.any(dev[-k:] > band):
        raise NotSettled("trace has not settled within its horizon")

    ipeak = int(np.argmax(y))
    peak = float(y[ipeak])
    overshoot = max(0.0, (peak - final) / final * 100.0)

    # The first out-of-band sample of the reversed trace is the last one
    # of the trace; settling is the time of the sample after it.
    last = int(np.argmax(dev[::-1] > band))
    settling = float((len(y) - last) * dt) if dev[-1 - last] > band else 0.0

    # Both levels lie below the peak (peak >= tail mean = final > 0.9
    # final), so each is first reached at or before it.
    head = y[:ipeak + 1]

    def crossing(level: float) -> float:
        idx = int(np.argmax(head >= level))
        if y[0] >= level:
            return 0.0
        y0, y1 = y[idx - 1], y[idx]
        frac = (level - y0) / (y1 - y0)
        return float((idx - 1) * dt + frac * dt)

    rise = crossing(0.9 * final) - crossing(0.1 * final)
    return ResponseMetrics(overshoot_pct=overshoot, settling_2pct_s=settling,
                           rise_10_90_s=rise, final_value=final)

