"""Time- and frequency-domain evaluation of transfer functions.

Step responses are exact samples, to rounding, of a pole-scaled
controllable-canonical realization under a unit step; Bode traces
evaluate the rational function directly on a log grid.

The one-step update is one matrix exponential, E = [[M, v], [0, 1]] =
e^([[A, b], [0, 0]] dt) (Van Loan 1978), on the state with a constant
1 appended, and E itself is propagated: sample k is (c, d) E^k e_last.
E's last row is exactly (0, ..., 0, 1), as ``_expm``'s Taylor-16 kernel
(Paterson & Stockmeyer 1973; theta_16 from Al-Mohy & Higham 2011) keeps
the augmented matrix's zero last row in every power.  The N steps are cut
into blocks of about sqrt(N): the rows (c, d) E^j within a block come
from doubling over one ladder of E^(2^j), the block starts from the
same routine on the ladder's tail, E^B's own ladder, and all outputs
from one 2-D product of the starts against the rows, so no state is
kept per step.  A step trace keeps those two factors, about 2 sqrt(N)
rows, and forms its samples in that one product only when ``y`` is
read; ``ise`` streams two traces from their factors a few blocks at a
time and forms neither.  No trace stores a time grid: its samples sit
at k dt, and metrics and ISE work from the index and dt.

A gain-sweep point needs no whole trace: the final value and the ISE
against 1 are sums over all k of terms in E^k, which doubling (Smith
1968) over the same ladder gives in closed form, and the peak, settling
and crossings are read from the first few hundred to thousand samples
once the poles' modal envelope shows that no later sample changes
them.  A sweep's closed loops are measured as one stack: their grids,
exponentials and ladder are batched, each row taking its own counts, and
the ladder is walked twice, once for two rows of powers and once for
two doubling sums.  Each row samples at most one head window, the
narrowest its envelope certifies, in one block of at most a whole
trace's samples with other rows of that width; a row with no such
window, or whose window misses the peak, reads its whole trace alone.

``step_ise`` needs no time grid either: the exact step-error ISE over
the reference model's default horizon, 5 x its largest time constant as
in ``step_response``, is a Gramian of the error system, from the same
exponential applied to Van Loan's block matrix and doubled up to that
horizon, for a whole stack of candidate models at once.
"""
from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    GridMismatch,
    NotSettled,
    NumericError,
    SimulationDiverged,
    ValidationError,
)
from .poly_tf import TransferFunction, _horner, _roots_of_rows, is_stable

DEFAULT_DT_DIVISOR = 20.0
DEFAULT_HORIZON_FACTOR = 5.0

# Largest number of time steps one step response may take.  Each float64
# array over such a grid is 16 MB.  A trace holds none until its ``y`` is
# read, and ``ise`` reads none; a trace measured whole holds two at once
# (the output and the metrics' deviation buffer), as does a sweep point
# read from its whole trace.  A wide pole spread under the default dt and
# horizon would ask for far more.  The budget keeps the block size at
# most 2048, a divisor of ``_ISE_BLOCK``.
MAX_STEP_SAMPLES = 2_000_000

# Largest Bode grid; a point costs one complex response and three floats.
MAX_BODE_POINTS = 2_000_000

# Points of ``bode``'s response evaluated at once, as in the CLI's CSV blocks
_BODE_BLOCK = 32_768

# Samples in each of ``ise``'s buffers (32 kB), reused over any trace
_ISE_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class StepTrace:
    """Uniformly sampled step response: sample k sits at t = k dt.

    A trace stores neither its samples nor its time grid, only its two
    block factors: sample iB + j, for B = ``len(rows)`` and k = iB + j <
    ``n_samples``, is the dot product of ``starts[i]`` and ``rows[j]``.
    ``y`` and ``t`` are built on first access and kept; ``ise`` reads the
    samples from the factors without building ``y``.  ``step_response``
    builds traces, each of at least two blocks of B <= 2048 samples.
    """

    dt: float
    n_samples: int
    starts: np.ndarray
    rows: np.ndarray

    @functools.cached_property
    def y(self) -> np.ndarray:
        """Samples, the product of ``starts`` and ``rows`` in one pass."""
        return (self.starts @ self.rows.T).reshape(-1)[:self.n_samples]

    @functools.cached_property
    def t(self) -> np.ndarray:
        """Sample times, ``np.arange(n_samples) * dt``."""
        return np.arange(self.n_samples) * self.dt


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
    largest 1/min|Re pole| (decay limit): ``_time_constants`` on one
    row.  Raises ``ValidationError`` when no finite decay time exists
    (static gain, pole at or right of the imaginary axis), in which case
    callers must supply explicit horizons.
    """
    if g.den.degree < 1:
        raise ValidationError("static system has no time constants; pass "
                              "t_final and dt explicitly")
    if not is_stable(g.den):
        raise ValidationError(
            "no finite decay time: system has a pole at or right of the "
            "imaginary axis; pass t_final and dt explicitly")
    return _time_constants([g.den.roots])[0]


def _time_constants(rows) -> list[tuple[float, float]]:
    """(smallest, largest) time constants, 1/max|p| and 1/min(-Re p), of
    each row of stable poles, given as Python complex numbers."""
    return [(1.0 / max(map(abs, row)), 1.0 / min(-p.real for p in row))
            for row in rows]


# 1/(4j + i)!, X^i's coefficient in T_16's block B_j; X^4 / 16! in B_3 only
_TAYLOR16 = np.array([[(i < 4 or j == 3) / math.factorial(4 * j + i)
                       for i in range(5)] for j in range(4)])
_THETA16 = 0.78028742566265743
_ISE_STEP_NORM = 5.371920351148152  # see step_ise


def _expm(a: np.ndarray) -> np.ndarray:
    """e^A by Taylor-16 scaling and squaring, batched over leading axes.

    Each matrix X is A scaled by its own 2^-s to 1-norm at most theta_16
    (Al-Mohy & Higham 2011, Table 3.1), T_16(X) = B_0 + X^4 (B_1 + X^4
    (B_2 + X^4 B_3)) is evaluated in seven products and no solve (Paterson
    & Stockmeyer 1973), and the result is squared s times: the whole
    stack at each squaring every matrix takes, a select only past the
    least s.
    """
    s = np.maximum(np.frexp(np.abs(a).sum(axis=-2).max(axis=-1) / _THETA16)[1], 0)
    n = a.shape[-1]
    x = np.empty((4,) + a.shape)
    np.divide(a, np.ldexp(1.0, s)[..., None, None], out=x[0])
    np.matmul(x[0], x[0], out=x[1])
    np.matmul(x[1], x[0], out=x[2])
    np.matmul(x[1], x[1], out=x[3])
    b = (_TAYLOR16[:, 1:] @ x.reshape(4, -1)).reshape(x.shape)
    b.reshape(4, -1, n * n)[..., ::n + 1] += _TAYLOR16[:, :1, None]
    for j in (2, 1, 0):
        b[j] += x[3] @ b[j + 1]
    r = b[0]
    squarings = np.ravel(s).tolist()
    uniform = min(squarings, default=0)
    for k in range(max(squarings, default=0)):
        if k < uniform:
            r = r @ r
        else:
            r = np.where((k < s)[..., None, None], r @ r, r)
    return r


def _scaled_ccf(num: np.ndarray, den: np.ndarray, poles):
    """(A, b, c, d) of num/den in pole-scaled canonical form, batched.

    The controllable canonical realization of ascending ``num`` and
    ``den``, b the last unit vector, is rescaled by D = diag(1, |p1|,
    |p1 p2|, ...), poles by ascending magnitude with a zero magnitude
    taken as 1, which keeps every entry of A within the pole magnitudes
    however stiff the denominator is.  Any positive diagonal D is an
    exact similarity, and this one leaves the first state alone, so x0 =
    A^-1 b is still -(lead / constant term) e_1.  ``poles`` are the roots
    of ``den``, which every caller already holds.
    """
    n = den.shape[-1] - 1
    lead = den[..., -1:]
    alpha = den[..., :-1] / lead
    beta = np.zeros(den.shape)
    beta[..., :num.shape[-1]] = num / lead
    d = beta[..., n]
    a = np.zeros(den.shape[:-1] + (n, n))
    a.reshape(a.shape[:-2] + (n * n,))[..., 1::n + 1] = 1.0  # superdiagonal
    a[..., n - 1:, :] = -alpha[..., None, :]
    c = beta[..., :n] - d[..., None] * alpha
    mags = np.sort(np.abs(poles), axis=-1)
    scale = np.ones(mags.shape)
    np.cumprod(np.where(mags == 0.0, 1.0, mags)[..., :-1], axis=-1,
               out=scale[..., 1:])
    b = np.zeros(mags.shape)
    b[..., -1:] = 1.0 / scale[..., -1:]
    return a * scale[..., None, :] / scale[..., :, None], b, c * scale, d


def _propagate(ladder: list[np.ndarray], c: np.ndarray,
               n_steps: int) -> np.ndarray:
    """Outputs c^T E^k e_last, k = 0..n_steps, as an (..., n_steps + 1, p)
    view of one buffer; ``c`` is (..., dim, p) and ``ladder`` is
    ``_ladder(E, n_steps + 1)`` or longer, with the same leading axes.

    E is an augmented exponential [[M, v], [0, 1]] whose last row is
    exactly (0, ..., 0, 1), so E^k e_last is x_k of x+ = M x + v from x_0
    = 0 with a constant 1 appended, and c's last row weights that 1: no
    offset row or offset recurrence is needed.  Output iB + j is one
    product of the block starts against the rows of ``_factors``.
    Leading axes are a stack of systems, each taking the same products as
    a call on it alone, so a stack's outputs equal its rows' bit for bit.
    """
    if n_steps == 0:
        return c[..., -1:, :]
    starts, rows = _factors(ladder, c, n_steps)
    out = np.matmul(starts, rows.swapaxes(-1, -2))
    out = out.reshape(out.shape[:-2] + (-1, c.shape[-1]))
    return out[..., :n_steps + 1, :]


def _factors(ladder: list[np.ndarray], c: np.ndarray,
             n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(starts, rows) of ``_propagate``'s outputs for n_steps >= 1, with
    output iB + j, column q, the dot product of starts[..., i, :] and
    rows[..., j p + q, :].

    The block size B = 2^b is the power of two >= sqrt(n_steps + 1), and
    B <= n_steps + 1.  The rows c^T E^j, j < B, (..., B p, dim), come from
    b doublings, each the rows so far times E^(2^j); the block starts
    E^(iB) e_last, i <= n_steps // B, (..., n_blocks, dim), from a
    ``_propagate`` call on (E^B's ladder, ``ladder[b:]``, I).
    """
    dim, p = c.shape[-2:]
    lead = np.broadcast_shapes(c.shape[:-2], ladder[0].shape[:-2])
    bits = math.isqrt(n_steps).bit_length()
    rows = np.empty(lead + (p << bits, dim))
    rows[..., :p, :] = c.swapaxes(-1, -2)
    for j in range(bits):
        h = p << j
        np.matmul(rows[..., :h, :], ladder[j], out=rows[..., h:2 * h, :])
    return _propagate(ladder[bits:], np.eye(dim), n_steps >> bits), rows


def step_response(g: TransferFunction, t_final: float | None = None,
                  dt: float | None = None) -> StepTrace:
    """Unit-step response on a uniform grid starting at t = 0.

    The samples are exact to rounding whatever ``dt`` is, so ``dt`` sets
    the resolution only.  Defaults: ``dt`` = smallest time constant / 20
    and ``t_final`` = 5 x largest time constant, both derived from the
    denominator poles; static, integrating and unstable systems need
    both explicitly.  The realization is scaled by the denominator's
    cached roots, ``g.den.roots``.  A grid of more than
    ``MAX_STEP_SAMPLES`` steps is refused with ``ValidationError``, and
    non-finite samples raise ``SimulationDiverged``.

    The trace holds the two factors of ``_propagate``'s product and forms
    its samples only when ``y`` is read; every sample is checked here.
    """
    times = (characteristic_times(g) if t_final is None or dt is None
             else (None, None))
    dt, n_steps = _step_grid(*times, t_final, dt)
    e, c = _step_exponential(np.array([g.num.coeffs]),
                             np.array([g.den.coeffs]),
                             np.array([g.den.roots if g.den.degree else ()]),
                             np.array([dt]))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        starts, rows = _factors(_ladder(e[0], n_steps + 1), c[0], n_steps)
        trace = StepTrace(dt, n_steps + 1, starts, rows)
        # Every start and row feeds a kept sample (B <= n_steps + 1), by
        # x inf or by 0 inf = NaN, so a non-finite entry is a non-finite
        # sample.  Finite entries below 2^s and 2^r give samples below
        # dim 2^(s + r), which no rounding carries past 2^1023.
        s_max, r_max = (float(np.abs(f).max()) for f in (starts, rows))
        if not (math.isfinite(s_max) and math.isfinite(r_max)):
            raise SimulationDiverged("step response produced non-finite "
                                     "samples")
        if (math.frexp(s_max)[1] + math.frexp(r_max)[1]
                + len(c[0]).bit_length() > 1023):
            _check_finite(trace.y)
    return trace


def _step_grid(tc_small: float | None, tc_large: float | None,
               t_final: float | None, dt: float | None) -> tuple[float, int]:
    """(dt, number of steps) of ``step_response``'s grid, a missing ``dt``
    and ``t_final`` taken from the smallest and largest time constants,
    and the sample budget enforced."""
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
    return dt, int(round(steps))


def _step_exponential(nums: np.ndarray, dens: np.ndarray, poles: np.ndarray,
                      dt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(E, c) of a stack of systems nums[i] / dens[i] with roots poles[i]
    and steps dt[i]: the augmented one-step exponentials under a unit
    step, (m, n + 1, n + 1), and the output columns, (m, n + 1, 1), with
    sample k of row i = c[i]^T E[i]^k e_last."""
    n = dens.shape[-1] - 1
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a, b, c, d = _scaled_ccf(nums, dens, poles)
        aug = np.zeros((len(dens), n + 1, n + 1))
        aug[:, :n, :n], aug[:, :n, n] = a * dt[:, None, None], b * dt[:, None]
        # aug's zero last row makes E's exactly (0, ..., 0, 1): no drift
        e = _expm(aug)
    return e, np.concatenate((c, d[:, None]), axis=-1)[..., None]


def _check_finite(y: np.ndarray) -> None:
    """Raise ``SimulationDiverged`` if any sample is not finite; min and
    max carry any NaN through, so their two passes see every one."""
    if not (math.isfinite(y.min()) and math.isfinite(y.max())):
        raise SimulationDiverged("step response produced non-finite samples")


def bode(g: TransferFunction, omega_min: float, omega_max: float,
         points_per_decade: int = 60) -> BodeTrace:
    """Magnitude/phase of g(jw) on a log grid.

    The grid has n = ``round(ppd * decades) + 1`` points (at least 2):
    10^(k step + log10 omega_min) with step = decades / (n - 1), the
    last point pinned to omega_max, which are ``np.logspace``'s values.
    A band whose two ends have the same log10 (zero decades) is refused
    with ``ValidationError``.  The phase is ``np.angle`` unwrapped by
    subtracting 2 pi times the running sum of round(step / 2 pi): a step
    from one point to the next of more than pi, which on the angle's
    range [-pi, pi] is where ``np.unwrap`` corrects, takes a whole turn
    off.  Poles on the imaginary axis yield infinities that are passed
    through and flagged via ``contains_nonfinite``.  A grid of more
    than ``MAX_BODE_POINTS`` points is refused with ``ValidationError``.
    The response is evaluated ``_BODE_BLOCK`` points at a time into the
    two output arrays, the turn count carried from block to block, so
    no temporary spans the whole grid.
    """
    if not (0.0 < omega_min < omega_max):
        raise ValidationError("need 0 < omega_min < omega_max")
    if points_per_decade < 1:
        raise ValidationError("points_per_decade must be >= 1")
    lo, hi = math.log10(omega_min), math.log10(omega_max)
    decades = hi - lo
    if decades == 0.0:
        raise ValidationError(
            f"omega_min = {omega_min!r} and omega_max = {omega_max!r} have "
            "the same log10, so the band spans zero decades; pass a wider "
            "band (--w-min / --w-max)")
    # An int compared with a float is exact in Python, so no product
    # overflows here, however large points_per_decade is.
    if points_per_decade > MAX_BODE_POINTS / decades:
        raise ValidationError(
            f"bode grid of {points_per_decade} points per decade over "
            f"{decades:.3g} decades exceeds the budget of {MAX_BODE_POINTS} "
            "points; pass a smaller --ppd or a narrower band")
    n = max(2, int(round(points_per_decade * decades)) + 1)
    # np.linspace's steps, without its per-call checks: decades > 0 and
    # n <= MAX_BODE_POINTS + 1 keep the step a normal float, never 0.0.
    omega = np.arange(n, dtype=float)
    omega *= decades / (n - 1)
    omega += lo
    omega[-1] = hi
    np.power(10.0, omega, out=omega)
    num, den = np.array([g.num.coeffs]), np.array([g.den.coeffs])
    mag_db, phase, count = np.empty(n), np.empty(n), -0.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for i in range(0, n, _BODE_BLOCK):
            j = min(i + _BODE_BLOCK, n)
            s = 1j * omega[None, i:j]
            resp = (_horner(num, s) / _horner(den, s))[0]
            np.log10(np.abs(resp), out=mag_db[i:j])
            mag_db[i:j] *= 20.0
            # np.angle's own formula, written in place
            angle = np.arctan2(resp.imag, resp.real, out=phase[i:j])
            # Turns from the previous point, the grid's first taking none,
            # summed on from the count before this block: -0.0 + t is t
            # and sums of integers are exact, so the sums are one cumsum's.
            if i:
                steps = np.empty(j - i)
                steps[0] = angle[0] - last
                np.subtract(angle[1:], angle[:-1], out=steps[1:])
            else:
                steps = np.subtract(angle[1:], angle[:-1])
            turns = np.rint(steps / (2.0 * np.pi))
            last = angle[-1]
            turns[0] += count
            count = turns.cumsum(out=turns)[-1]
            angle[len(angle) - len(turns):] -= 2.0 * np.pi * turns
    np.degrees(phase, out=phase)
    # A sum is finite exactly when every term is: no finite dB or degree
    # value on a grid this size comes near overflowing it.
    flag = not (math.isfinite(mag_db.sum()) and math.isfinite(phase.sum()))
    return BodeTrace(omega=omega, mag_db=mag_db, phase_deg=phase,
                     contains_nonfinite=flag)


def ise(a: StepTrace, b: StepTrace | float) -> float:
    """Trapezoidal integral of the squared difference between trace ``a``
    and either a trace on the same grid or a constant level ``b``.

    A trace's grid is k * dt, so two grids match exactly when their
    sample counts and dt do, and the trapezoid is dt times the sum of
    squares less half the squared end samples.  Neither trace's ``y`` is
    built: the samples are streamed from the factors, ``_ISE_BLOCK`` at a
    time, as whole blocks of B (B <= 2048 divides it) in reused buffers,
    each chunk the same products, bit for bit, as ``y``'s.
    """
    traces = [a]
    if isinstance(b, StepTrace):
        if a.n_samples != b.n_samples or a.dt != b.dt:
            raise GridMismatch("traces do not share a time grid")
        traces.append(b)
    n_blocks, block = len(a.starts), len(a.rows)
    per = _ISE_BLOCK // block
    samples, d = np.empty((len(traces), _ISE_BLOCK)), np.empty(_ISE_BLOCK)
    total = 0.0
    for i in range(0, n_blocks, per):
        # A last chunk of one block is formed with the block before it:
        # NumPy takes a one-row product by gemv, which rounds unlike the
        # gemm that forms ``y`` (n_blocks >= 2, as B <= n_steps).
        lo, hi = min(i, n_blocks - 2), min(i + per, n_blocks)
        part = slice((i - lo) * block,
                     min(hi * block, a.n_samples) - lo * block)
        # The last block's samples past the trace's end may overflow where
        # ``step_response`` checked ``y`` whole.
        with (np.errstate(over="ignore", invalid="ignore")
              if hi == n_blocks else contextlib.nullcontext()):
            for tr, out in zip(traces, samples):
                np.matmul(tr.starts[lo:hi], tr.rows.T,
                          out=out[:(hi - lo) * block].reshape(hi - lo, block))
        diff = np.subtract(samples[0, part],
                           samples[1, part] if len(traces) > 1 else b,
                           out=d[:part.stop - part.start])
        total += np.dot(diff, diff)
        if i == 0:
            d0 = diff[0]
    dn = diff[-1]
    return float(a.dt * (total - (d0 * d0 + dn * dn) / 2.0))


def step_ise(g: TransferFunction, num, dens) -> np.ndarray:
    """Exact ISE over [0, T] between the unit-step responses of g and of
    each num/den_i, with no time grid.

    T is ``step_response``'s default horizon for g, 5 x its largest time
    constant, so ``g`` must be stable.  ``dens`` is an (m, r + 1) array of
    ascending denominators of one degree r >= 1 and ``num`` their shared
    numerator, of degree at most r.  The candidates' poles come from one
    ``_roots_of_rows`` call; a candidate with a pole at or right of the
    imaginary axis, or whose roots cannot be found (a NaN or inf
    coefficient, an overflowing companion), scores NaN.  The error y_g -
    y_i is the output c e^(At) e_last of the system on (x_g, x_i, 1) with
    A = [[A_g, 0, b_g], [0, A_i, b_i], [0, 0, 0]] and c = (c_g, -c_i, d_g
    - d_i), so the ISE is the last diagonal entry of the Gramian W(T) =
    int_0^T e^(A^T t) c^T c e^(At) dt.  W(h) for h = T / 2^s is F22^T F12
    of one exponential F of [[-A^T, c^T c], [0, A]] h (Van Loan 1978), s
    the least with ||A||_1 h <= ``_ISE_STEP_NORM`` = 5.37 (Padé-13's
    theta_13) so that e^(Ah) is not rounded to I, and s doublings in
    place, W <- W + E^T W E, then E <- E^2 where another doubling follows,
    from E = e^(Ah) reach T; above theta_16 = 0.78, ``_expm`` squares F
    in one product a step, where a doubling takes three.  W is linear in
    c^T c, so c is scaled to unit max-abs and the result scaled back.  All
    candidates share one stacked exponential.
    """
    t_final = DEFAULT_HORIZON_FACTOR * characteristic_times(g)[1]
    dens = np.asarray(dens, dtype=float)
    n, m, r = g.den.degree, len(dens), dens.shape[1] - 1
    out = np.full(m, np.nan)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a_g, b_g, c_g, d_g = _scaled_ccf(np.array(g.num.coeffs),
                                         np.array(g.den.coeffs), g.den.roots)
        poles = _roots_of_rows(dens)[0]
        a_i, b_i, c_i, d_i = _scaled_ccf(np.array(num, float), dens, poles)
        stable = np.all(poles.real < 0.0, axis=-1)
        k, dim = int(stable.sum()), n + r + 1
        a = np.zeros((k, dim, dim))
        a[:, :n, :n], a[:, :n, -1] = a_g, b_g
        a[:, n:-1, n:-1], a[:, n:-1, -1] = a_i[stable], b_i[stable]
        c = np.empty((k, dim))
        c[:, :n], c[:, n:-1], c[:, -1] = c_g, -c_i[stable], d_g - d_i[stable]
        c_max = np.abs(c).max(axis=-1)
        c /= c_max[:, None]
        s = max(int(np.frexp(np.abs(a).sum(axis=-2).max(initial=0.0)
                             * t_final / _ISE_STEP_NORM)[1]), 0)
        h = t_final / 2.0 ** s
        vl = np.zeros((k, 2 * dim, 2 * dim))
        vl[:, :dim, :dim] = -h * a.swapaxes(-1, -2)
        vl[:, :dim, dim:] = h * c[:, :, None] * c[:, None, :]
        vl[:, dim:, dim:] = h * a
        f = _expm(vl)
        e = f[:, dim:, dim:]
        w = e.swapaxes(-1, -2) @ f[:, :dim, dim:]
        for j in range(s):
            if j:
                e = e @ e
            w += e.swapaxes(-1, -2) @ w @ e
        out[stable] = w[:, -1, -1] * c_max * c_max
    return out


def _ladder(e: np.ndarray, count: int) -> list[np.ndarray]:
    """E^(2^j) for j < count.bit_length(), by repeated squaring, batched."""
    ladder = [e]
    for _ in range(count.bit_length() - 1):
        ladder.append(ladder[-1] @ ladder[-1])
    return ladder


def _doubling_sum(w: np.ndarray, ladder: list[np.ndarray],
                  count: np.ndarray) -> np.ndarray:
    """Sum of (E^k)^T W E^k over 0 <= k < count, count >= 1, batched,
    from a ladder ``ladder[j]`` = E^(2^j) covering count's bits.

    Doubling (Smith 1968): W runs through the sums over k < 2^j, W <- W +
    E_j^T W E_j with E_j = E^(2^j), and each set bit j of count, lowest
    first, puts a block of 2^j terms ahead of those summed so far, total
    <- W + E_j^T total E_j, from a total of zero.  ``count`` is an int
    array with one count per matrix, of the stack's leading shape, and
    each matrix takes the steps of its own bits, from ``_rung_masks``.
    ``w`` may carry more leading axes than the ladder, so that several
    sums over one ladder (w[0], w[1], ...) share one walk up it, each
    equal to its own call bit for bit.
    """
    total, masks = np.zeros_like(w), _rung_masks(count)
    for j, mask in enumerate(masks):
        e, et = ladder[j], ladder[j].swapaxes(-1, -2)
        if mask is not None:
            total = np.where(mask, w + et @ total @ e, total)
        if j + 1 < len(masks):
            w = w + et @ w @ e
    return total


def _times_power(v: np.ndarray, ladder: list[np.ndarray],
                 count: np.ndarray) -> np.ndarray:
    """Rows ``v`` times E^count, from the ladder entries at count's set
    bits; ``count`` and stacked ``v`` as in ``_doubling_sum``."""
    for j, mask in enumerate(_rung_masks(count)):
        if mask is not None:
            v = np.where(mask, v @ ladder[j], v)
    return v


def _rung_masks(count: np.ndarray) -> list:
    """Per rung j to the largest count's top bit, once per walk: None
    where no count sets bit j, else a mask of the counts that set it, of
    the int array's leading shape with matrix axes added."""
    bits = count[..., None] >> np.arange(int(count.max()).bit_length()) & 1
    return [bits[..., j, None, None] if some else None for j, some in
            enumerate(bits.any(axis=tuple(range(count.ndim))).tolist())]


def response_metrics(tr: StepTrace) -> ResponseMetrics:
    """Overshoot, 2% settling time, 10-90% rise time and final value.

    The final value is the mean of the last 5% of samples; the trace
    counts as settled only if that whole tail stays within 2% of it.
    """
    k = max(1, int(round(0.05 * len(tr.y))))
    return _settled_metrics(tr.y, tr.dt, float(np.mean(tr.y[-k:])), k)


def _settled_metrics(y: np.ndarray, dt: float, final: float,
                     k: int) -> ResponseMetrics:
    """Metrics of a whole trace ``y`` whose final value is ``final``; it
    counts as settled only if its last k samples stay within 2% of it."""
    if final <= 0.0:
        raise NotSettled("final value is not positive; metrics undefined")
    if not np.all(np.abs(y[-k:] - final) <= 0.02 * final):
        raise NotSettled("trace has not settled within its horizon")
    return _metrics_from_head(y[None], np.array([dt]), np.array([final]))[0]


def _metrics_from_head(y: np.ndarray, dt: np.ndarray,
                       final: np.ndarray) -> list[ResponseMetrics]:
    """Metrics of a stack of settled traces, one per row, from the first
    samples of each, the (rows, width) block ``y``: each row must hold
    its trace's peak and every sample more than 2% from final[i]."""
    band = 0.02 * final
    rows = np.arange(len(y))
    ipeak = y.argmax(axis=1)
    overshoot = np.maximum((y[rows, ipeak] - final) / final * 100.0, 0.0)

    # The first out-of-band sample of the reversed head is the last one
    # of the trace; settling is the time of the sample after it.
    dev = np.abs(y - final[:, None])
    last = (dev[:, ::-1] > band[:, None]).argmax(axis=1)
    settling = np.where(dev[rows, -1 - last] > band,
                        (y.shape[1] - last) * dt, 0.0)

    # Both levels lie below the peak (peak >= tail mean = final > 0.9
    # final), so each is first reached at or before it.
    level = np.multiply.outer((0.1, 0.9), final)
    idx = (y[:, :ipeak.max(initial=0) + 1] >= level[..., None]).argmax(axis=-1)
    y0, y1 = y[rows, idx - 1], y[rows, idx]
    with np.errstate(divide="ignore", invalid="ignore"):  # rows taking 0.0
        frac = (level - y0) / (y1 - y0)
    t10, t90 = np.where(y[:, 0] >= level, 0.0, (idx - 1) * dt + frac * dt)
    return list(map(ResponseMetrics, overshoot.tolist(), settling.tolist(),
                    (t90 - t10).tolist(), final.tolist()))


def _unit_step_measures(nums: np.ndarray, dens: np.ndarray,
                        poles: np.ndarray) -> list:
    """``response_metrics`` and ``ise`` against 1 of the unit-step
    responses of a stack of stable systems nums[i] / dens[i] with sorted
    roots poles[i], each on ``step_response``'s default grid, mostly
    without sampling them.

    Row i gives (ResponseMetrics, ISE), or the ``NumericError`` or
    ``ValidationError`` (the step budget) that stops it.  With E and c
    from ``_step_exponential``, count = N + 1 samples and a tail of k:
    the tail mean is the last entry of the sum of (E^j)^T (c_a e_last^T)
    E^j over j < k with c_a = (E^(count - k))^T c, since every power of E
    keeps the last row e_last^T; the ISE's sum of squares is the last
    diagonal entry of the sum of (E^j)^T c' c'^T E^j over j < count with
    c' = c - e_last, and its end sample is c^T E^(count - 1) e_last.  The
    grids, exponentials and one ladder of E^(2^j) up to the largest count
    are shared by the stack, which walks the ladder twice: one
    ``_times_power`` call on the rows (c^T, c^T) with counts (count - k,
    count - 1), and one ``_doubling_sum`` on the tail and error matrices
    with counts (k, count).

    The peak, settling and crossings are read from a head window of w
    samples once the modal envelope env(w) = sum |rho_i| e^(Re p_i w dt)
    of the step residues rho_i = num(p_i) / (p_i den'(p_i)) bounds every
    later sample: within the band around the tail mean, strictly below
    the window's peak, and with the tail past the window.  The candidate
    windows w_0 2^j <= count - k, w_0 ``_propagate``'s block size, and
    their envelopes are evaluated for every row at once; each row takes
    the first whose envelope stays in the band, its one window, and
    ``_certified_heads`` samples and measures those in one block per
    width.  Clustered poles give huge residues and never certify; then,
    as when no candidate does or the window misses the peak, the head is
    the whole trace, read and measured for that row alone, whose tail
    must stay in the band.
    """
    out: list = [None] * len(dens)
    grids = []
    for i, times in enumerate(_time_constants(poles.tolist())):
        try:
            grids.append((i, *_step_grid(*times, None, None)))
        except ValidationError as exc:
            out[i] = exc
    if not grids:
        return out
    rows, dts, n_steps = map(np.array, zip(*grids))
    counts = n_steps + 1
    tails = np.array([max(1, int(round(0.05 * count)))
                      for count in counts.tolist()])
    nums, dens, poles = nums[rows], dens[rows], poles[rows]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        e, c = _step_exponential(nums, dens, poles, dts)
        ladder = _ladder(e, int(counts.max()))
        c_tail, c_end = _times_power(np.stack((c.swapaxes(-1, -2),) * 2),
                                     ladder, np.stack((counts - tails,
                                                       counts - 1)))
        tail = np.zeros_like(e)
        tail[:, :, -1] = c_tail[:, 0]
        err = c.copy()
        err[:, -1] -= 1.0
        tail_sum, sq = _doubling_sum(
            np.stack((tail, err @ err.swapaxes(-1, -2))), ladder,
            np.stack((tails, counts)))[..., -1, -1]
        finals = tail_sum / tails
        slope = np.arange(1, dens.shape[-1]) * dens[:, 1:]
        rho = np.abs(_horner(nums, poles) / (poles * _horner(slope, poles)))
        y_inf = nums[:, 0] / dens[:, 0]
        w0 = np.array([1 << math.isqrt(n).bit_length() for n in n_steps])
        room = counts - tails
        widths = w0[:, None] << np.arange(int((room // w0).max()).bit_length())
        decay = np.exp(poles.real[:, None, :]
                       * (widths * dts[:, None])[..., None])
        # one dot product per row and window, as rho[i] @ decay[i, j] is
        env = np.matmul(decay[..., None, :], rho[:, None, :, None])[..., 0, 0]
        tries = ((widths <= room[:, None]) & (finals > 0.0)[:, None]
                 & (env + np.abs(y_inf - finals)[:, None]
                    < 0.02 * finals[:, None]))
        first = (np.arange(len(rows)), tries.argmax(axis=1))
        measured = _certified_heads(ladder, c,
                                    np.where(tries[first], widths[first], 0),
                                    y_inf + env[first], dts, finals)
        ends = (c[:, -1, 0] - 1.0) ** 2 + (c_end[:, 0, -1] - 1.0) ** 2
        ises = (dts * (sq - ends / 2.0)).tolist()
        for i, row in enumerate(rows):
            try:
                if i not in measured:
                    y = _propagate([step[i] for step in ladder], c[i],
                                   n_steps[i])[:, 0]
                    _check_finite(y)
                    measured[i] = _settled_metrics(y, dts[i], finals[i],
                                                   tails[i])
                out[row] = (measured[i], ises[i])
            except (NumericError, ValidationError) as exc:
                out[row] = exc
    return out


def _certified_heads(ladder: list[np.ndarray], c: np.ndarray,
                     width: np.ndarray, ceiling: np.ndarray, dt: np.ndarray,
                     final: np.ndarray) -> dict:
    """Row i -> the metrics (dt[i] and final[i]) of the outputs
    c[i]^T E[i]^k e_last, k < width[i], for each row with a window
    (width[i] > 0) whose peak lies strictly above ceiling[i].  The rows of
    each width w are sampled as ``_propagate`` stacks of at most
    ``MAX_STEP_SAMPLES // w`` rows, on their rungs of the stacked ladder,
    and those of each stack that pass are measured as one block.
    """
    measured = {}
    for w in sorted(set(width[width > 0].tolist())):
        rows = np.flatnonzero(width == w)
        for start in range(0, len(rows), MAX_STEP_SAMPLES // w):
            group = rows[start:start + MAX_STEP_SAMPLES // w]
            rungs = [step[group] for step in ladder[:(w - 1).bit_length()]]
            y = _propagate(rungs, c[group], w - 1)[..., 0]
            peaked = ceiling[group] < y.max(axis=-1)
            done = group[peaked]
            measured.update(zip(done.tolist(), _metrics_from_head(
                y[peaked], dt[done], final[done])))
    return measured
