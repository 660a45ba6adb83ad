"""Independent NumPy references for the benchmark's correctness gate.

Nothing here imports mordrive.  Every value is recomputed from the
documented equations with NumPy's own root finder (or from poles the
input generator placed itself), so a wrong answer from the package
cannot also be the reference.  Coefficient arrays are ascending in s,
as in the package.
"""
from __future__ import annotations

import math

import numpy as np


def asc(coeffs) -> np.ndarray:
    return np.asarray(coeffs, dtype=float)


def polyval(coeffs, s):
    return np.polyval(asc(coeffs)[::-1], s)


def roots(coeffs) -> np.ndarray:
    return np.roots(asc(coeffs)[::-1])


def from_roots(rts, lead: float = 1.0) -> np.ndarray:
    return np.real(np.atleast_1d(np.poly(np.asarray(rts, dtype=complex))))[::-1] * lead


def polyadd(a, b) -> np.ndarray:
    out = np.zeros(max(len(a), len(b)))
    out[:len(a)] += a
    out[:len(b)] += b
    return out


def coeff(p, i: int) -> float:
    return float(p[i]) if i < len(p) else 0.0


def rel_gap(a, b) -> float:
    """Largest coefficient difference relative to the larger vector's size."""
    a, b = asc(a), asc(b)
    n = max(len(a), len(b))
    a, b = np.pad(a, (0, n - len(a))), np.pad(b, (0, n - len(b)))
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


# ---- reduction -------------------------------------------------------

def squared_magnitudes(poly_in_x) -> np.ndarray:
    """Ascending -x for the roots x of a polynomial in x = s^2."""
    if len(poly_in_x) < 2:
        return np.zeros(0)
    return np.sort(-roots(poly_in_x).real)


def reduced_den(den, r: int) -> np.ndarray:
    """Order-r even/odd reduction of a denominator, constant term 1."""
    c = asc(den) / den[0]
    z_sq = squared_magnitudes(c[0::2])[:r // 2]
    p_sq = squared_magnitudes(c[1::2])[:(r - 1) // 2]
    even = np.array([1.0])
    for z2 in z_sq:
        even = np.convolve(even, [1.0, 0.0, 1.0 / z2])
    odd = np.array([c[1]])
    for p2 in p_sq:
        odd = np.convolve(odd, [1.0, 0.0, 1.0 / p2])
    return polyadd(even, np.convolve(odd, [0.0, 1.0]))


def spectral_square(p) -> np.ndarray:
    """Coefficients of p(s) p(-s), all powers of s."""
    p = asc(p)
    return np.convolve(p, p * (-1.0) ** np.arange(len(p)))


def q1_rhs(num_hat, den_hat, d_r) -> float:
    """C1^2 of the first matching condition; negative means infeasible."""
    l2 = coeff(spectral_square(np.convolve(num_hat, d_r)), 2)
    return 2.0 * coeff(den_hat, 2) - coeff(den_hat, 1) ** 2 - l2


def matching_gap(num_hat, den_hat, d_r, n_r, q: int) -> float:
    """Worst relative gap between L_2x and M_2x for x = 1..q."""
    big_l = spectral_square(np.convolve(num_hat, d_r))
    big_m = spectral_square(np.convolve(den_hat, n_r))
    return max((abs(coeff(big_l, 2 * x) - coeff(big_m, 2 * x))
                / (1.0 + abs(coeff(big_l, 2 * x))) for x in range(1, q + 1)),
               default=0.0)


def adjusted(d_r, n: float) -> np.ndarray:
    out = asc(d_r).copy()
    out[1] *= 1.0 + n / 100.0
    out[2] *= 1.0 - n / 100.0
    return out


# ---- time domain -----------------------------------------------------

def _shift(p, at: complex) -> np.ndarray:
    """Taylor coefficients of p(at + h) in h."""
    p = np.asarray(p, dtype=complex)
    n = len(p)
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        out[k] = sum(p[i] * math.comb(i, k) * at ** (i - k) for i in range(k, n))
    return out


def step_samples(num, den, t, poles=None) -> np.ndarray:
    """Exact unit-step response of num/den at times t.

    Uses the partial fractions of num/(s den).  ``poles`` is a list of
    (pole, multiplicity); without it NumPy's roots are taken as simple.
    """
    num, den = asc(num), asc(den)
    groups = [(p, 1) for p in roots(den)] if poles is None else poles
    lead = den[-1]
    t = np.asarray(t, dtype=float)
    y = np.full(t.shape, num[0] / den[0], dtype=complex)
    for p, m in groups:
        others = [q for q, mq in groups if q != p for _ in range(mq)] + [0.0]
        q_asc = np.poly(np.asarray(others, dtype=complex))[::-1] * lead
        n_sh, q_sh = _shift(num, p), _shift(q_asc, p)
        h = []
        for k in range(m):
            acc = (n_sh[k] if k < len(n_sh) else 0.0) - sum(
                q_sh[j] * h[k - j] for j in range(1, k + 1) if j < len(q_sh))
            h.append(acc / q_sh[0])
        e = np.exp(p * t)
        for k in range(1, m + 1):
            y += h[m - k] * t ** (k - 1) / math.factorial(k - 1) * e
    return y.real


def time_constants(poles) -> tuple[float, float]:
    """(1/max|pole|, 1/min|Re pole|), the package's documented rule."""
    mags = [abs(p) for p in poles]
    return 1.0 / max(mags), 1.0 / min(-p.real for p in poles)


def default_grid(poles) -> tuple[float, int]:
    """(dt, steps) of the documented default grid: fastest/20, 5 x slowest."""
    small, large = time_constants(poles)
    dt = small / 20.0
    return dt, int(round(5.0 * large / dt))


# Long traces are evaluated in chunks so the gate's own arrays stay far
# smaller than the package's, and peak memory stays the package's.
_CHUNK = 8192


def _chunks(dt: float, steps: int):
    """Sample times in chunks that share their boundary sample."""
    for start in range(0, steps, _CHUNK):
        yield np.arange(start, min(start + _CHUNK, steps) + 1) * dt


def ise_on_grid(ya, yb, dt: float, steps: int) -> float:
    """Trapezoidal ISE of two responses given as functions of time."""
    total = 0.0
    for t in _chunks(dt, steps):
        d = ya(t) - yb(t)
        total += float(np.trapezoid(d * d, t))
    return total


def step_metrics_on_grid(y, dt: float, steps: int):
    """(overshoot %, 2 % settling, 10-90 % rise, ISE against 1) as the
    README defines them, or None where the trace has not settled."""
    k = max(1, int(round(0.05 * (steps + 1))))
    tail = y(np.arange(steps + 1 - k, steps + 1) * dt)
    final = float(np.mean(tail))
    band = 0.02 * abs(final)
    if final <= 0.0 or np.any(np.abs(tail - final) > band):
        return None
    peak, last_out, err = -np.inf, -1, 0.0
    lo, hi = 0.1 * final, 0.9 * final
    cross = {lo: None, hi: None}
    for t in _chunks(dt, steps):
        yt = y(t)
        base = int(round(t[0] / dt))
        peak = max(peak, float(np.max(yt)))
        out = np.flatnonzero(np.abs(yt - final) > band)
        if out.size:
            last_out = base + int(out[-1])
        err += float(np.trapezoid((yt - 1.0) ** 2, t))
        for level in (lo, hi):
            above = np.flatnonzero(yt >= level)
            if cross[level] is None and above.size:
                i = int(above[0])
                cross[level] = 0.0 if base + i == 0 else float(
                    t[i - 1] + (level - yt[i - 1]) / (yt[i] - yt[i - 1]) * dt)
    settling = (last_out + 1) * dt if last_out >= 0 else 0.0
    overshoot = max(0.0, (peak - final) / final * 100.0)
    return overshoot, settling, cross[hi] - cross[lo], err


# ---- drive model -----------------------------------------------------

def drive_constants(p: dict) -> dict:
    """Gains and time constants of the converter-fed drive (README model)."""
    denom = p["kb_v_per_rad_s"] ** 2 + p["ra_ohm"] * p["bt_nm_per_rad_s"]
    quad = [denom, p["bt_nm_per_rad_s"] * p["la_h"] + p["j_kgm2"] * p["ra_ohm"],
            p["j_kgm2"] * p["la_h"]]
    mags = sorted(abs(r) for r in roots(quad))
    kr = 1.35 * p["supply_line_voltage_v"] / p["vcm_v"]
    return {"K1": p["bt_nm_per_rad_s"] / denom, "Tm": p["j_kgm2"] / p["bt_nm_per_rad_s"],
            "T1": 1.0 / mags[0], "T2": 1.0 / mags[1], "Kr": kr,
            "Hc": p["rated_voltage_v"] / kr / p["imax_a"],
            "Tc": p["tc_s"], "Tr": p["tr_s"], "zeta": p["zeta"]}


def conventional_gains(c: dict) -> tuple[float, float]:
    """(K, Kc) of the two-pole damping design."""
    k = (c["T1"] + c["Tr"]) ** 2 / (4.0 * c["zeta"] ** 2 * c["T1"] * c["Tr"]) - 1.0
    return k, k * c["Tc"] / (c["K1"] * c["Hc"] * c["Kr"] * c["Tm"])


def design_loop(c: dict) -> tuple[np.ndarray, np.ndarray]:
    den = np.convolve(np.convolve([1.0, c["T1"]], [1.0, c["T2"]]), [1.0, c["Tr"]])
    return np.array([1.0, c["Tc"]]), den


def closed_current_loop(c: dict, kc: float) -> tuple[np.ndarray, np.ndarray]:
    g0 = kc * c["K1"] * c["Kr"] * c["Hc"] / c["Tc"]
    num = np.convolve([1.0, c["Tc"]], [1.0, c["Tm"]]) * g0
    _, cubic = design_loop(c)
    return num, polyadd(np.convolve([0.0, 1.0], cubic), num)


def damping_discriminants(c: dict) -> list[float]:
    """Discriminants of the q = 1 damping-gain quadratic, one per C1 sign."""
    num, den = design_loop(c)
    d_r = reduced_den(den, 2)
    rhs = q1_rhs(num, den, d_r)
    four_z2 = 4.0 * c["zeta"] ** 2
    out = []
    for c1 in (math.sqrt(rhs), -math.sqrt(rhs)):
        qa = c1 * c1
        qb = 2.0 * d_r[1] * c1 - four_z2 * d_r[2]
        qc = d_r[1] ** 2 - four_z2 * d_r[2] * d_r[0]
        out.append(qb * qb - 4.0 * qa * qc)
    return out
