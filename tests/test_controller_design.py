import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from mordrive import controller_design, sim_analysis
from mordrive.controller_design import (
    SweepPoint,
    closed_current_loop,
    design_conventional,
    design_via_mor,
    evaluate_gain,
    solve_damping_gain,
    sweep_gain,
)
from mordrive.drive_model import derive_model, worked_example_params
from mordrive.errors import (
    BadOrder,
    NoPositiveGain,
    NoRealGain,
    NumericError,
    ValidationError,
)
from mordrive.mor_engine import ReductionConfig
from mordrive.poly_tf import (
    Polynomial,
    TransferFunction,
    dc_gain,
    is_stable,
)
from mordrive.sim_analysis import (
    DEFAULT_DT_DIVISOR,
    DEFAULT_HORIZON_FACTOR,
    MAX_STEP_SAMPLES,
    characteristic_times,
    ise,
    response_metrics,
    step_response,
)


def _loop_gain(model, kc):
    """K = Kc*K1*Hc*Kr*Tm/Tc, the inverse of kc_from_K."""
    return kc * model.K1 * model.Hc * model.Kr * model.Tm / model.params.tc_s


def _seeded_nameplates(count=30):
    """(params, derived model) for seeded variations of the worked example."""
    rng = np.random.default_rng(6021)
    base = worked_example_params()
    out = []
    while len(out) < count:
        params = dataclasses.replace(
            base,
            la_h=base.la_h * float(rng.uniform(0.6, 1.6)),
            j_kgm2=base.j_kgm2 * float(rng.uniform(0.6, 1.6)),
            ra_ohm=base.ra_ohm * float(rng.uniform(0.7, 1.4)),
            bt_nm_per_rad_s=base.bt_nm_per_rad_s * float(rng.uniform(0.7, 1.4)),
            tr_s=base.tr_s * float(rng.uniform(0.5, 1.5)),
            zeta=float(rng.uniform(0.4, 1.0)),
        )
        try:
            out.append((params, derive_model(params)))
        except ValidationError:
            continue
    return out


class TestConventionalDesign:
    def test_benchmark_gains(self, model):
        rep = design_conventional(model)
        # oracle: K = (T1+Tr)^2 / (4 zeta^2 T1 Tr) - 1, evaluated by hand
        assert rep.K == pytest.approx(39.0, rel=5e-3, abs=0.0)
        assert rep.Kc == pytest.approx(3.38, rel=1e-2, abs=0.0)
        assert rep.achieved_zeta == pytest.approx(0.707, abs=1e-3)

    def test_tuned_gain_is_near_design(self, model):
        # the study's hand-tuned controller gain of 3.1 sits within 10%
        rep = design_conventional(model)
        assert abs(3.1 - rep.Kc) / rep.Kc < 0.10

    def test_poles_in_left_half_plane(self, model):
        rep = design_conventional(model)
        assert all(p.real < 0.0 for p in rep.closed_loop_poles)

    def test_achieved_zeta_matches_request_property(self):
        for params, m in _seeded_nameplates():
            rep = design_conventional(m)
            assert rep.achieved_zeta == pytest.approx(params.zeta, abs=1e-6)

    @pytest.mark.parametrize("zeta", [0.3, 0.5, 0.707, 0.9, 1.0])
    def test_gain_matches_two_pole_closed_form(self, zeta):
        for _, m in _seeded_nameplates():
            t1, tr = m.T1, m.params.tr_s
            k = (t1 + tr) ** 2 / (4.0 * zeta * zeta * t1 * tr) - 1.0
            assert design_conventional(m, zeta=zeta).K == pytest.approx(k, rel=1e-12, abs=0.0)

    def test_gain_round_trip(self, model):
        rep = design_conventional(model)
        assert _loop_gain(model, rep.Kc) == pytest.approx(rep.K, rel=1e-12, abs=0.0)

    def test_zeta_validated(self, model):
        with pytest.raises(ValidationError):
            design_conventional(model, zeta=1.5)


class TestMorDesign:
    def test_first_order_numerator_has_no_real_gain(self, model):
        # the derived second-order loop cannot reach zeta = 0.707 with the
        # matched first-order numerator; the quadratic discriminant is
        # negative by about -3.46e-5
        with pytest.raises(NoRealGain) as err:
            design_via_mor(model, ReductionConfig(target_order=2,
                                                  numerator_order=1))
        assert err.value.discriminant == pytest.approx(-3.46e-5, rel=0.1, abs=0.0)
        qa, qb, qc = err.value.quadratic
        assert qa == pytest.approx(9e-4, rel=1e-6, abs=0.0)

    def test_constant_numerator_design(self, model):
        rep = design_via_mor(model, ReductionConfig(target_order=2,
                                                    numerator_order=0))
        assert rep.K == pytest.approx(2.49, rel=1e-2, abs=0.0)
        assert rep.achieved_zeta == pytest.approx(0.707, abs=1e-6)
        assert rep.reduced_model is not None
        assert all(p.real < 0.0 for p in rep.closed_loop_poles)

    def test_gain_round_trip(self, model):
        rep = design_via_mor(model, ReductionConfig(target_order=2,
                                                    numerator_order=0))
        assert _loop_gain(model, rep.Kc) == pytest.approx(rep.K, rel=1e-12, abs=0.0)

    def test_requires_order_two(self, model):
        with pytest.raises(BadOrder):
            design_via_mor(model, ReductionConfig(target_order=1,
                                                  numerator_order=0))


class TestSolveDampingGain:
    def test_critically_damped_already(self):
        # [1, 2, 1] at zeta = 1 yields K = 0, which is rejected
        with pytest.raises(NoPositiveGain):
            solve_damping_gain(Polynomial([1.0, 2.0, 1.0]),
                               Polynomial([1.0]), 1.0)

    def test_numerator_needs_unit_constant(self):
        with pytest.raises(ValidationError, match="unit constant term"):
            solve_damping_gain(Polynomial([1.0, 1.0, 1.0]),
                               Polynomial([2.0]), 0.707)

    def test_degenerate_condition(self):
        # num = den at zeta = 0.5 zeroes both the K^2 and the K coefficient
        with pytest.raises(NoRealGain, match="degenerate") as err:
            solve_damping_gain(Polynomial([1.0, 1.0, 1.0]),
                               Polynomial([1.0, 1.0, 1.0]), 0.5)
        assert err.value.discriminant == 0.0

    def test_constant_numerator_closed_form(self):
        # K = d1^2/(4 zeta^2 d2) - d0 for c1 = c2 = 0
        d = Polynomial([1.0, 0.12988, 0.00241749])
        zeta = 0.707
        k = solve_damping_gain(d, Polynomial([1.0]), zeta)
        want = 0.12988**2 / (4.0 * zeta**2 * 0.00241749) - 1.0
        assert k == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_smallest_positive_root_returned(self):
        # c1 = 0.05 gives two positive roots; the smaller one is kept
        d = Polynomial([1.0, 2.0, 0.5])
        k = solve_damping_gain(d, Polynomial([1.0, 0.05]), 0.5)
        qa, qb, qc = 0.05**2, 4.0 * 0.05 - 0.5, 4.0 - 0.5
        lo = (-qb - (qb * qb - 4 * qa * qc) ** 0.5) / (2 * qa)
        hi = (-qb + (qb * qb - 4 * qa * qc) ** 0.5) / (2 * qa)
        assert 0.0 < lo < hi
        assert k == pytest.approx(lo, rel=1e-12, abs=0.0)
        cl = Polynomial([1.0 + k, 2.0 + 0.05 * k, 0.5])
        wn = (cl.coeffs[0] / cl.coeffs[2]) ** 0.5
        zeta = cl.coeffs[1] / (2.0 * wn * cl.coeffs[2])
        assert zeta == pytest.approx(0.5, rel=1e-9, abs=0.0)


class TestGainSweep:
    def test_overshoot_ordering_matches_published_plots(self, model):
        low = sweep_gain(model, 3.1, 10.0, 2)
        high = sweep_gain(model, 35.719, 50.0, 2)
        os = [low[0].overshoot_pct, low[1].overshoot_pct,
              high[0].overshoot_pct, high[1].overshoot_pct]
        assert all(pt.stable for pt in low + high)
        assert os[0] < os[1] < os[2] < os[3]

    def test_low_gain_settling_diverges(self, model):
        pts = [evaluate_gain(model, kc) for kc in (0.02, 0.05, 0.1)]
        settles = [pt.settling_2pct_s for pt in pts]
        assert settles[0] > settles[1] > settles[2]

    def test_overshoot_continuity_guard(self, model):
        pts = sweep_gain(model, 5.0, 50.0, 20)
        for a, b in zip(pts, pts[1:]):
            if a.stable and b.stable:
                rel = abs(b.overshoot_pct - a.overshoot_pct) / max(
                    a.overshoot_pct, b.overshoot_pct)
                assert rel < 0.5

    def test_unstable_point_flagged_without_metrics(self):
        # a very fast PI time constant destabilizes the loop closure
        params = dataclasses.replace(worked_example_params(), tc_s=0.0005)
        m = derive_model(params)
        pt = evaluate_gain(m, 5.0)
        assert pt.stable is False
        assert pt.overshoot_pct is None
        assert pt.ise_vs_reference is None

    def test_range_validated(self, model):
        with pytest.raises(ValidationError):
            sweep_gain(model, 2.0, 1.0, 5)
        with pytest.raises(ValidationError):
            sweep_gain(model, 1.0, 2.0, 1)

    @pytest.mark.parametrize("kc_min,kc_max", [(3.1, math.inf),
                                               (math.inf, math.inf),
                                               (math.nan, 5.0)])
    def test_non_finite_gains_refused(self, model, kc_min, kc_max):
        with pytest.raises(ValidationError):
            sweep_gain(model, kc_min, kc_max, 3)

    def test_deterministic(self, model):
        a = sweep_gain(model, 3.0, 6.0, 3)
        b = sweep_gain(model, 3.0, 6.0, 3)
        assert a == b

    def test_every_gain_unstable(self):
        # the stack has no stable row to measure
        params = dataclasses.replace(worked_example_params(), tc_s=0.0005)
        pts = sweep_gain(derive_model(params), 3.1, 50.0, 15)
        assert pts == [SweepPoint(Kc=kc, stable=False)
                       for kc in np.linspace(3.1, 50.0, 15).tolist()]

    def test_points_are_evaluate_gains(self, model):
        for m in [model, *_nameplate_variants(6)]:
            pts = sweep_gain(m, 0.02, 300.0, 40)
            assert pts == [evaluate_gain(m, kc)
                           for kc in np.linspace(0.02, 300.0, 40).tolist()]

    def test_bounded_stacks(self, model, monkeypatch):
        sizes = []
        measure = controller_design._measure_gains

        def recording(m, gains):
            sizes.append(len(gains))
            return measure(m, gains)

        monkeypatch.setattr(controller_design, "_measure_gains", recording)
        steps = controller_design._STACK_ROWS + 44
        pts = sweep_gain(model, 0.02, 300.0, steps)
        assert sizes == [controller_design._STACK_ROWS, 44]
        monkeypatch.undo()
        assert pts == [evaluate_gain(model, kc)
                       for kc in np.linspace(0.02, 300.0, steps).tolist()]


def _nameplate_variants(count):
    """Derived models of the worked example with its motor constants and
    PI time constant varied by up to +-6 %."""
    rng = np.random.default_rng(1206)
    base = worked_example_params()
    out = []
    while len(out) < count:
        params = dataclasses.replace(base, **{
            key: getattr(base, key) * math.exp(float(rng.uniform(-0.06, 0.06)))
            for key in ("ra_ohm", "la_h", "j_kgm2", "bt_nm_per_rad_s",
                        "kb_v_per_rad_s", "tc_s")})
        try:
            out.append(derive_model(params))
        except ValidationError:
            continue
    return out


def _stack(systems):
    """Numerators, denominators and roots of same-degree systems, stacked."""
    return (np.array([g.num.coeffs for g in systems]),
            np.array([g.den.coeffs for g in systems]),
            np.array([g.den.roots for g in systems]))


def _stack_of_one(g):
    """``_unit_step_measures`` on the stack of g alone: the measures, or
    the error that stopped them, raised."""
    [got] = sim_analysis._unit_step_measures(*_stack([g]))
    if isinstance(got, Exception):
        raise got
    return got


def _outcome(measure, g):
    """The measured values, or the class of the error that stopped them."""
    try:
        return measure(g)
    except (NumericError, ValidationError) as err:
        return type(err)


def _from_full_trace(g):
    trace = step_response(g)
    return response_metrics(trace), ise(trace, 1.0)


def _default_steps(g):
    small, large = characteristic_times(g)
    return int(round(DEFAULT_HORIZON_FACTOR * large
                     / (small / DEFAULT_DT_DIVISOR)))


def _assert_same_measures(g):
    """The sweep-point measures of g equal those of its whole trace, or
    fail with the same error; returns them."""
    want = _outcome(_from_full_trace, g)
    got = _outcome(_stack_of_one, g)
    if isinstance(want, type):
        assert got is want
        return got
    (m_want, ise_want), (m_got, ise_got) = want, got
    assert m_got.settling_2pct_s == m_want.settling_2pct_s
    for field in ("overshoot_pct", "rise_10_90_s", "final_value"):
        a, b = getattr(m_got, field), getattr(m_want, field)
        assert abs(a - b) <= max(1e-10 * abs(b), 1e-12), field
    assert abs(ise_got - ise_want) <= 1e-10 * ise_want
    return got


@pytest.fixture
def propagate_steps(monkeypatch):
    """(ladder, c, n_steps) of every ``sim_analysis._propagate`` call;
    ``_factors`` builds its block starts without one."""
    calls = []
    propagate = sim_analysis._propagate

    def recording(ladder, c, n_steps):
        calls.append((ladder, c, n_steps))
        return propagate(ladder, c, n_steps)

    monkeypatch.setattr(sim_analysis, "_propagate", recording)
    return calls


def _steps(calls):
    return [n_steps for _, _, n_steps in calls]


def _gain_stack(model, kc):
    """(g, stack): the closed loop at kc with the loops at 3.1, 20 and 50
    after it, or the double-pole loop alone where kc is None."""
    if kc is None:
        return _DOUBLE_POLE, [_DOUBLE_POLE]
    g = closed_current_loop(model, kc)
    return g, [g, *(closed_current_loop(model, other)
                    for other in (3.1, 20.0, 50.0))]


# unity closure of 100 / (s (s^2 + 102 s + 201)): poles -1, -1, -100
_DOUBLE_POLE = TransferFunction.from_coeffs([100.0], [100.0, 201.0, 102.0, 1.0])


class TestSweepMeasures:
    """Sweep points are measured from a certified head window and
    closed-form sums; they must agree with the whole trace."""

    _GAINS = [0.02, 0.1, 1.0, *np.linspace(3.1, 50.0, 15), 300.0]

    def test_matches_whole_trace_on_nameplate_variants(self, model):
        for m in [model, *_nameplate_variants(6)]:
            for kc in self._GAINS:
                _assert_same_measures(closed_current_loop(m, float(kc)))

    @pytest.mark.parametrize("g", [
        # negative final value
        TransferFunction.from_coeffs([-1.0], [1.0, 1.0]),
        # y = 1 - 100 e^-t has not settled within 5 time constants
        TransferFunction.from_coeffs([1.0, -99.0], [1.0, 1.0]),
        # a pole spread past the step budget
        TransferFunction.from_coeffs([1.0], [1.0, 1.0 + 1e-5, 1e-5]),
    ], ids=["negative final", "not settled", "past budget"])
    def test_failures_match_whole_trace(self, g):
        assert isinstance(_outcome(_from_full_trace, g), type)
        _assert_same_measures(g)

    def test_double_pole_falls_back_to_whole_trace(self, propagate_steps):
        metrics, _ = _assert_same_measures(_DOUBLE_POLE)
        assert metrics.settling_2pct_s > 0.0
        assert _default_steps(_DOUBLE_POLE) in _steps(propagate_steps)

    def test_worked_sweep_reads_no_long_trace(self, model, propagate_steps):
        for kc in np.linspace(3.1, 50.0, 15):
            propagate_steps.clear()
            pt = evaluate_gain(model, float(kc))
            assert pt.settling_2pct_s is not None
            n = _default_steps(closed_current_loop(model, float(kc)))
            assert 0 < max(_steps(propagate_steps)) <= n / 10

    @pytest.mark.parametrize("kc", [35.719, 1.0, None],
                             ids=["certified", "creeping", "double pole"])
    def test_one_ladder_per_stack(self, model, monkeypatch, propagate_steps,
                                  kc):
        built = []
        ladder = sim_analysis._ladder

        def recording(e, count):
            built.append(ladder(e, count))
            return built[-1]

        monkeypatch.setattr(sim_analysis, "_ladder", recording)
        g, stack = _gain_stack(model, kc)
        sim_analysis._unit_step_measures(*_stack(stack))
        # Kc = 1 creeps up to its final value, so its window misses the
        # peak and its whole trace is read; the other gains all certify
        assert (_default_steps(g) in _steps(propagate_steps)) == (kc != 35.719)
        [whole] = built
        # every call's rungs are rows of the one stacked ladder
        for part, _, _ in propagate_steps:
            assert _rungs_of(part, whole) is not None

    @pytest.mark.parametrize("kc", [35.719, 1.0, None],
                             ids=["certified", "creeping", "double pole"])
    def test_masks_once_per_walk(self, model, monkeypatch, kc):
        counts = []
        masks = sim_analysis._rung_masks

        def recording(count):
            counts.append(count)
            return masks(count)

        monkeypatch.setattr(sim_analysis, "_rung_masks", recording)
        _, stack = _gain_stack(model, kc)
        sim_analysis._unit_step_measures(*_stack(stack))
        # one call per walk, each on its (2, rows) counts: the power rows'
        # walk first, then the sums', whose second half is the counts
        assert [c.shape for c in counts] == [(2, len(stack))] * 2
        assert counts[1][1].tolist() == [_default_steps(h) + 1 for h in stack]

    def test_stack_grids_are_each_rows_step_grid(self, model, monkeypatch):
        # the stack's dt, count and tail of every row, bit for bit those of
        # ``characteristic_times``, ``_step_grid`` and ``round`` on that
        # row alone, over 64 closures with complex poles, whose magnitudes
        # np.abs of a complex array rounds unlike abs
        seen = {}
        exponential, masks = (sim_analysis._step_exponential,
                              sim_analysis._rung_masks)

        def recording_exponential(nums, dens, poles, dt):
            seen["dt"] = dt
            return exponential(nums, dens, poles, dt)

        def recording_masks(count):
            seen.setdefault("counts", count)
            return masks(count)

        monkeypatch.setattr(sim_analysis, "_step_exponential",
                            recording_exponential)
        monkeypatch.setattr(sim_analysis, "_rung_masks", recording_masks)
        stack = [closed_current_loop(model, float(kc))
                 for kc in np.geomspace(0.5, 500.0, 64)]
        sim_analysis._unit_step_measures(*_stack(stack))
        grids = [sim_analysis._step_grid(*characteristic_times(g), None, None)
                 for g in stack]
        assert [dt.hex() for dt in seen["dt"].tolist()] == [
            dt.hex() for dt, _ in grids]
        tails = [max(1, int(round(0.05 * (n + 1)))) for _, n in grids]
        # the power walk's counts: count - tail, then count - 1
        assert seen["counts"].tolist() == [
            [n + 1 - k for (_, n), k in zip(grids, tails)],
            [n for _, n in grids]]
        # a row past the step budget keeps the refusal's own text
        g = closed_current_loop(model, 1e4)
        *_, refused = sim_analysis._unit_step_measures(*_stack(stack + [g]))
        with pytest.raises(ValidationError) as alone:
            step_response(g)
        assert type(refused) is ValidationError
        assert str(refused) == str(alone.value)

    def test_mixed_stack_is_each_gain_alone(self, model, propagate_steps):
        # Kc = 1 creeps and 2.75 barely passes its final value, so the
        # one window of each misses its peak and both read their whole
        # traces.  3.1 and 300 certify at one width and 35.719 at a
        # narrower one; 1e4 is past the step budget; at 1e100 the roots
        # fail, which counts as unstable
        gains = [1.0, 2.75, 3.1, 35.719, 300.0, 1e4, 1e100]
        alone = [evaluate_gain(model, kc) for kc in gains]
        propagate_steps.clear()
        got = controller_design._measure_gains(model, np.array(gains))
        assert ([_bits_of_point(pt) for pt in got]
                == [_bits_of_point(pt) for pt in alone])
        assert [pt.stable for pt in got] == [True] * 6 + [False]
        measured = [pt.overshoot_pct is not None for pt in got]
        assert measured == [True] * 5 + [False] * 2
        # one pass per window width, the width 3.1 and 300 share as one
        # stack; each of the five gains with a window is in one pass
        passes = [(len(c), n_steps) for _, c, n_steps in propagate_steps
                  if c.ndim == 2]
        widths = [n_steps for _, n_steps in passes]
        assert len(set(widths)) == len(widths)
        assert max(rows for rows, _ in passes) == 2
        assert sum(rows for rows, _ in passes) == 5
        whole = [n_steps for _, c, n_steps in propagate_steps if c.ndim == 1]
        assert whole == [_default_steps(closed_current_loop(model, kc))
                         for kc in (1.0, 2.75)]
        # 5, 20 and 50 all certify at a width of 512 samples, so their
        # stack is one pass over all three rows and no whole trace
        gains = [5.0, 20.0, 50.0]
        alone = [evaluate_gain(model, kc) for kc in gains]
        propagate_steps.clear()
        got = controller_design._measure_gains(model, np.array(gains))
        assert ([_bits_of_point(pt) for pt in got]
                == [_bits_of_point(pt) for pt in alone])
        assert [c.shape for _, c, _ in propagate_steps] == [(3, 5)]
        assert _steps(propagate_steps) == [511]

    def test_no_head_window_sampled_twice(self, model, propagate_steps):
        sweep_gain(model, 0.02, 3.0, 40)
        heads = [row.tobytes() for _, c, _ in propagate_steps
                 if c.ndim == 2 for row in c]
        whole = {c.tobytes() for _, c, _ in propagate_steps if c.ndim == 1}
        assert heads and len(set(heads)) == len(heads)
        # some heads miss their peak, and those rows read their whole trace
        assert whole & set(heads)

    def test_head_blocks_hold_at_most_one_trace(self, model, propagate_steps):
        # 256 gains over Kc 0.0976-0.229 put 170 rows at a head width of
        # 65,536 samples.  Each block of heads holds at most as many
        # samples as one whole trace may, so the peak stays below that of
        # a whole trace measured with its deviation buffer, plus a little
        gains = np.linspace(0.0976, 0.229, 256)
        tracemalloc.start()
        try:
            got = controller_design._measure_gains(model, gains)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        heads = [(len(c), n_steps + 1) for _, c, n_steps in propagate_steps
                 if c.ndim == 2]
        assert max(rows * width for rows, width in heads) <= MAX_STEP_SAMPLES
        assert sum(rows for rows, width in heads if width == 65_536) == 170
        assert len([width for _, width in heads if width == 65_536]) > 1
        assert peak <= 2.5 * 8 * MAX_STEP_SAMPLES
        assert all(pt.settling_2pct_s is not None for pt in got)


def _bits_of_point(pt):
    """A sweep point's fields, each float as its exact hex form."""
    return tuple(v.hex() if isinstance(v, float) else v
                 for v in dataclasses.astuple(pt))


def _rungs_of(part, whole):
    """(offset, rows) with part[j] equal, bit for bit, to whole[offset +
    j][rows] for every rung j of a ``_propagate`` call's ladder ``part``,
    or None where no rows of the stacked ladder ``whole`` match."""
    for start in range(len(whole) - len(part) + 1):
        stack = whole[start]
        first = part[0].reshape(-1, *stack.shape[1:])
        rows = [np.flatnonzero((stack == r).all(axis=(-1, -2)))
                for r in first]
        if not all(len(hits) for hits in rows):
            continue
        rows = [hits[0] for hits in rows]
        if all(a.reshape(-1, *b.shape[1:]).tobytes() == b[rows].tobytes()
               for a, b in zip(part, whole[start:])):
            return start, rows
    return None


class TestClosedLoop:
    _GAINS = [1e-300, 0.02, 3.3957, 35.719, 1e4, 1e300]

    def test_matches_general_closure(self, model):
        # G / (1 + G H) with H = 1, in NumPy's descending convention
        for m in [model, *(v for _, v in _seeded_nameplates(6))]:
            loop = m.loop_gain_full
            for kc in self._GAINS:
                num = np.convolve(kc * np.array(loop.num.coeffs[::-1]), [1.0])
                den = np.polyadd(np.convolve(loop.den.coeffs[::-1], [1.0]), num)
                closed = closed_current_loop(m, kc)
                assert closed.num.coeffs == tuple(num[::-1].tolist())
                assert closed.den.coeffs == tuple(den[::-1].tolist())

    def test_sweep_stack_rows_are_closed_loops(self, model, monkeypatch):
        seen = {}

        def recording(name, original):
            def call(*args):
                seen[name] = args
                return original(*args)
            monkeypatch.setattr(controller_design, name, call)

        recording("_roots_of_rows", controller_design._roots_of_rows)
        recording("_unit_step_measures", controller_design._unit_step_measures)
        for m in [model, *(v for _, v in _seeded_nameplates(6))]:
            points = controller_design._measure_gains(
                m, np.array(self._GAINS))
            dens = seen["_roots_of_rows"][0]
            nums = iter(seen["_unit_step_measures"][0])
            assert len(dens) == len(self._GAINS)
            for kc, den, point in zip(self._GAINS, dens, points):
                closed = closed_current_loop(m, kc)
                assert closed.den.coeffs == tuple(den.tolist())
                if point.stable:
                    assert closed.num.coeffs == tuple(next(nums).tolist())
            assert next(nums, None) is None

    def test_closed_loop_tracks_command(self, model):
        closed = closed_current_loop(model, 3.1)
        assert dc_gain(closed) == pytest.approx(1.0, rel=1e-12, abs=0.0)
        assert is_stable(closed.den)

    def test_positive_gain_required(self, model):
        with pytest.raises(ValidationError):
            closed_current_loop(model, 0.0)

    @pytest.mark.parametrize("kc", [math.inf, math.nan])
    def test_finite_gain_required(self, model, kc):
        with pytest.raises(ValidationError):
            closed_current_loop(model, kc)
        with pytest.raises(ValidationError):
            evaluate_gain(model, kc)
