import dataclasses
import math

import numpy as np
import pytest

from mordrive.controller_design import (
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
    ValidationError,
)
from mordrive.mor_engine import ReductionConfig
from mordrive.poly_tf import Polynomial, dc_gain, is_stable


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
        assert rep.K == pytest.approx(39.0, rel=5e-3)
        assert rep.Kc == pytest.approx(3.38, rel=1e-2)
        assert rep.achieved_zeta == pytest.approx(0.707, abs=1e-3)

    def test_tuned_gain_is_near_design(self, model):
        # the study's hand-tuned controller gain of 3.1 sits within 10%
        rep = design_conventional(model)
        assert abs(3.1 - rep.Kc) / rep.Kc < 0.10

    def test_poles_in_left_half_plane(self, model):
        rep = design_conventional(model)
        assert rep.warnings == ()
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
            assert design_conventional(m, zeta=zeta).K == pytest.approx(k, rel=1e-12)

    def test_gain_round_trip(self, model):
        rep = design_conventional(model)
        assert _loop_gain(model, rep.Kc) == pytest.approx(rep.K, rel=1e-12)

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
        assert err.value.discriminant == pytest.approx(-3.46e-5, rel=0.1)
        qa, qb, qc = err.value.quadratic
        assert qa == pytest.approx(9e-4, rel=1e-6)

    def test_constant_numerator_design(self, model):
        rep = design_via_mor(model, ReductionConfig(target_order=2,
                                                    numerator_order=0))
        assert rep.K == pytest.approx(2.49, rel=1e-2)
        assert rep.achieved_zeta == pytest.approx(0.707, abs=1e-6)
        assert rep.reduced_model is not None
        assert all(p.real < 0.0 for p in rep.closed_loop_poles)

    def test_gain_round_trip(self, model):
        rep = design_via_mor(model, ReductionConfig(target_order=2,
                                                    numerator_order=0))
        assert _loop_gain(model, rep.Kc) == pytest.approx(rep.K, rel=1e-12)

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

    def test_constant_numerator_closed_form(self):
        # K = d1^2/(4 zeta^2 d2) - d0 for c1 = c2 = 0
        d = Polynomial([1.0, 0.12988, 0.00241749])
        zeta = 0.707
        k = solve_damping_gain(d, Polynomial([1.0]), zeta)
        want = 0.12988**2 / (4.0 * zeta**2 * 0.00241749) - 1.0
        assert k == pytest.approx(want, rel=1e-12)

    def test_smallest_positive_root_returned(self):
        # c1 = 0.05 gives two positive roots; the smaller one is kept
        d = Polynomial([1.0, 2.0, 0.5])
        k = solve_damping_gain(d, Polynomial([1.0, 0.05]), 0.5)
        qa, qb, qc = 0.05**2, 4.0 * 0.05 - 0.5, 4.0 - 0.5
        lo = (-qb - (qb * qb - 4 * qa * qc) ** 0.5) / (2 * qa)
        hi = (-qb + (qb * qb - 4 * qa * qc) ** 0.5) / (2 * qa)
        assert 0.0 < lo < hi
        assert k == pytest.approx(lo, rel=1e-12)
        cl = Polynomial([1.0 + k, 2.0 + 0.05 * k, 0.5])
        wn = (cl.coeffs[0] / cl.coeffs[2]) ** 0.5
        zeta = cl.coeffs[1] / (2.0 * wn * cl.coeffs[2])
        assert zeta == pytest.approx(0.5, rel=1e-9)


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


class TestClosedLoop:
    def test_closed_loop_tracks_command(self, model):
        closed = closed_current_loop(model, 3.1)
        assert dc_gain(closed) == pytest.approx(1.0, rel=1e-12)
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
