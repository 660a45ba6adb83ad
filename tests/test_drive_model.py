import dataclasses
import json
import math
import re

import pytest

from mordrive.cli import main
from mordrive.drive_model import (
    derive_model,
    kc_from_K,
    worked_example_params,
)
from mordrive.errors import (
    ComplexMotorPoles,
    TimeConstantOrdering,
    ValidationError,
)

# Both terms of Kb^2 + Ra*Bt underflow, so the sum is 0.0.
UNDERFLOWING_MOTOR_QUADRATIC = {
    "ra_ohm": 1.7816062159162237e-207,
    "bt_nm_per_rad_s": 9.19767371746173e-218,
    "kb_v_per_rad_s": 1.536553331191386e-250,
    "tr_s": 1.8568598745114956e-142}


class TestDeriveModelGolden:
    """Nameplate derivation for the 220 V, 8.3 A benchmark drive."""

    def test_motor_gain(self, model):
        assert model.K1 == pytest.approx(0.0449, abs=1e-4)

    def test_time_constants(self, model):
        assert model.T1 == pytest.approx(0.1077, abs=5e-4)
        assert model.T2 == pytest.approx(0.0208, abs=5e-4)
        assert model.Tm == pytest.approx(0.700, abs=5e-3)

    def test_converter_gain_exact(self, model):
        assert model.Kr == 1.35 * 230.0 / 10.0

    def test_control_voltage_and_transducer(self, model):
        assert model.rated_control_voltage == pytest.approx(7.09, abs=0.01)
        assert model.Hc == pytest.approx(0.355, abs=1e-3)

    def test_quadratic_root_oracle(self, model):
        # independent quadratic-formula computation of the motor poles
        p = model.params
        a = p.j_kgm2 * p.la_h
        b = p.bt_nm_per_rad_s * p.la_h + p.j_kgm2 * p.ra_ohm
        c = p.kb_v_per_rad_s ** 2 + p.ra_ohm * p.bt_nm_per_rad_s
        disc = math.sqrt(b * b - 4.0 * a * c)
        slow = (-b + disc) / (2.0 * a)
        fast = (-b - disc) / (2.0 * a)
        assert slow == pytest.approx(-9.28, rel=5e-3)
        assert fast == pytest.approx(-47.7, rel=5e-3)
        assert model.T1 == pytest.approx(-1.0 / slow, rel=1e-9)
        assert model.T2 == pytest.approx(-1.0 / fast, rel=1e-9)


class TestDerivedTransferFunctions:
    def test_full_loop_is_type_one(self, model):
        assert model.loop_gain_full.den.coeffs[0] == 0.0
        assert model.loop_gain_design.den.coeffs[0] != 0.0

    def test_design_shape_degrees(self, model):
        assert model.loop_gain_design.num.degree == 1
        assert model.loop_gain_design.den.degree == 3

    def test_design_denominator_expansion(self, model):
        t1, t2, tr = model.T1, model.T2, model.params.tr_s
        expected = [
            1.0,
            t1 + t2 + tr,
            t1 * t2 + t1 * tr + t2 * tr,
            t1 * t2 * tr,
        ]
        for got, want in zip(model.loop_gain_design.den.coeffs, expected):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_full_loop_gain_factor(self, model):
        p = model.params
        g0 = model.K1 * model.Kr * model.Hc / p.tc_s
        assert model.loop_gain_full.num.coeffs[0] == pytest.approx(g0, rel=1e-12)


class TestGainConversions:
    def test_kc_linearity(self, model):
        assert kc_from_K(model, 2.0 * 39.0) == 2.0 * kc_from_K(model, 39.0)

    def test_round_trip(self, model):
        # Kc = K*Tc/(K1*Hc*Kr*Tm), inverted by hand
        k = 39.053
        kc = kc_from_K(model, k)
        k_back = kc * model.K1 * model.Hc * model.Kr * model.Tm / model.params.tc_s
        assert k_back == pytest.approx(k, rel=1e-12)

    def test_unit_controller_round_trip(self, model):
        k_unit = model.K1 * model.Hc * model.Kr * model.Tm / model.params.tc_s
        assert kc_from_K(model, k_unit) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("k", [0.0, math.inf, math.nan])
    def test_kc_refused_unless_positive_and_finite(self, model, k):
        with pytest.raises(ValidationError, match="derived Kc"):
            kc_from_K(model, k)

    def test_published_gain_pair_is_inconsistent(self, model):
        # the study quotes Kc = 35.719 for K = 357.192, but the stated
        # formula gives about 31; the mismatch is documented, not patched
        kc = kc_from_K(model, 357.192)
        assert kc == pytest.approx(31.0, rel=5e-3)
        assert abs(kc - 35.719) / 35.719 > 0.10


class TestParameterValidation:
    def test_motor_gain_vanishes_with_friction(self):
        base = worked_example_params()
        gains = []
        for bt in (1e-6, 1e-4, 1e-2):
            k1 = bt / (base.kb_v_per_rad_s ** 2 + base.ra_ohm * bt)
            gains.append(k1)
        assert gains == sorted(gains)
        assert gains[0] < 1e-6

    def test_time_constant_ordering_enforced(self):
        params = dataclasses.replace(worked_example_params(), tr_s=0.05)
        with pytest.raises(TimeConstantOrdering):
            derive_model(params)

    def test_complex_motor_poles_rejected(self):
        params = dataclasses.replace(worked_example_params(),
                                     kb_v_per_rad_s=50.0)
        with pytest.raises(ComplexMotorPoles):
            derive_model(params)

    @pytest.mark.parametrize("changes, derived", [
        ({"kb_v_per_rad_s": 1e200}, "Kb^2 + Ra*Bt = inf"),  # Kb ** 2 overflows
        ({"j_kgm2": 1e300}, "1/T1 = 0.0"),  # the slow pole rounds to zero
        ({"vcm_v": 1e-320}, "Kr = inf"),  # and Hc = 0
        ({"vcm_v": 1e300, "supply_line_voltage_v": 1e-30}, "Kr = 0.0"),
        ({"rated_voltage_v": 1e-320}, "K1*Hc*Kr*Tm = 0.0"),
        (UNDERFLOWING_MOTOR_QUADRATIC, "Kb^2 + Ra*Bt = 0.0"),  # K1 divides by it
    ])
    def test_non_finite_derived_constants_refused(self, changes, derived):
        params = dataclasses.replace(worked_example_params(), **changes)
        with pytest.raises(ValidationError, match="derived " + re.escape(derived)):
            derive_model(params)

    def test_positive_fields_required(self):
        with pytest.raises(ValidationError):
            dataclasses.replace(worked_example_params(), la_h=-0.072)

    def test_zeta_range(self):
        with pytest.raises(ValidationError):
            dataclasses.replace(worked_example_params(), zeta=1.2)

    def test_speed_loop_fields_optional(self, tmp_path):
        # motor files may carry the speed-loop data; the CLI ignores it
        plain = dataclasses.asdict(worked_example_params())
        with_speed_loop = dict(plain, rated_speed_rpm=1470.0,
                               tacho_gain_v_per_rad_s=0.065, tacho_tc_s=0.002)
        gains = []
        for i, data in enumerate((plain, with_speed_loop)):
            motor, report = tmp_path / f"motor{i}.json", tmp_path / f"conv{i}.json"
            motor.write_text(json.dumps(data))
            assert main(["design", "--motor", str(motor), "--method",
                         "conventional", "--report", str(report)]) == 0
            rep = json.loads(report.read_text())
            gains.append((rep["K"], rep["Kc"]))
        assert gains[0] == gains[1]
        assert gains[0][0] == pytest.approx(39.05, abs=0.005)
