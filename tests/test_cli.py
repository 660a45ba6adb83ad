import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mordrive
from mordrive.cli import main, read_tf_file
from mordrive.drive_model import worked_example_params
from mordrive.errors import NoPositiveGain


@pytest.fixture()
def loop_file(tmp_path):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({
        "num": [1.0, 0.03],
        "den": [1.0, 0.12988, 0.00241749, 3.0914208e-06],
    }))
    return str(path)


@pytest.fixture()
def motor_file(tmp_path):
    import dataclasses
    path = tmp_path / "motor.json"
    path.write_text(json.dumps(dataclasses.asdict(worked_example_params())))
    return str(path)


class TestReduceCommand:
    def test_benchmark_report(self, loop_file, tmp_path):
        out = tmp_path / "red.json"
        code = main(["reduce", "--tf", loop_file, "--order", "2",
                     "--numerator-order", "1", "--adjust", "none",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["den"][1] == pytest.approx(0.12988, rel=1e-10)
        assert report["den"][2] == pytest.approx(0.00241749, rel=1e-10,
                                                 abs=0.0)
        assert report["num"][1] == pytest.approx(0.03, abs=1e-4)
        diag = report["diagnostics"]
        assert diag["factorization"]["z_sq"][0] == pytest.approx(413.7, rel=1e-3)
        assert diag["factorization"]["p_sq"][0] == pytest.approx(4.20e4, rel=2e-3)
        assert diag["chosen_n"] is None
        assert report["manifest"]["command"] == "reduce"
        assert len(report["manifest"]["input_digest"]) == 64

    def test_output_round_trips_as_tf_input(self, loop_file, tmp_path):
        out = tmp_path / "red.json"
        assert main(["reduce", "--tf", loop_file, "--order", "2",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        g, _ = read_tf_file(str(out))
        assert list(g.num.coeffs) == report["num"]
        assert list(g.den.coeffs) == report["den"]

    def test_order_equal_to_degree_exits_2(self, loop_file, tmp_path):
        code = main(["reduce", "--tf", loop_file, "--order", "3",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_high_orders_match_and_the_sign_budget_exits_2(self, tmp_path,
                                                          monkeypatch, capsys):
        den = np.array([1.0])
        for tau in (0.5, 0.05, 0.01, 0.002, 0.0005, 0.0001):
            den = np.convolve(den, [1.0, tau])
        path = tmp_path / "six.json"
        path.write_text(json.dumps({"num": [1.0, 0.7], "den": list(den)}))
        for order in (4, 5):  # numerator orders 3 and 4 by default
            out = tmp_path / f"red{order}.json"
            assert main(["reduce", "--tf", str(path), "--order", str(order),
                         "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            assert len(report["num"]) == order
            assert len(report["diagnostics"]["matched_conditions"]) == order - 1
        monkeypatch.setattr(mordrive.mor_engine, "MAX_MATCH_CANDIDATES", 2)
        out = tmp_path / "refused.json"
        assert main(["reduce", "--tf", str(path), "--order", "5",
                     "--out", str(out)]) == 2
        assert "--numerator-order" in capsys.readouterr().err
        assert not out.exists()

    def test_unstable_input_exits_3(self, tmp_path):
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps({
            "num": [1.0], "den": [1.0, 3.0, -0.5, -1.0]}))
        code = main(["reduce", "--tf", str(path), "--order", "2",
                     "--out", str(tmp_path / "x.json")])
        assert code == 3

    @pytest.mark.parametrize("percent", ["0", "40", "-1", "nan", "inf", "lots"])
    def test_bad_adjust_percent_exits_2(self, loop_file, tmp_path, percent):
        out = tmp_path / "x.json"
        code = main(["reduce", "--tf", loop_file, "--order", "2",
                     "--adjust", percent, "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_deterministic_except_wall_time(self, loop_file, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["reduce", "--tf", loop_file, "--order", "2",
                         "--out", str(out)]) == 0
            data = json.loads(out.read_text())
            data["manifest"]["wall_time_s"] = 0.0
            outs.append(json.dumps(data, sort_keys=True))
        assert outs[0] == outs[1]

    def test_auto_on_hard_inputs_chooses_a_percent(self, tmp_path):
        # pole spread 5e4 (the default step grid would need 5e6 samples),
        # roots -1..-12, twelve poles spread over 3e4, and a triple pole
        for name, num, poles in (
                ("stiff", [1.0, 0.2], [-1.0, -3.0, -5e4]),
                ("roots12", [1.0, 0.05], list(-np.arange(1.0, 13.0))),
                ("stiff12", [1.0], list(-np.geomspace(1.0, 3e4, 12))),
                ("triple", [1.0, 0.5], [-1.0, -1.0, -1.0, -8.0])):
            den = np.real(np.poly(poles))[::-1]
            tf = tmp_path / f"{name}.json"
            tf.write_text(json.dumps({"num": num, "den": list(den / den[0])}))
            out = tmp_path / f"{name}_red.json"
            assert main(["reduce", "--tf", str(tf), "--order", "2",
                         "--numerator-order", "1", "--adjust", "auto",
                         "--out", str(out)]) == 0, name
            report = json.loads(out.read_text())
            assert report["diagnostics"]["chosen_n"] is not None, name
            assert report["manifest"]["warnings"] == [], name


class TestDesignCommand:
    def test_conventional_report(self, motor_file, tmp_path):
        out = tmp_path / "conv.json"
        code = main(["design", "--motor", motor_file,
                     "--method", "conventional", "--report", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["Kc"] == pytest.approx(3.38, rel=1e-2)
        assert report["K"] == pytest.approx(39.0, rel=5e-3)
        assert report["achieved_zeta"] == pytest.approx(0.707, abs=1e-3)

    def test_mor_q1_exits_3_with_discriminant(self, motor_file, tmp_path, capsys):
        out = tmp_path / "mor.json"
        code = main(["design", "--motor", motor_file, "--method", "mor",
                     "--q", "1", "--report", str(out)])
        assert code == 3
        assert "NoRealGain" in capsys.readouterr().err
        report = json.loads(out.read_text())
        assert report["error"] == "NoRealGain"
        assert report["discriminant"] == pytest.approx(-3.46e-5, rel=0.1)
        # the unexplained published figures are quoted, not reproduced
        notes = " ".join(report["notes"])
        assert "357.192" in notes and "35.719" in notes

    def test_conventional_no_gain_writes_error_report(self, motor_file, tmp_path,
                                                     monkeypatch):
        # unreachable while T1 > Tr; forced here to check the shared error path
        def no_gain(model, zeta=None):
            raise NoPositiveGain("damping condition roots [0.0] contain no "
                                 "positive gain")
        monkeypatch.setattr("mordrive.cli.design_conventional", no_gain)
        out = tmp_path / "conv.json"
        code = main(["design", "--motor", motor_file,
                     "--method", "conventional", "--report", str(out)])
        assert code == 3
        report = json.loads(out.read_text())
        assert report["method"] == "conventional"
        assert report["error"] == "NoPositiveGain"
        assert report["discriminant"] is None and report["notes"] == []

    def test_mor_q0_succeeds(self, motor_file, tmp_path):
        out = tmp_path / "mor0.json"
        code = main(["design", "--motor", motor_file, "--method", "mor",
                     "--q", "0", "--report", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["K"] == pytest.approx(2.49, rel=1e-2)
        assert report["reduced"] is not None

    def test_mor_manifest_carries_reduction_warnings(self, motor_file, tmp_path,
                                                     monkeypatch):
        design = mordrive.cli.design_via_mor
        note = "auto adjustment failed for every percent; kept unadjusted"

        def noted(model, cfg=None, zeta=None):
            rep = design(model, cfg=cfg, zeta=zeta)
            red = dataclasses.replace(rep.reduced_model, warnings=(note,))
            return dataclasses.replace(rep, reduced_model=red)
        monkeypatch.setattr("mordrive.cli.design_via_mor", noted)
        out = tmp_path / "mor0.json"
        code = main(["design", "--motor", motor_file, "--method", "mor",
                     "--q", "0", "--report", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["manifest"]["warnings"] == [note]

    def test_missing_field_exits_2_naming_it(self, motor_file, tmp_path, capsys):
        data = json.loads(Path(motor_file).read_text())
        del data["kb_v_per_rad_s"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = main(["design", "--motor", str(bad),
                     "--method", "conventional",
                     "--report", str(tmp_path / "x.json")])
        assert code == 2
        assert "kb_v_per_rad_s" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("kb_v_per_rad_s", 1e200), ("j_kgm2", 1e300), ("vcm_v", 1e-320)])
    def test_out_of_range_nameplate_exits_2(self, motor_file, tmp_path, capsys,
                                            field, value):
        # each derives a constant that is zero or not finite
        data = json.loads(Path(motor_file).read_text())
        data[field] = value
        bad = tmp_path / "far.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "x.json"
        for argv in (["design", "--method", "conventional", "--report", str(out)],
                     ["sweep", "--kc-min", "1", "--kc-max", "2", "--steps", "2",
                      "--out", str(out)]):
            assert main(argv + ["--motor", str(bad)]) == 2
            err = capsys.readouterr().err
            assert "ValidationError" in err and "derived" in err
        assert not out.exists()

    def test_method_without_motor_or_report_exits_2(self, capsys):
        assert main(["design", "--method", "conventional"]) == 2
        assert "design needs --motor, --method and --report" in (
            capsys.readouterr().err)

    def test_print_example_is_valid_input(self, tmp_path, capsys):
        assert main(["design", "--print-example"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "motor.json"
        path.write_text(text)
        code = main(["design", "--motor", str(path),
                     "--method", "conventional",
                     "--report", str(tmp_path / "rep.json")])
        assert code == 0


class TestSimulateCommand:
    def test_step_csv_contract(self, tmp_path):
        tf = tmp_path / "g.json"
        tf.write_text(json.dumps({"num": [1.0], "den": [1.0, 1.0]}))
        out = tmp_path / "step.csv"
        code = main(["simulate", "step", "--tf", str(tf), "--out", str(out),
                     "--t-final", "8.0", "--dt", "0.01"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t_s,y"
        assert len(lines) == 1 + 801
        last = float(lines[-1].split(",")[1])
        assert last == pytest.approx(1.0, rel=5e-3)

    def test_bode_csv_contract(self, tmp_path):
        tf = tmp_path / "g.json"
        tf.write_text(json.dumps({"num": [2.0], "den": [1.0]}))
        out = tmp_path / "bode.csv"
        code = main(["simulate", "bode", "--tf", str(tf), "--out", str(out),
                     "--w-min", "0.1", "--w-max", "100.0", "--ppd", "10"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "omega_rad_per_s,mag_db,phase_deg"
        assert len(lines) == 1 + 31
        for line in lines[1:]:
            assert float(line.split(",")[1]) == pytest.approx(6.0206, abs=1e-3)

    def test_full_and_reduced_overlay_files(self, loop_file, tmp_path):
        red = tmp_path / "red.json"
        assert main(["reduce", "--tf", loop_file, "--order", "2",
                     "--out", str(red)]) == 0
        for src, name in ((loop_file, "full.csv"), (str(red), "red.csv")):
            assert main(["simulate", "step", "--tf", src,
                         "--out", str(tmp_path / name),
                         "--t-final", "0.6", "--dt", "0.0001"]) == 0
        full = (tmp_path / "full.csv").read_text().splitlines()
        redl = (tmp_path / "red.csv").read_text().splitlines()
        assert len(full) == len(redl)

    def test_sample_budget_exits_2(self, tmp_path, capsys):
        # poles near -10 and -1e12: the default grid would need ~1e13
        # steps; an infinite horizon asks for unboundedly many
        tf = tmp_path / "stiff.json"
        tf.write_text(json.dumps({"num": [1.0], "den": [1.0, 0.1, 1e-13]}))
        out = tmp_path / "step.csv"
        for extra in ([], ["--t-final", "inf", "--dt", "0.01"]):
            assert main(["simulate", "step", "--tf", str(tf),
                         "--out", str(out)] + extra) == 2
            err = capsys.readouterr().err
            assert "ValidationError" in err
            assert "--dt" in err and "--t-final" in err
            assert not out.exists()

    def test_bode_point_budget_exits_2(self, tmp_path, capsys):
        tf = tmp_path / "g.json"
        tf.write_text(json.dumps({"num": [1.0], "den": [1.0, 1.0]}))
        out = tmp_path / "bode.csv"
        # the second count is far past the float range
        for ppd in ("1000000000000000", "1" + "0" * 400):
            assert main(["simulate", "bode", "--tf", str(tf), "--out", str(out),
                         "--ppd", ppd]) == 2
            err = capsys.readouterr().err
            assert "ValidationError" in err and "--ppd" in err
            assert not out.exists()

    def test_wide_band_within_budget(self, tmp_path):
        # 600 decades at 60 points each; the band's ratio overflows
        tf = tmp_path / "g.json"
        tf.write_text(json.dumps({"num": [1.0], "den": [1.0, 1.0]}))
        out = tmp_path / "bode.csv"
        assert main(["simulate", "bode", "--tf", str(tf), "--out", str(out),
                     "--w-min", "1e-300", "--w-max", "1e300"]) == 0
        assert len(out.read_text().splitlines()) == 1 + 36_001

    def test_malformed_tf_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "step", "--tf", str(bad),
                     "--out", str(tmp_path / "x.csv")]) == 2


class TestSweepCommand:
    def test_csv_contract_and_ordering(self, motor_file, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--motor", motor_file, "--kc-min", "3.1",
                     "--kc-max", "50.0", "--steps", "4", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "kc,overshoot_pct,settling_s,rise_s,ise,stable"
        assert len(lines) == 1 + 4
        rows = [line.split(",") for line in lines[1:]]
        assert all(r[5] == "true" for r in rows)
        overshoots = [float(r[1]) for r in rows]
        assert overshoots[0] < overshoots[-1]

    def test_single_step_exits_2(self, motor_file, tmp_path):
        assert main(["sweep", "--motor", motor_file, "--kc-min", "1.0",
                     "--kc-max", "2.0", "--steps", "1",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_step_budget_exits_2(self, motor_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--motor", motor_file, "--kc-min", "3.1",
                     "--kc-max", "50.0", "--steps", "10000000000000000",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "ValidationError" in err and "--steps" in err
        assert not out.exists()

    def test_gain_past_step_budget_has_empty_metrics(self, motor_file,
                                                     tmp_path):
        # at Kc = 1e6 the closed loop needs more steps than the budget
        out = tmp_path / "hi.csv"
        assert main(["sweep", "--motor", motor_file, "--kc-min", "3.1",
                     "--kc-max", "1e6", "--steps", "3",
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 3
        assert rows[-1][1:] == ["", "", "", "", "true"]

    def test_gains_near_the_float_maximum_are_unstable(self, motor_file,
                                                       tmp_path):
        # closing the loop overflows; such closures count as unstable
        out = tmp_path / "top.csv"
        assert main(["sweep", "--motor", motor_file, "--kc-min", "1e300",
                     "--kc-max", "1.7e308", "--steps", "3",
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["1e+300", "8.50000005e+307", "1.7e+308"]
        assert all(r[1:] == ["", "", "", "", "false"] for r in rows)

    @pytest.mark.parametrize("kc_max", ["inf", "nan"])
    def test_non_finite_gain_exits_2(self, motor_file, tmp_path, capsys,
                                     kc_max):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--motor", motor_file, "--kc-min", "3.1",
                     "--kc-max", kc_max, "--steps", "3",
                     "--out", str(out)]) == 2
        assert "ValidationError" in capsys.readouterr().err
        assert not out.exists()

    def test_unstable_rows_have_empty_metrics(self, tmp_path):
        import dataclasses
        data = dataclasses.asdict(worked_example_params())
        data["tc_s"] = 0.0005
        path = tmp_path / "fast_pi.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--motor", str(path), "--kc-min", "2.0",
                     "--kc-max", "8.0", "--steps", "2",
                     "--out", str(out)]) == 0
        for line in out.read_text().splitlines()[1:]:
            fields = line.split(",")
            assert fields[5] == "false"
            assert fields[1] == "" and fields[4] == ""


class TestRobustness:
    def test_fuzzed_inputs_never_crash(self, tmp_path):
        rng = random.Random(20240901)
        blobs = [
            b"", b"{", b"[]", b"null", b'{"num": [], "den": [1]}',
            b'{"num": [1]}', b'{"den": [1]}', b'{"num": "x", "den": [1]}',
            b'{"num": [1], "den": [0]}', b'{"num": [NaN], "den": [1]}',
            b'{"num": [1e999], "den": [1]}', b'{"num": [1,2,3], "den": [1,1]}',
            b'{"num": [1], "den": [1, Infinity]}', b"\xff\xfe\x00garbage",
            b'{"num": [true], "den": [1]}', b'{"num": [1], "den": 3}',
        ]
        for _ in range(30):
            blobs.append(bytes(rng.randint(0, 255)
                               for _ in range(rng.randint(0, 50))))
        target = tmp_path / "fuzz.json"
        for blob in blobs:
            target.write_bytes(blob)
            for argv in (
                ["reduce", "--tf", str(target), "--order", "2",
                 "--out", str(tmp_path / "o.json")],
                ["design", "--motor", str(target), "--method", "conventional",
                 "--report", str(tmp_path / "o.json")],
                ["simulate", "step", "--tf", str(target),
                 "--out", str(tmp_path / "o.csv")],
                ["sweep", "--motor", str(target), "--kc-min", "1",
                 "--kc-max", "2", "--steps", "2",
                 "--out", str(tmp_path / "o.csv")],
            ):
                assert main(argv) in (2, 3)

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["reduce", "--tf", str(tmp_path / "nope.json"),
                     "--order", "2", "--out", str(tmp_path / "x.json")]) == 2

    def test_out_under_a_missing_directory_exits_2(self, loop_file, tmp_path,
                                                   capsys):
        missing = tmp_path / "missing"
        assert main(["reduce", "--tf", loop_file, "--order", "2",
                     "--out", str(missing / "r.json")]) == 2
        assert capsys.readouterr().err.startswith("error: [Errno 2]")
        assert not missing.exists()

    # Too large for a float, and nested too deep for the JSON decoder.
    @pytest.mark.parametrize("value", ["1" + "0" * 400,
                                       "[" * 100_000 + "]" * 100_000],
                             ids=["oversize-integer", "deep-nesting"])
    @pytest.mark.parametrize("command", ["reduce", "simulate", "design",
                                         "sweep"])
    def test_unreadable_value_exits_2(self, tmp_path, capsys, command, value):
        if command in ("reduce", "simulate"):
            data = {"num": ["X"], "den": [1.0, 1.0]}
        else:
            data = dict(dataclasses.asdict(worked_example_params()), ra_ohm="X")
        path, out = str(tmp_path / "in.json"), tmp_path / "out"
        Path(path).write_text(json.dumps(data).replace('"X"', value))
        argv = {
            "reduce": ["reduce", "--tf", path, "--order", "1"],
            "simulate": ["simulate", "step", "--tf", path],
            "design": ["design", "--motor", path, "--method", "conventional",
                       "--report", str(out)],
            "sweep": ["sweep", "--motor", path, "--kc-min", "1", "--kc-max",
                      "2", "--steps", "2"],
        }[command]
        if command != "design":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        assert "ValidationError" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_minus_zero_reads_as_zero(self, tmp_path):
        tf = tmp_path / "g.json"
        tf.write_text('{"num": [1, -0, 0.0001], '
                      '"den": [1, 0.12988, 0.00241749, 3.0914208e-06]}')
        out = tmp_path / "r.json"
        assert main(["reduce", "--tf", str(tf), "--order", "2",
                     "--numerator-order", "0", "--out", str(out)]) == 0
        original = json.loads(out.read_text())["diagnostics"]["original"]
        assert [math.copysign(1.0, x) for x in original["num"]] == [1.0] * 3
        assert original == {"num": [1.0, 0.0, 0.0001],
                            "den": [1.0, 0.12988, 0.00241749, 3.0914208e-06]}

    def test_bad_argv_exits_2(self):
        assert main(["reduce", "--order", "not-a-number"]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


_IMPORT_CHECK = """
import sys
import mordrive.cli
from mordrive import (ReductionConfig, TransferFunction, bode, derive_model,
                      reduce, step_response, sweep_gain,
                      worked_example_params)
sweep_gain(derive_model(worked_example_params()), 3.1, 50.0, 3)
loop = TransferFunction.from_coeffs([1.0, 0.03],
                                    [1.0, 0.12988, 0.00241749, 3.0914208e-06])
reduce(loop, ReductionConfig(target_order=2, numerator_order=1,
                             adjust_mode="auto"))
step_response(loop)
bode(loop, 0.1, 1e4)
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("scipy", "mpmath")
             or m.startswith(("numpy.polynomial", "numpy.random"))))
"""


def test_commands_load_numpy_core_only():
    # NumPy is the only dependency, and each import of a heavier module
    # adds to every CLI process's start-up
    src = str(Path(mordrive.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _IMPORT_CHECK], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
