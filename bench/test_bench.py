"""Tests of the benchmark itself: seeded inputs, the gate, the output.

Run from the repository root with ``python3 -m pytest bench -q``.
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from mordrive import TransferFunction  # noqa: E402
from workloads import Mismatch  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def inputs(name, seed, tmp_path):
    w = workloads.WORKLOADS[name](seed, tmp_path / f"{name}-{seed}")
    return [(c.key, repr(c.data)) for c in w.cases]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name, tmp_path):
    assert inputs(name, 7, tmp_path) == inputs(name, 7, tmp_path)
    assert inputs(name, 7, tmp_path) != inputs(name, 8, tmp_path)


def test_workload_names_match_the_spec():
    import run
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_reduce_gate_rejects_a_perturbed_denominator(tmp_path):
    w = workloads.ReduceFamily(3, tmp_path)
    case = w.cases[2]
    out = w.run(case)
    w.check(case, out)
    i, (r, q, res, tr) = next((i, o) for i, o in enumerate(out)
                             if o[0] and not isinstance(o[2], Exception))
    den = list(res.reduced.den.coeffs)
    den[1] *= 1.0 + 1e-4
    bad = dataclasses.replace(res, reduced=TransferFunction.from_coeffs(
        res.reduced.num.coeffs, den))
    out[i] = (r, q, bad, tr)
    with pytest.raises(Mismatch):
        w.check(case, out)


def test_adjust_gate_rejects_a_percent_that_is_not_the_minimizer(tmp_path):
    w = workloads.AdjustScan(3, tmp_path)
    case = next(c for c in w.cases if c.key == "system1")
    res = w.run(case)
    w.check(case, res)
    other = 15.0 if res.chosen_n != 15.0 else 1.0
    d_r = workloads.ref.reduced_den(case.data["den"], 2)
    bad = dataclasses.replace(res, chosen_n=other, reduced=TransferFunction.from_coeffs(
        res.reduced.num.coeffs, workloads.ref.adjusted(d_r, other)))
    with pytest.raises(Mismatch, match="ISE"):
        w.check(case, bad)


def test_sweep_gate_rejects_a_perturbed_overshoot(tmp_path):
    w = workloads.GainSweep(3, tmp_path)
    case = w.cases[0]
    points = w.run(case)
    w.check(case, points)
    points[4] = dataclasses.replace(points[4],
                                    overshoot_pct=points[4].overshoot_pct * 1.01)
    with pytest.raises(Mismatch, match="overshoot"):
        w.check(case, points)


def test_cli_gate_rejects_a_wrong_report(tmp_path):
    w = workloads.CliWalkthrough(3, tmp_path)
    w.in_process = True
    w.warm_up()
    case = next(c for c in w.cases if c.key == "reduce_none")
    code = w.run(case)
    w.check(case, code)
    path = Path(w.files["reduced_none.json"])
    report = json.loads(path.read_text())
    report["den"][2] *= 1.001
    path.write_text(json.dumps(report))
    with pytest.raises(Mismatch):
        w.check(case, code)
    with pytest.raises(Mismatch, match="exit code"):
        w.check(case, 3)


def test_result_counts_inputs_and_operations_apart():
    import run

    class Flaky:
        cases = [workloads.Case("ok", {}), workloads.Case("bad", {})]

        def run(self, case):
            if case.key == "bad":
                raise RuntimeError("no result")

        def check(self, case, out):
            return 0

    tally = run.Tally()
    for _ in range(3):
        for case in Flaky.cases:
            tally.op(Flaky(), case)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert (tally.ops, tally.failed_ops, tally.mismatched) == (6, 3, 0)


def test_adjust_scan_repeated_poles_are_the_same_in_every_seed(tmp_path):
    def repeated(seed):
        w = workloads.AdjustScan(seed, tmp_path)
        return {c.key: c.data for c in w.cases if "pole" in c.key}
    assert repeated(1) == repeated(2) and len(repeated(1)) == 2


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_the_spec(trace, section):
    proc = run_bench(ROOT, "--workload", "gain_sweep", "--seed", "2",
                     "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "reduce_family", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
