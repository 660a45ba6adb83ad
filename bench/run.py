"""Benchmark of mordrive: seeded workloads through the public API.

Run from the root of a checkout (the package is imported from ./src):

    python3 bench/run.py --workload reduce_family --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 24 --trace 1

Each workload runs in its own process with one caller in a closed loop:
the next operation starts when the previous one has returned and passed
the correctness gate.  The timed section runs passes over the
workload's inputs, the first one whole, until --seconds have gone by.
The result counts inputs: ``attempted`` is the number of inputs and
``failed`` the number whose operation failed on any pass.  With
--trace 0 the last output line is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a separate
traced run, which alternates untraced and traced passes to measure its
own overhead.
Results, the environment and the spans go to .bench_work/.
"""
from __future__ import annotations

import os

# Pin BLAS to one thread before NumPy loads, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("reduce_family", "adjust_scan", "gain_sweep", "cli_walkthrough")
SETUP_RUNS = 5
IMPORT_RUNS = 5
CHILD_TIMEOUT_S = 170
# About the median wall time of speed_probe() on an otherwise quiet 2-vCPU
# x86-64 host with Python 3.11 and NumPy 2.4; reported times are scaled
# to this speed.
PROBE_REFERENCE_S = 0.0055


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def blas_threads() -> int:
    """Threads the loaded OpenBLAS uses where its library reports it,
    otherwise the pinned setting."""
    import ctypes
    import numpy as np
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            return get()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        cpu = next((line.split(":", 1)[1].strip()
                    for line in cpuinfo.read_text().splitlines()
                    if line.startswith("model name")), "")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def set_up(name: str, seed: int, in_process_cli: bool = False):
    """Import the package, build the inputs and warm up one operation."""
    import workloads
    w = workloads.WORKLOADS[name](seed, WORK / f"{name}-seed{seed}")
    w.in_process = in_process_cli
    w.warm_up()
    return w


def probe_set_up(name: str, seed: int) -> float:
    """Wall time from spawning a fresh process to the end of its set-up."""
    t0 = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--setup-probe"], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def probe_import() -> float:
    """Time to import mordrive.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import mordrive.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True, timeout=CHILD_TIMEOUT_S)
    return float(out.stdout)


def speed_probe() -> float:
    """Wall time of a fixed mix of Python and NumPy work that uses no
    mordrive code: float arithmetic in a loop and the small polynomial
    operations the package is made of (convolve, polyval, roots, poly,
    polydiv, eigvals)."""
    import numpy as np
    poly = np.poly(np.linspace(-1.0, -8.0, 8))
    grid = 1j * np.logspace(-1.0, 2.0, 30)
    shift = np.diag(np.ones(6), 1) - 0.1
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(5000):
        acc += (i * 0.5) ** 0.5
    for _ in range(15):
        a = np.convolve(poly[:5], poly[3:])
        np.polyval(a, grid)
        np.poly(np.roots(a))
        np.polydiv(a, poly[:4])
        np.linalg.eigvals(shift)
    return time.perf_counter() - t0


class Tally:
    """Outcome and wall time of every attempted operation, by input.

    ``ops`` and ``failed_ops`` count operations; a run's result counts
    inputs (``attempted``, ``failed``).  An input is gated on every pass
    and fails if any of its operations failed.  The outcome of an input
    is fixed by the code and the seed, while the number of passes in a
    run depends on the machine's speed, so per-input counts repeat
    exactly from run to run.
    """

    def __init__(self):
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.ops = 0
        self.failed_ops = 0
        self.failed_inputs: set[str] = set()
        self.mismatched = 0
        self.documented = 0
        self.reasons: Counter = Counter()

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.failed_inputs)

    def op(self, w, case) -> float:
        """Run one operation, gate it, and return its wall time."""
        from workloads import Mismatch
        self.ops += 1
        t0 = time.perf_counter()
        try:
            out, failure = w.run(case), None
        except Exception as exc:  # any error is a failed operation, not a crash
            out, failure = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        self.latencies[case.key].append(elapsed)
        if failure is None:
            try:
                self.documented += w.check(case, out)
            except Exception as exc:  # a wrong or unreadable output
                self.mismatched += 1
                kind = "mismatch" if isinstance(exc, Mismatch) else type(exc).__name__
                failure = f"{kind}: {exc}"
        if failure is not None:
            self.failed_ops += 1
            self.failed_inputs.add(case.key)
            self.reasons[f"{case.key}: {failure}"[:200]] += 1
        return elapsed

    def add(self, other: "Tally") -> None:
        """Count another tally's operations in this one."""
        for key in ("ops", "failed_ops", "mismatched", "documented"):
            setattr(self, key, getattr(self, key) + getattr(other, key))
        for key, times in other.latencies.items():
            self.latencies[key] += times
        self.failed_inputs |= other.failed_inputs
        self.reasons += other.reasons

    def best(self) -> list[float]:
        """Each input's fastest wall time over the run's passes."""
        return [min(times) for times in self.latencies.values()]

    def typical(self) -> list[float]:
        """Each input's median wall time over the run's passes."""
        return [statistics.median(times) for times in self.latencies.values()]


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 values beyond.

    With 20 values or fewer that percentile would not lie above the
    median, so the largest value is the tail.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def timed_passes(w, seconds: float, tally: Tally, probes: list) -> int:
    """Passes over the inputs until ``seconds`` have gone by, the first
    one whole, with a speed probe after every operation; returns the
    number of whole passes."""
    deadline = time.perf_counter() + seconds
    passes = 0
    while True:
        for case in w.cases:
            if passes and time.perf_counter() >= deadline:
                return passes
            tally.op(w, case)
            probes.append(speed_probe())
        passes += 1


def run_untraced(args) -> tuple[dict, dict, Tally]:
    """End-to-end metrics of one untraced run.

    The timing metrics come from each input's median time.  A tail over
    every timed operation would fall where the heaviest input's
    operations give out, which moves with the number of passes a run
    holds.

    A shared host runs the same code up to twice as slow for seconds to
    minutes at a time.  A fixed probe, run after every operation, sees
    the same slowdowns, so each input's median time divided by the
    probe's median time over the same span moves far less from run to
    run than either (best times, divided by the probe's best, moved more:
    a short probe finds fast moments that a long operation does not).
    Set-up time, measured right after the timed section, is scaled by the
    same factor.  Reported times are therefore the measured times scaled
    to a host where speed_probe() takes PROBE_REFERENCE_S; the result
    file keeps the raw ones.
    """
    w = set_up(args.workload, args.seed)
    # One untimed, gated pass computes the gate's reference values, which
    # would otherwise take seconds out of the timed section.
    untimed = Tally()
    for case in w.cases:
        untimed.op(w, case)
    tally = Tally()
    probes: list[float] = []
    passes = timed_passes(w, args.seconds, tally, probes)
    if args.workload == "cli_walkthrough":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups = [probe_set_up(args.workload, args.seed) for _ in range(SETUP_RUNS)]
    scale = PROBE_REFERENCE_S / statistics.median(probes)

    typical = [t * scale for t in tally.typical()]
    n = len(typical)
    tail_s, pct = tail(typical)
    per_input = (f"median of {min(map(len, tally.latencies.values()))} or more "
                 f"operations for each of {n} inputs ({passes} whole passes), "
                 f"times x {scale:.3f} for the probe")
    metrics = {
        "ops_per_s": (n / sum(typical), "1/s",
                      f"one pass at the {per_input}; {w.op_text}"),
        "latency_p50_ms": (statistics.median(typical) * 1e3, "ms", per_input),
        "latency_tail_ms": (tail_s * 1e3, "ms", f"p{pct:.1f}, {per_input}"),
        "success_share": ((tally.attempted - tally.failed) / tally.attempted,
                          "share",
                          f"{tally.failed} failed of {tally.attempted} inputs; "
                          f"{tally.failed_ops} failed of {tally.ops} operations "
                          f"({tally.mismatched} gate mismatches); "
                          f"{tally.documented} documented infeasible outcomes"),
        "setup_s": (statistics.median(setups) * scale, "s",
                    f"median of {SETUP_RUNS} fresh processes x {scale:.3f}; "
                    "raw " + ", ".join(f"{s:.3f}" for s in setups)),
        "peak_rss_mb": (peak_kb / 1024.0, "MB",
                        "largest CLI child process" if args.workload
                        == "cli_walkthrough" else "this process"),
    }
    return metrics, {"passes": passes, "inputs": n, "probe_best_s": min(probes),
                     "probe_median_s": statistics.median(probes), "scale": scale,
                     "setups_s": setups,
                     "latencies_s": dict(tally.latencies)}, tally


def run_traced(args) -> tuple[dict, dict, Tally]:
    """Per-layer metrics from traced passes, alternating with untraced
    passes over the same inputs to measure the tracing overhead."""
    import workloads
    from tracing import Tracer, layer_metrics
    tracer = Tracer([workloads])
    with tracer.installed():
        w = set_up(args.workload, args.seed, in_process_cli=True)
    untraced, traced = Tally(), Tally()
    traced_s = 0.0

    def traced_pass():
        nonlocal traced_s
        with tracer.installed():
            for case in w.cases:
                tracer.op = traced.ops
                traced_s += traced.op(w, case)
        tracer.op = None

    start = time.perf_counter()
    pairs = 0
    while pairs == 0 or time.perf_counter() - start < args.seconds:
        if pairs % 2:  # alternate which pass of a pair runs first
            traced_pass()
        for case in w.cases:
            untraced.op(w, case)
        if not pairs % 2:
            traced_pass()
        pairs += 1
    import_s = statistics.median(probe_import() for _ in range(IMPORT_RUNS))
    overhead = sum(traced.best()) / sum(untraced.best()) - 1.0
    layers = layer_metrics(tracer.spans, traced.ops, traced_s, overhead,
                           import_s)
    tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    metrics = {name: (value, unit, "") for name, (value, unit) in layers.items()}
    extra = {"traced_ops": traced.ops, "spans": len(tracer.spans)}
    traced.add(untraced)
    return metrics, extra, traced


def run_one(args) -> int:
    WORK.mkdir(exist_ok=True)
    env = environment()
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    metrics, extra, tally = (run_traced if args.trace else run_untraced)(args)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}:")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit:10s} {note}")
    for reason, count in tally.reasons.most_common(10):
        print(f"  failure x{count}: {reason}")
    result = {
        "correct": tally.mismatched == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, environment=env,
                  notes={name: note for name, (_, _, note) in metrics.items()},
                  failures=dict(tally.reasons), **extra)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(detail, indent=2) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mordrive" / "__init__.py").is_file():
        print(f"error: {SRC / 'mordrive'} not found; run from the root of a "
              "mordrive checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        set_up(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
