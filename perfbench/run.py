"""galpha benchmark: one seeded workload, closed loop, one client, one process.

Run from the repository root:

    python3 perfbench/run.py --workload norms-small --seed 1 --seconds 34 --trace 0

--trace 0 measures the end-to-end metrics.  Set-up is repeated and its
median reported, then round(seconds / nominal pass time) whole passes run
over the workload's operations.  The pass count depends on --seconds only,
so every commit does the same work; at the commit that defined the
benchmark the timed phase lasts about --seconds on a 2-core host.  Every
set-up and operation is bracketed by host speed probes (speed.py), and the
reported times are scaled to the reference host; raw times are in the
detail record.

--trace 1 runs an untimed warm-up pass, one plain pass and one traced pass
over the same operations, so call and point counts repeat exactly for a
seed whatever --seconds says, and reports the per-layer metrics.

Every operation's output is checked.  A detail record (environment, input
hash, failures, tail percentile) is printed on the line before the result
and kept under .bench_out/; the last line of standard output is the result
as one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import numpy as np

import speed
from spans import Tracer
from workloads import KNOWN_DEFECTS, WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPS = 15
COLD_IMPORT_REPS = 3
WARMUP_OPS = 2
WARMUP_PROBES = 3
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
# Floors keep these metrics nonzero, so a relative bound stays defined.
FAILED_FLOOR = 1e-6  # below one failure in any run
DEFICIT_FLOOR = 1e-12
ERROR_FLOOR = 1e-16

# (name, unit) of the per-layer metrics; totals over the traced pass
PER_LAYER = (
    ("schwarz.norms.s", "s"),
    ("complexfn.sup_norm_estimate.s", "s"),
    ("complexfn.sup_norm_estimate.self_s", "s"),
    ("schwarz.schwarzian.calls", "count"),
    ("schwarz.schwarzian.points", "count"),
    ("schwarz.pre_schwarzian.calls", "count"),
    ("schwarz.pre_schwarzian.points", "count"),
    ("complexfn.points_per_call", "points/call"),
    ("complexfn.objective.calls", "count"),
    ("complexfn.grid_sweep.ops_computed", "ops"),
    ("complexfn.grid_sweep.bytes_computed", "bytes"),
    ("family.real_part_bound_residual.s", "s"),
    ("family.real_part_bound_residual.peak_mb", "MB"),
    ("family.real_part_bound_residual.ops_computed", "ops"),
    ("family.real_part_bound_residual.bytes_computed", "bytes"),
    ("family.subordination_witness.s", "s"),
    ("family.membership_margin.s", "s"),
    ("family.hprime_log_derivative.calls", "count"),
    ("family.hprime_log_derivative.points", "count"),
    ("family.coefficients.s", "s"),
    ("complexfn.cauchy_coefficients.s", "s"),
    ("blaschke.boundary_roots.s", "s"),
    ("blaschke.BlaschkeProduct.call.calls", "count"),
    ("blaschke.BlaschkeProduct.call.points", "count"),
    ("family.measure_from_blaschke.s", "s"),
    ("family.blaschke_from_measure.s", "s"),
    ("family.blaschke_from_measure.failed", "count"),
    ("verify.blaschke_roundtrip_error.s", "s"),
    ("harmonic.DilatationSpec.init.s", "s"),
    ("harmonic.HarmonicMap.g_coefficients.s", "s"),
    ("harmonic.winding_injectivity_probe.s", "s"),
    ("harmonic.univalence_criterion.s", "s"),
    ("harmonic.HarmonicMap.jacobian.s", "s"),
    ("specfile.load_function_spec.s", "s"),
    ("verify.run_verification.s", "s"),
    ("verify.run_verification.self_s", "s"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.ops", "count"),
    ("trace.overhead_s", "s"),
)


def import_galpha():
    """Import galpha from this checkout's src/, never from an installation."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import galpha
    import galpha.cli  # noqa: F401  (the verify workload calls galpha.cli.main)
    if Path(galpha.__file__).resolve().parent != SRC / "galpha":
        raise ImportError(f"galpha imported from {galpha.__file__}, not {SRC}")
    return galpha


def fresh_import():
    """Import galpha anew: its modules leave sys.modules first, so every
    module body runs again.  numpy stays loaded."""
    for name in [n for n in sys.modules if n == "galpha" or n.startswith("galpha.")]:
        del sys.modules[name]
    return import_galpha()


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> int | None:
    """OpenBLAS thread count of the library bundled with numpy, if found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment(galpha) -> dict:
    return {
        "galpha": galpha.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "usable_cores": usable_cores(),
        "blas_threads": blas_threads(),
        "GALPHA_THREADS": os.environ["GALPHA_THREADS"],
        "galpha_threads_effective": galpha.complexfn.worker_count(),
    }


def cold_import() -> float:
    """Seconds to `import galpha` in a fresh interpreter, as a command-line
    user pays it.

    The child's stdout is a pipe, so its exit is seen when the pipe closes:
    a wait with a timeout alone polls in steps of up to 50 ms.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", "import galpha"], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE) as child:
        try:
            child.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise
    elapsed = time.perf_counter() - t0
    if child.returncode != 0:
        raise subprocess.CalledProcessError(child.returncode, child.args)
    return elapsed


class SetUp(NamedTuple):
    seconds: float  # median scaled set-up time
    raw_s: list  # each set-up's unscaled time
    galpha: object  # the package as the last set-up imported it
    inputs: dict
    ops: list
    digest: str  # sha256 of the input files
    directory: Path


def set_up(workload, seed: int, work: Path, probe: speed.SpeedProbe) -> SetUp:
    """Import galpha afresh, generate, write and load the inputs into the
    workload's operations, SETUP_REPS times, each between two speed probes."""
    times, probes = [], [probe.sample()]
    for rep in range(SETUP_REPS):
        directory = work / f"setup{rep}"
        directory.mkdir(parents=True)
        t0 = time.perf_counter()
        galpha = fresh_import()
        inputs = workload.generate(seed)
        paths = workload.write(inputs, directory)
        ops = workload.prepare(inputs, directory, galpha)
        times.append(time.perf_counter() - t0)
        probes.append(probe.sample())
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return SetUp(statistics.median(speed.scale(times, probes)), times, galpha, inputs,
                 ops, digest.hexdigest(), directory)


def failing_layer(exc: BaseException) -> str:
    """module.function of the innermost galpha frame that raised."""
    layer = "perfbench"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        path = Path(frame.f_code.co_filename)
        if path.parent.name == "galpha":
            layer = f"{path.stem}.{frame.f_code.co_name}"
    return layer


class Pass:
    """Latencies and check outcomes of the operations run so far."""

    def __init__(self):
        self.latencies: list[float] = []
        self.idents: list[str] = []
        self.failures: dict[tuple, dict] = {}
        self.failed = 0
        self.unexpected = 0
        self.deficit = 0.0
        self.worst_error = 0.0

    def run(self, op, tracer=None) -> None:
        t0 = time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:  # a failed op is recorded and the loop goes on
            result, error = None, exc
        latency = time.perf_counter() - t0
        self.latencies.append(latency)
        self.idents.append(op.ident)
        if error is None:
            outcome = op.check(result)
        else:
            outcome = Outcome()
            outcome.fail(f"{type(error).__name__}: {error}", failing_layer(error))
            outcome.failures[-1]["traceback"] = "".join(traceback.format_exception(error))
        if outcome.deficit is not None:
            self.deficit = max(self.deficit, outcome.deficit)
        if outcome.roundtrip_error is not None:
            self.worst_error = max(self.worst_error, outcome.roundtrip_error)
        if outcome.failures:
            self.failed += 1
            self.unexpected += any(f["defect"] is None for f in outcome.failures)
        for failure in outcome.failures:
            key = (op.ident, failure["reason"])
            record = self.failures.setdefault(key, dict(failure, op=op.ident, count=0))
            record["count"] += 1
            if tracer is not None:
                tracer.add(f"{failure['layer']}.failed", 1)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile with at least
    TAIL_BEYOND samples above it; the maximum if there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n, n


def timed(ops, passes: int, probe: speed.SpeedProbe) -> tuple[Pass, list[float]]:
    """Run whole passes over ops with a speed probe before the first and after
    every operation; returns the record and the probe times."""
    record, probes = Pass(), [probe.sample()]
    for _ in range(passes):
        for op in ops:
            record.run(op)
            probes.append(probe.sample())
    return record, probes


def pass_times(latencies: list[float], ops_per_pass: int) -> list[float]:
    return [math.fsum(latencies[i:i + ops_per_pass])
            for i in range(0, len(latencies), ops_per_pass)]


def end_to_end(record: Pass, ops_per_pass: int, probes: list[float],
               setup_s: float) -> tuple[dict, dict]:
    """Metrics from latencies scaled to the reference host; a pass's time is
    the sum of its operations' latencies, so the probes are not counted."""
    scaled = speed.scale(record.latencies, probes)
    tail_value, percentile, samples = tail(scaled)
    pass_s = pass_times(scaled, ops_per_pass)
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_s": (statistics.median(scaled), "s"),
        "latency_tail_s": (tail_value, "s"),
        "throughput_ops_s": (ops_per_pass / statistics.median(pass_s), "1/s"),
        "failed_frac": (max(record.failed / samples, FAILED_FLOOR), "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "norm_deficit_max": (max(record.deficit, DEFICIT_FLOOR), "norm"),
        "roundtrip_digits_min": (-math.log10(max(record.worst_error, ERROR_FLOOR)), "digits"),
    }
    by_op: dict[str, list[float]] = {}
    for ident, latency in zip(record.idents, scaled):
        by_op.setdefault(ident, []).append(latency)
    raw_pass_s = pass_times(record.latencies, ops_per_pass)
    detail = {"tail_percentile": percentile, "tail_samples": samples,
              "tail_beyond": TAIL_BEYOND,
              "op_latency_median_s": {op: statistics.median(times)
                                      for op, times in sorted(by_op.items())},
              "pass_s": pass_s,
              "probe_reference_s": speed.REFERENCE_S,
              "probe_median_s": statistics.median(probes),
              "raw": {"latency_p50_s": statistics.median(record.latencies),
                      "latency_tail_s": tail(record.latencies)[0],
                      "throughput_ops_s": ops_per_pass / statistics.median(raw_pass_s),
                      "pass_s": raw_pass_s}}
    return metrics, detail


def traced(ops, galpha, spans_path: Path) -> tuple[Pass, dict, dict]:
    """One plain and one traced pass over ops; per-layer metrics of the latter."""
    record = Pass()
    t0 = time.perf_counter()
    for op in ops:
        record.run(op)
    untraced_s = time.perf_counter() - t0

    tracer = Tracer(galpha)
    tracer.install()
    try:
        t0 = time.perf_counter()
        for index, op in enumerate(ops):
            tracer.op = index
            record.run(op, tracer)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.restore()
    inclusive, own = tracer.summary()
    tracer.write(spans_path)

    counts = tracer.counts
    calls = counts.get("complexfn.objective.calls", 0.0)
    derived = {
        "complexfn.points_per_call":
            counts.get("complexfn.objective.points", 0.0) / calls if calls else 0.0,
        "trace.ops": float(len(ops)),
        "trace.overhead_s": traced_s - untraced_s,
    }

    def value(name: str) -> float:
        if name in derived:
            return derived[name]
        if name.endswith(".self_s"):
            return own.get(name[:-len(".self_s")], 0.0)
        if name.endswith(".s"):
            return inclusive.get(name[:-len(".s")], 0.0)
        if name.endswith(".peak_mb"):
            return tracer.peaks.get(name, 0.0)
        return counts.get(name, 0.0)

    metrics = {name: (value(name), unit) for name, unit in PER_LAYER}
    detail = {"untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
              "spans": tracer.span_count, "spans_file": spans_path.name,
              "computed_costs_note": "ops_computed and bytes_computed are computed from "
                                     "array shapes, not measured counters"}
    return record, metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "galpha" / "__init__.py").is_file():
        print(f"error: no galpha sources under {SRC}", file=sys.stderr)
        return 2

    os.environ["GALPHA_THREADS"] = str(usable_cores())
    import_galpha()  # loads numpy and the rest of what galpha uses before set-up is timed
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-s{args.seed}-t{args.trace}"
    work = OUT / f"{tag}-{os.getpid()}"
    probe = speed.SpeedProbe(usable_cores())
    try:
        for _ in range(WARMUP_PROBES):
            probe.sample()
        cold_import_s = statistics.median(cold_import() for _ in range(COLD_IMPORT_REPS))
        setup = set_up(workload, args.seed, work, probe)
        galpha, ops = setup.galpha, setup.ops
        warmup = Pass()
        # the traced run compares two passes, so it warms up with a whole one
        for op in ops if args.trace else ops[:WARMUP_OPS]:
            warmup.run(op)
        if args.trace:
            record, metrics, detail = traced(ops, galpha, OUT / f"spans-{workload.name}.json")
        else:
            passes = max(1, round(args.seconds / workload.nominal_pass_s))
            record, probes = timed(ops, passes, probe)
            metrics, detail = end_to_end(record, len(ops), probes, setup.seconds)
            detail.update(passes=passes)
    finally:
        probe.close()
        shutil.rmtree(work, ignore_errors=True)

    detail.update(
        workload=workload.name, why=workload.why, seed=args.seed, trace=args.trace,
        seconds=args.seconds, inputs_sha256=setup.digest,
        rotation_steps=setup.inputs["rotation_steps"], ops_per_pass=len(ops),
        setup_reps_raw_s=setup.raw_s, cold_import_s=cold_import_s,
        environment=environment(galpha),
        known_defects=KNOWN_DEFECTS, failures=sorted(record.failures.values(),
                                                     key=lambda f: (f["op"], f["reason"])))
    attempted = len(record.latencies)
    result = {
        "correct": record.unexpected == 0,
        "attempted": attempted,
        "failed": record.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (OUT / f"{tag}.json").write_text(json.dumps(dict(detail, result=result), indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
