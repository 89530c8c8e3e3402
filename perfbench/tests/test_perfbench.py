"""Self-tests of the benchmark: inputs, output checks and the traced run.

Run from the repository root with `python3 -m pytest perfbench/tests`.
"""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402
from spans import LAYERS  # noqa: E402
from workloads import ITEM2_MEMBER, WORKLOADS, norm_outcome  # noqa: E402

galpha = run.import_galpha()

EXPECTED = {
    "norms-small": {
        "schwarz.norms.s", "complexfn.sup_norm_estimate.s",
        "complexfn.sup_norm_estimate.self_s", "schwarz.schwarzian.calls",
        "schwarz.schwarzian.points", "schwarz.pre_schwarzian.calls",
        "schwarz.pre_schwarzian.points", "complexfn.points_per_call",
        "complexfn.objective.calls", "complexfn.grid_sweep.ops_computed",
        "complexfn.grid_sweep.bytes_computed", "family.hprime_log_derivative.calls",
        "family.hprime_log_derivative.points", "trace.ops", "trace.overhead_s",
    },
    "verify-mixed": {name for name, _ in run.PER_LAYER} - {
        "family.blaschke_from_measure.s", "family.blaschke_from_measure.failed",
    },
    "roundtrip": {
        "blaschke.boundary_roots.s", "blaschke.BlaschkeProduct.call.calls",
        "blaschke.BlaschkeProduct.call.points", "family.measure_from_blaschke.s",
        "family.blaschke_from_measure.s", "family.blaschke_from_measure.failed",
        "verify.blaschke_roundtrip_error.s", "trace.ops", "trace.overhead_s",
    },
}

# layers each workload is chosen to leave alone
ABSENT = {
    "norms-small": ("blaschke.", "harmonic.", "family.real_part_bound_residual",
                    "cli.", "specfile.", "verify."),
    "roundtrip": ("schwarz.", "complexfn.", "harmonic.", "cli.", "specfile."),
}


@pytest.fixture(autouse=True)
def _threads(monkeypatch):
    monkeypatch.setenv("GALPHA_THREADS", str(run.usable_cores()))


def prepared(name, tmp_path, seed=3):
    workload = WORKLOADS[name]
    inputs = workload.generate(seed)
    workload.write(inputs, tmp_path)
    return workload.prepare(inputs, tmp_path, galpha)


def bindings():
    """Every module-level and class-level binding the tracer may replace."""
    seen = {}
    for layer in ("",) + LAYERS:
        module = getattr(galpha, layer) if layer else galpha
        for attr, obj in vars(module).items():
            seen[(module.__name__, attr)] = obj
            if inspect.isclass(obj):
                for cattr, member in vars(obj).items():
                    seen[(module.__name__, obj.__name__, cattr)] = member
    return seen


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    with speed.SpeedProbe(1) as probe:
        first = run.set_up(WORKLOADS[name], 7, tmp_path / "a", probe)
        second = run.set_up(WORKLOADS[name], 7, tmp_path / "b", probe)
        other = run.set_up(WORKLOADS[name], 8, tmp_path / "c", probe)
    assert len(first.digest) == 64 and first.digest == second.digest
    assert other.digest != first.digest
    for path in sorted(first.directory.iterdir()):
        assert path.read_bytes() == (second.directory / path.name).read_bytes()
    assert len(first.ops) == len(first.inputs["order"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_each_layer_and_restores_names(name, tmp_path):
    ops = prepared(name, tmp_path)
    before = bindings()
    record, metrics, _ = run.traced(ops, galpha, tmp_path / "spans.json")
    assert bindings() == before
    assert record.unexpected == 0
    assert set(metrics) == {n for n, _ in run.PER_LAYER}
    for metric in EXPECTED[name]:
        assert metrics[metric][0] != 0, metric
    for metric, (value, _) in metrics.items():
        if metric.startswith(ABSENT.get(name, ())):
            assert value == 0, metric
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert spans["spans"]
    assert {row[1] for row in spans["spans"]} <= set(range(len(ops)))


@pytest.mark.parametrize("name,count", [("roundtrip", None), ("norms-small", 3)])
def test_traced_counts_repeat_for_a_seed(name, count, tmp_path):
    ops = prepared(name, tmp_path)[:count]
    counts = []
    for _ in range(2):
        _, metrics, _ = run.traced(ops, galpha, tmp_path / "spans.json")
        counts.append({k: v for k, (v, unit) in metrics.items()
                       if unit in ("count", "points/call", "ops", "bytes")})
    assert counts[0] == counts[1]
    assert any(v > 0 for k, v in counts[0].items() if k.endswith(".points"))


def test_norm_check_flags_the_roadmap_member_and_passes_single_atoms():
    assert not norm_outcome(1.0, [1.0], 2.0, 6.0).failures
    assert not norm_outcome(0.5, [1.0], 0.9995, 2.4995).failures
    assert norm_outcome(0.5, [1.0], 0.998, 2.5).failures
    assert norm_outcome(0.5, [1.0], 1.0, 2.5 + 1e-5).failures[0]["defect"] is None
    out = norm_outcome(ITEM2_MEMBER["alpha"], ITEM2_MEMBER["weights"], 0.288289, 0.618165)
    assert {f["defect"] for f in out.failures} == {"norm-undershoot"}
    assert out.deficit == pytest.approx(8.41e-3, abs=1e-5)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "roundtrip",
                           "--seed", "1", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_speed_scaling_uses_the_local_probe_and_ignores_one_outlier():
    ref = speed.REFERENCE_S
    assert speed.scale([1.0, 2.0], [2 * ref] * 3) == [0.5, 1.0]
    probes = [ref] * 8
    probes[3] = 10 * ref  # one disturbed probe
    assert speed.scale([1.0] * 7, probes) == [1.0] * 7
    with pytest.raises(ValueError):
        speed.scale([1.0], [ref])
    with speed.SpeedProbe(2) as probe:
        assert 0 < probe.sample() < 1
