"""A smoke run of the benchmark in perfbench/: its environment record, one
untraced pass of each workload at seed 1 and one traced pass of norms-small.
Every name of galpha that an untraced benchmark run reads is read here, so
deleting one fails this test before it fails every benchmark run, and every
operation's output must pass the benchmark's own checks; the traced
pass fails where the tracer's hooks no longer reach the norm search.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """perfbench's run and workloads modules, imported from its directory,
    and galpha as run imports it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setenv("GALPHA_THREADS", "1")
    run = importlib.import_module("run")
    return run, importlib.import_module("workloads"), run.import_galpha()


def test_environment_record(bench):
    run, _, galpha = bench
    env = run.environment(galpha)
    assert env["GALPHA_THREADS"] == "1" and env["galpha_threads_effective"] == 1


def test_one_pass_of_each_workload(bench, tmp_path):
    run, workloads, galpha = bench
    assert workloads.WORKLOADS
    for name, workload in workloads.WORKLOADS.items():
        inputs, directory = workload.generate(1), tmp_path / name
        directory.mkdir()
        workload.write(inputs, directory)
        record = run.Pass()
        for op in workload.prepare(inputs, directory, galpha):
            record.run(op)
        assert record.latencies and record.unexpected == record.failed == 0, (
            name, record.failures)


def test_traced_pass_reaches_the_norm_search(bench, tmp_path):
    # the tracer binds sup_norm_estimate's objective and grid by name and
    # counts the kernels under their names; it puts every function back
    run, workloads, galpha = bench
    norms = galpha.schwarz.norms
    workload = workloads.WORKLOADS["norms-small"]
    inputs = workload.generate(1)
    workload.write(inputs, tmp_path)
    ops = workload.prepare(inputs, tmp_path, galpha)
    record, metrics, _ = run.traced(ops, galpha, tmp_path / "spans.json")
    assert record.unexpected == 0, record.failures
    for name in ("complexfn.objective.calls", "complexfn.grid_sweep.ops_computed",
                 "schwarz.schwarzian.calls", "schwarz.pre_schwarzian.calls",
                 "family.hprime_log_derivative.calls"):
        assert metrics[name][0] > 0, name
    assert galpha.schwarz.norms is norms
