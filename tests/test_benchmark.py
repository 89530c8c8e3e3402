"""A smoke run of the benchmark in perfbench/: its environment record and one
untraced pass of each workload at seed 1.  Every name of galpha that an
untraced benchmark run reads is read here, so deleting one fails this test
before it fails every benchmark run.
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
        assert record.latencies and record.unexpected == 0, (name, record.failures)
