"""The benchmark's own checks: it finishes, prints exactly what
``BENCHMARK.json`` declares, counts wrong outputs and refusals as
failures, and survives the deletion of a probed function."""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from bench import spec as specmod
from bench.__main__ import main
from bench.compare import verdict
from bench.trace import Recorder, resolve

SPEC = specmod.load()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(capsys, *argv):
    """Run one workload in this process; returns the driver line."""
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_smoke_runs_every_workload_within_20_seconds(tmp_path):
    out = tmp_path / "set.json"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--smoke", "--seed", "7", "--out", str(out)],
        cwd=specmod.ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 20.0, f"smoke run took {elapsed:.1f} s"
    summary = done.stdout.strip().splitlines()[-1]
    assert summary.endswith('"claim": null}')
    runs = json.loads(out.read_text())["runs"]
    assert [r["workload"] for r in runs] == WORKLOADS
    declared = set(specmod.declared(SPEC, trace=False))
    for record in runs:
        assert set(record["metrics"]) == declared
        assert record["failed"] == 0 and record["attempted"] >= 1, record["failures"]
        assert {"nproc", "python", "numpy", "loadavg"} <= set(record["env"])
        assert {"before_s", "after_s", "drift"} <= set(record["calibration"])


def test_traced_run_prints_exactly_the_declared_per_layer_names(capsys):
    line = run(capsys, "--workload", "serve-fleet", "--smoke", "--trace", "1")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    declared = specmod.declared(SPEC, trace=True)
    assert set(line["metrics"]) == set(declared)
    assert line["correct"] and line["failed"] == 0
    for name, value in line["metrics"].items():
        assert value["unit"] == declared[name]["unit"]
        assert isinstance(value["value"], float)


def test_wrong_output_counts_as_failure(capsys, monkeypatch):
    import repro

    real = repro.execute

    def corrupt(compiled, inputs):
        result = real(compiled, inputs)
        for array in result.outputs.values():
            array.flat[0] = np.float32(array.flat[0]) + np.float32(1.0)
        return result

    monkeypatch.setattr(repro, "execute", corrupt)
    line = run(capsys, "--workload", "run-plans", "--smoke")
    assert not line["correct"] and line["failed"] >= 2


def test_refused_request_counts_as_failure(capsys, monkeypatch):
    from repro.service import ExecutionService, QueueFullError

    from bench import lifecycle

    class Refusing(ExecutionService):
        calls = 0

        def submit(self, request):
            Refusing.calls += 1
            if Refusing.calls % 9 == 0:
                raise QueueFullError("refused by the test")
            return super().submit(request)

    real = lifecycle.start_service
    monkeypatch.setattr(
        lifecycle, "start_service", lambda spec: Refusing(real(spec).config)
    )
    line = run(capsys, "--workload", "serve-warm", "--smoke")
    assert not line["correct"]
    assert line["failed"] >= Refusing.calls // 9 >= 1


def test_missing_probe_target_reports_absent(capsys, monkeypatch):
    import repro.runtime

    assert resolve("repro.runtime:no_such_function") is None
    assert resolve("repro.no_such_module:anything") is None
    monkeypatch.delattr(repro.runtime, "simulate_plan_overlap")
    line = run(capsys, "--workload", "compile-split", "--smoke", "--trace", "1")
    metrics = line["metrics"]
    assert metrics["runtime.overlap.simulate.us_per_step"]["value"] == specmod.ABSENT
    assert metrics["runtime.executor.simulate.us_per_step"]["value"] > 0
    assert line["correct"]


def test_self_time_is_span_minus_children():
    rec = Recorder()
    with rec.span("parent", op=3):
        with rec.span("child"):
            time.sleep(0.01)
    parent, child = rec.durations("parent")[0], rec.durations("child")[0]
    assert rec.self_times()["parent"] == pytest.approx(parent - child)
    assert [s.op for s in rec.spans] == [3, 3]


def test_compare_says_unresolved_when_spread_exceeds_bound():
    steady = [1.00, 1.01, 0.99, 1.00]
    assert verdict(steady, [1.02, 1.01, 1.03, 1.02], "lower", 0.10)[0] == "unchanged"
    assert verdict(steady, [1.30, 1.28, 1.31, 1.29], "lower", 0.10)[0] == "regressed"
    assert verdict(steady, [0.70, 0.71, 0.69, 0.70], "lower", 0.10)[0] == "improved"
    noisy = [0.8, 1.0, 1.2, 1.4]
    assert verdict(noisy, [0.85, 1.0, 1.25, 1.35], "lower", 0.10)[0] == "unresolved"
    assert verdict(steady, [0.70, 0.71, 0.69, 0.70], "higher", 0.10)[0] == "regressed"
