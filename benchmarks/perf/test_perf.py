"""Tests of the performance benchmark itself.

Run from the repository root: ``PYTHONPATH=src python -m pytest benchmarks/perf -q``.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

from benchmarks.perf import golden, harness, workloads
from benchmarks.perf.harness import E2E_METRICS, LAYER_METRICS, ROOT, WORKLOAD_NAMES
from benchmarks.perf.layers import E2E_ENTRIES, LAYER_ENTRIES, Recorder
from benchmarks.perf.stats import median, nearest_rank, tail_percentile
from benchmarks.perf.workloads import (
    SERVICE_RATE, ChaosWorkload, ProgramWorkload, ServiceWorkload,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


# -- statistics -----------------------------------------------------------------


def test_nearest_rank_percentile():
    values = list(range(10, 0, -1))
    assert nearest_rank(values, 10) == 1
    assert nearest_rank(values, 50) == 5
    assert nearest_rank(values, 90) == 9
    assert nearest_rank(values, 91) == 10
    assert nearest_rank(values, 100) == 10
    with pytest.raises(ValueError):
        nearest_rank([], 50)


@pytest.mark.parametrize(
    "n, p", [(10_000, 99.9), (1000, 99), (1009, 99), (100, 90), (92, 89), (19, 50)]
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, p):
    values = [float(v) for v in range(1, n + 1)]
    got_p, got = tail_percentile(values)
    assert got_p == p
    assert got == nearest_rank(values, p)
    if n >= 20:
        assert n - got >= 10  # values are their own ranks


# -- declarations ---------------------------------------------------------------


def test_metric_names_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == E2E_METRICS
    assert declared_layer == LAYER_METRICS
    for name in [*declared_e2e, *declared_layer, *WORKLOAD_NAMES]:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("trace, declared", [("0", E2E_METRICS), ("1", LAYER_METRICS)])
def test_printed_metrics_are_exactly_the_declared_ones(trace, declared):
    proc = _bench("run", "--workload", "vector-kernels", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"] == {
        name: {"value": result["metrics"][name]["value"], "unit": unit}
        for name, unit in declared.items()
    }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "benchmarks" / "perf", tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "run", "--workload", "suite",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- tracing and checking -------------------------------------------------------


def _originals():
    return {
        (id(owner), attr): vars(owner)[attr]
        for owner, attr, *_ in E2E_ENTRIES + LAYER_ENTRIES
    }


def test_recorder_restores_wrapped_attributes_on_error():
    before = _originals()
    with pytest.raises(RuntimeError):
        with Recorder(traced=True):
            assert _originals() != before
            raise RuntimeError("boom")
    assert _originals() == before


def test_traced_run_restores_attributes_and_keeps_golden_digests():
    before = _originals()
    checker = golden.Checker(golden.load(0))
    workload = ProgramWorkload(["blackscholes", "streamcluster"], 0, checker)
    workload.setup()
    m, layers, recorder = workload.measure(0.2, traced=True)
    assert _originals() == before
    assert m.attempted >= 12 and checker.failed == 0, checker.errors
    assert layers["codegen.loops"] > 0 and layers["coi.calls"] > 0
    assert layers["trace.exec_coverage"] == pytest.approx(1.0, abs=0.05)
    assert recorder.tracer.spans


def test_corrupted_golden_program_counts_as_error():
    reference = copy.deepcopy(golden.load(0))
    reference["programs"]["blackscholes/opt"]["total_time"] = float.hex(1.0)
    checker = golden.Checker(reference)
    workload = ProgramWorkload(["blackscholes"], 0, checker)
    workload.setup()
    m, _, _ = workload.measure(0.01, traced=False)
    assert checker.failed >= 1
    assert checker.failed / m.attempted > 0


def test_corrupted_golden_campaign_counts_as_error():
    reference = copy.deepcopy(golden.load(0))
    reference["campaign"]["digest"] = "0" * 64
    checker = golden.Checker(reference)
    workload = ChaosWorkload(0, checker)
    workload.setup()
    workload.measure(0.01, traced=False)
    assert checker.errors == ["campaign: output differs from the reference"]


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs a pool worker core")
def test_short_service_open_loop_has_no_errors():
    checker = golden.Checker(None)
    workload = ServiceWorkload(0, checker)
    workload.setup()
    try:
        m, layers, _ = workload.measure(2.0, traced=False)
    finally:
        workload.close()
    assert checker.failed == 0, checker.errors
    latency = {
        how: [s for key, samples in m.op_s.items() if key.endswith(how) for s in samples]
        for how in ("/executed", "/stored")
    }
    assert m.attempted > 100 and latency["/executed"] and latency["/stored"]
    assert median(latency["/stored"]) < median(latency["/executed"])
    assert layers["service.latency_ms_p50"] > 0
    assert 0 < layers["service.store_hit_ratio"] < 1
    assert m.e2e()["compile_s"] > 0


def test_sessions_repeat_about_half_of_all_keys():
    workload = ServiceWorkload(0, golden.Checker(None))
    schedule = workload._schedule(20.0)
    keys = [spec.key_sha() for _, spec in schedule]
    assert len(schedule) == pytest.approx(20.0 * SERVICE_RATE, rel=0.1)
    assert 1 - len(set(keys)) / len(keys) == pytest.approx(0.5, abs=0.05)
    assert all(b > a for (a, _), (b, _) in zip(schedule, schedule[1:]))


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs a pool worker core")
def test_late_generator_makes_the_run_invalid(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "MAX_GEN_LAG_MS", 0.0)
    status = harness.measure("service-openloop", 0, 1.0, False, time.monotonic(), False)
    assert status == harness.EXIT_INVALID
    assert '"metrics"' not in capsys.readouterr().out


def test_runner_passes_on_the_invalid_exit_code(monkeypatch, tmp_path):
    invalid = tmp_path / "invalid-child"
    invalid.write_text(f"#!/bin/sh\nexit {harness.EXIT_INVALID}\n")
    invalid.chmod(0o755)
    monkeypatch.setattr(sys, "executable", str(invalid))
    assert harness.run(["suite"], 0, 1.0, False) == harness.EXIT_INVALID
