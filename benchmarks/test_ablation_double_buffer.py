"""Ablation: double-buffering on/off — device memory versus time.

The memory-usage optimization (Section III-B) keeps two block buffers
per streamed input instead of full-size device arrays.  It should slash
peak device memory without costing time.
"""

import dataclasses

from benchmarks.conftest import emit
from repro.experiments.report import render_table
from repro.runtime.executor import Machine
from repro.transforms.streaming import StreamingOptions
from repro.workloads.suite import get_workload


def run_variant(double_buffer: bool):
    workload = get_workload("blackscholes")
    workload.plan = dataclasses.replace(
        workload.plan,
        streaming_options=StreamingOptions(
            num_blocks=20, double_buffer=double_buffer
        ),
    )
    run = workload.run("opt", machine=Machine(scale=workload.sim_scale))
    return run.time, run.stats.device_peak_bytes


def test_double_buffer_memory_vs_time(benchmark):
    def measure():
        return {flag: run_variant(flag) for flag in (False, True)}

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    (t_full, mem_full), (t_db, mem_db) = results[False], results[True]
    emit(
        render_table(
            ["variant", "time", "device peak"],
            [
                ["full device arrays", f"{t_full*1000:.2f} ms", f"{mem_full/2**20:.1f} MiB"],
                ["double-buffered", f"{t_db*1000:.2f} ms", f"{mem_db/2**20:.1f} MiB"],
            ],
        )
    )
    # Figure 13's effect: >80% memory reduction at (approximately) no cost.
    assert mem_db < 0.2 * mem_full
    assert t_db < t_full * 1.1
