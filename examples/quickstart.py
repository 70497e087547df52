#!/usr/bin/env python
"""Quickstart: optimize an offloaded loop with COMP and watch it run.

Takes the paper's running example — a blackscholes-style loop offloaded
to the coprocessor — applies the data streaming transformation, prints
the before/after source (the Figure 5 rewrite), and executes both
versions on the simulated machine to show the speedup and the device
memory saving.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import CompOptimizer, parse, to_source
from repro.runtime.executor import Machine, run_program

SOURCE = """
void main() {
#pragma offload target(mic:0) in(sptprice : length(n)) in(strike : length(n)) in(n) out(prices : length(n))
#pragma omp parallel for
    for (int i = 0; i < n; i++) {
        prices[i] = sqrt(sptprice[i] * strike[i]) * 0.5 + log(strike[i] + 1.0);
    }
}
"""

N = 4096
#: Simulate the paper-scale input (10^7 options) while executing 4096.
SCALE = 1.0e7 / N


def make_arrays():
    rng = np.random.default_rng(7)
    return {
        "sptprice": (rng.random(N) * 100 + 1).astype(np.float32),
        "strike": (rng.random(N) * 100 + 1).astype(np.float32),
        "prices": np.zeros(N, dtype=np.float32),
    }


def main() -> None:
    print("=== original source ===")
    print(SOURCE.strip())

    program = parse(SOURCE)
    result = CompOptimizer().optimize(program)
    print("\n=== applied optimizations ===")
    for report in result.reports:
        status = "applied" if report.applied else f"skipped ({report.reason})"
        print(f"  {report.name}: {status}")
        for detail in report.details:
            print(f"    - {detail}")

    print("\n=== transformed source (Figure 5 shape) ===")
    print(to_source(program))

    baseline_machine = Machine(scale=SCALE)
    baseline = run_program(
        SOURCE, arrays=make_arrays(), scalars={"n": N}, machine=baseline_machine
    )
    streamed_machine = Machine(scale=SCALE)
    streamed = run_program(
        program, arrays=make_arrays(), scalars={"n": N}, machine=streamed_machine
    )

    assert np.array_equal(baseline.array("prices"), streamed.array("prices")), (
        "transformed program must compute identical results"
    )

    t0, t1 = baseline.stats.total_time, streamed.stats.total_time
    m0 = baseline.stats.device_peak_bytes
    m1 = streamed.stats.device_peak_bytes
    print("=== simulated execution (paper-scale input) ===")
    print(f"unoptimized offload : {t0 * 1000:8.2f} ms, "
          f"device peak {m0 / 2**20:7.1f} MiB")
    print(f"with data streaming : {t1 * 1000:8.2f} ms, "
          f"device peak {m1 / 2**20:7.1f} MiB")
    print(f"speedup {t0 / t1:.2f}x, memory reduced by {1 - m1 / m0:.0%}")
    print("outputs verified identical.")

    from repro.experiments.report import render_gantt

    print("\n=== pipeline timeline, unoptimized (Figure 5(d) top) ===")
    print(render_gantt(baseline_machine.timeline,
                       ["dma:h2d", "mic", "dma:d2h"]))
    print("\n=== pipeline timeline, streamed (Figure 5(d) bottom) ===")
    print(render_gantt(streamed_machine.timeline,
                       ["dma:h2d", "mic", "dma:d2h"]))


if __name__ == "__main__":
    main()
