"""Outside-in performance benchmark of the COMP reproduction.

Run ``python -m benchmarks.perf run --workload NAME`` from the repository
root; see ``benchmarks/perf/README.md``.
"""
