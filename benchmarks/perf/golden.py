"""Golden references the benchmark checks every output against.

``golden/seed{0,1,2}.json`` were recorded with the tree-walking engine,
which shares no code with the codegen and batch tiers the benchmark
normally runs on.  Each file holds, per (workload, variant), the sha256
of the output arrays, the simulated ``total_time`` as ``float.hex``, and
the dynamic ``OpCounters``; plus the digest of the chaos-fleet campaign
outcomes.  Regenerate with ``python -m benchmarks.perf record-golden``.

Service results need no file: the run jobs compute ``B = A*2`` or
``B = A+3`` over ``arange`` inputs, so numpy gives the expectation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.experiments.harness import BenchmarkResult
from repro.service.jobs import digest_arrays

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
#: Seeds ``record-golden`` writes a reference for.
GOLDEN_SEEDS = (0, 1, 2)
GOLDEN_ENGINE = "tree"


def program_entry(run) -> dict:
    """The golden record of one :class:`~repro.workloads.WorkloadRun`."""
    blob = json.dumps(digest_arrays(run.outputs), sort_keys=True).encode()
    return {
        "outputs_sha256": hashlib.sha256(blob).hexdigest(),
        "total_time": float.hex(float(run.stats.total_time)),
        "ops": dataclasses.asdict(run.stats.ops),
    }


def campaign_digest(results: Iterable) -> str:
    """Digest of campaign outcomes (provenance and engine excluded)."""
    outcomes = [o.as_dict() for result in results for o in result.outcomes]
    blob = json.dumps(outcomes, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def golden_path(seed: int) -> Path:
    return GOLDEN_DIR / f"seed{seed}.json"


def load(seed: int) -> Optional[dict]:
    """The golden reference for *seed*, or None when none was recorded."""
    path = golden_path(seed)
    if not path.exists():
        return None
    with open(path) as handle:
        return json.load(handle)


class Checker:
    """Checks pass outputs and counts failures.

    With a golden reference every program must match its entry exactly.
    Without one, each benchmark's cpu, mic and opt outputs must agree
    (the COMP contract, as ``BenchmarkResult.outputs_match`` checks it)
    and every later pass must reproduce the first pass exactly.
    """

    def __init__(self, golden: Optional[dict]) -> None:
        self.golden = golden
        self.failed = 0
        self.errors: List[str] = []
        self._first: Dict[str, object] = {}

    @property
    def mode(self) -> str:
        if self.golden is not None:
            return f"golden reference ({GOLDEN_ENGINE} engine)"
        return "cpu/mic/opt agreement and pass-to-pass repeatability only"

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def _expect(self, key: str, got, want) -> None:
        if got != want:
            self.fail(f"{key}: output differs from the reference")

    def program(self, name: str, variant: str, run) -> None:
        key = f"{name}/{variant}"
        entry = program_entry(run)
        if self.golden is not None:
            self._expect(key, entry, self.golden["programs"].get(key))
        else:
            self._expect(key, entry, self._first.setdefault(key, entry))

    def variants(self, name: str, runs: Dict[str, object]) -> None:
        if self.golden is None and len(runs) == 3:
            if not BenchmarkResult(name=name, runs=runs).outputs_match():
                self.fail(f"{name}: cpu, mic and opt outputs disagree")

    def campaign(self, digest: str) -> None:
        if self.golden is not None:
            self._expect("campaign", digest, self.golden["campaign"]["digest"])
        else:
            self._expect("campaign", digest, self._first.setdefault("campaign", digest))
