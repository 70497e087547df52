"""Tests for the job model: provenance keys, wire format, execution parity."""

import dataclasses

import numpy as np
import pytest

from repro.runtime.executor import Machine, run_program
from repro.service.jobs import (
    JobSpec,
    digest_array,
    digest_arrays,
    execute_job,
    parse_array_spec,
    parse_scalar_spec,
)

SOURCE = """
void main() {
#pragma offload target(mic:0) in(A : length(n)) in(n) out(B : length(n))
#pragma omp parallel for
    for (int i = 0; i < n; i++) {
        B[i] = A[i] * 2.0;
    }
}
"""


def run_spec():
    return JobSpec(
        kind="run",
        source=SOURCE,
        arrays=("A=32:float:arange", "B=32:float:zeros"),
        scalars=("n=32",),
        seed=0,
    )


class TestParsers:
    def test_array_spec_kinds(self):
        rng = np.random.default_rng(0)
        name, value = parse_array_spec("X=8:float:arange", rng)
        assert name == "X"
        assert np.array_equal(value, np.arange(8, dtype=np.float32))

    def test_array_spec_errors_name_the_spec(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="X"):
            parse_array_spec("X", rng)
        with pytest.raises(ValueError, match="not an integer"):
            parse_array_spec("X=lots", rng)
        with pytest.raises(ValueError, match="fibonacci"):
            parse_array_spec("X=8:float:fibonacci", rng)

    def test_array_spec_checks_dtype_kind_and_size(self):
        rng = np.random.default_rng(0)
        for spec, needle in (
            ("X=8:quad", "dtype 'quad'"),
            ("X=-1", "negative"),
            ("X=8:float:zeros:more", "NAME=SIZE"),
        ):
            with pytest.raises(ValueError, match=f"bad --array spec.*{needle}"):
                parse_array_spec(spec, rng)
        name, value = parse_array_spec("X=3:int:ones", rng)
        assert value.dtype == np.int32 and value.tolist() == [1, 1, 1]

    def test_scalar_spec(self):
        assert parse_scalar_spec("n=8") == ("n", 8)
        assert parse_scalar_spec("x=0.5") == ("x", 0.5)
        with pytest.raises(ValueError, match="not a number"):
            parse_scalar_spec("n=eight")


class TestDigests:
    def test_digest_covers_dtype_shape_and_bytes(self):
        a = np.arange(8, dtype=np.float32)
        assert digest_array(a) == digest_array(a.copy())
        assert digest_array(a) != digest_array(a.astype(np.float64))
        b = a.copy()
        b[3] += 1
        assert digest_array(a) != digest_array(b)

    def test_digest_arrays_sorted(self):
        arrays = {"b": np.zeros(2), "a": np.ones(2)}
        assert list(digest_arrays(arrays)) == ["a", "b"]


class TestJobSpec:
    def test_key_excludes_scheduling_hints(self):
        base = run_spec()
        hinted = dataclasses.replace(base, priority=0, tenant="other")
        assert base.key() == hinted.key()
        assert base.key_id() == hinted.key_id()

    def test_key_includes_execution_fields(self):
        base = run_spec()
        assert base.key() != dataclasses.replace(base, seed=1).key()
        assert base.key() != dataclasses.replace(base, optimize=True).key()
        assert base.key() != dataclasses.replace(base, devices=2).key()

    def test_dict_roundtrip(self):
        spec = JobSpec(
            kind="faults", workload="hotspot", scenario=1, seed=3,
            rates=(("kernel", 0.01),), policy=(("max_retries", 5),),
        )
        assert JobSpec.from_dict(spec.as_dict()) == spec
        assert JobSpec.from_dict(spec.as_dict()).key() == spec.key()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="bogus"):
            JobSpec.from_dict({"kind": "bench", "bogus": 1})

    def test_validate_names_offending_field(self):
        with pytest.raises(ValueError, match="kind"):
            JobSpec(kind="mystery").validate()
        with pytest.raises(ValueError, match="engine"):
            JobSpec(
                kind="bench", workload="hotspot", engine="warp"
            ).validate()
        with pytest.raises(ValueError, match="devices"):
            dataclasses.replace(run_spec(), devices=0).validate()
        with pytest.raises(ValueError, match="workload"):
            JobSpec(kind="bench", workload="nope").validate()
        with pytest.raises(ValueError, match="source"):
            JobSpec(kind="run", source=None).validate()


    def test_validate_rejects_negative_seed(self):
        # numpy refuses a negative seed, so such a job could only fail.
        for spec in (
            dataclasses.replace(run_spec(), seed=-1),
            JobSpec(kind="bench", workload="nn", seed=-1),
        ):
            with pytest.raises(ValueError, match="--seed must be >= 0"):
                spec.validate()


class TestExecuteParity:
    def test_run_job_matches_direct_execution(self):
        # The tentpole invariant: a service job's outputs and op
        # counters are bit-identical to running the same program
        # directly (what `repro run` does).
        result = execute_job(run_spec().as_dict())

        rng = np.random.default_rng(0)
        arrays = dict(
            parse_array_spec(s, rng)
            for s in ("A=32:float:arange", "B=32:float:zeros")
        )
        from repro.minic.parser import parse

        machine = Machine()
        direct = run_program(
            parse(SOURCE), arrays=arrays, scalars={"n": 32}, machine=machine
        )
        assert result["ok"]
        assert result["outputs"] == digest_arrays(machine.host.arrays)
        assert result["sim_time"] == direct.stats.total_time
        assert result["stats"]["ops"] == dataclasses.asdict(direct.stats.ops)

    def test_execute_is_deterministic(self):
        payload = run_spec().as_dict()
        assert execute_job(payload) == execute_job(payload)

    def test_faults_job_matches_direct_cell(self):
        from repro.faults.campaign import scenario_cell
        from repro.faults.policy import ResiliencePolicy

        spec = JobSpec(
            kind="faults", workload="hotspot", scenario=0, seed=5,
            rates=(("kernel", 0.05),),
        )
        result = execute_job(spec.as_dict())
        outcome = scenario_cell(
            "hotspot", 0, 5, "opt", None, {"kernel": 0.05},
            ResiliencePolicy(), None, 1,
        )
        assert result["outcome"] == outcome.as_dict()
        assert result["fault_stats"] == outcome.stats.as_dict()
        assert result["ok"] == outcome.ok

    def test_traced_run_returns_events(self):
        spec = dataclasses.replace(run_spec(), trace=True)
        result = execute_job(spec.as_dict())
        events = result["trace_events"]
        assert events
        assert all("ph" in event for event in events)


class TestSinglePath:
    """``repro run`` is a run job: the CLI builds the spec ``submit``
    sends and executes it with the function the service uses."""

    FLAGS = [
        "--array", "A=32:float:random", "--array", "B=32:double:zeros",
        "--scalar", "n=32", "--seed", "9", "--scale", "2.5", "--optimize",
        "--engine", "tree", "--devices", "2",
    ]

    def test_run_and_submit_build_equal_specs(self, tmp_path, monkeypatch):
        from repro.cli import main
        from repro.service import jobs, server

        path = tmp_path / "prog.c"
        path.write_text(SOURCE)
        built = {}
        run_job = jobs.run_job

        def capture_run(spec, machine):
            built["run"] = spec
            return run_job(spec, machine)

        def capture_submit(host, port, spec, timeout):
            built["submit"] = spec
            return [{"event": "done", "ok": True}]

        monkeypatch.setattr(jobs, "run_job", capture_run)
        monkeypatch.setattr(server, "submit", capture_submit)
        assert main(["run", str(path), *self.FLAGS]) == 0
        assert main([
            "submit", "--kind", "run", "--file", str(path), *self.FLAGS,
        ]) == 0
        assert built["run"] == built["submit"]
        assert built["run"].key_sha() == built["submit"].key_sha()

    def test_run_function_digests_match_execute_job(self):
        from repro.service.jobs import run_job

        spec = dataclasses.replace(
            run_spec(), arrays=("A=32:float:random", "B=32:float:zeros"),
            seed=4, optimize=True,
        )
        machine = Machine(scale=spec.scale, devices=spec.devices)
        result = run_job(spec, machine)
        payload = execute_job(spec.as_dict())
        assert payload["outputs"] == digest_arrays(machine.host.arrays)
        assert payload["sim_time"] == result.stats.total_time

    def test_validate_allocates_nothing(self, monkeypatch):
        # The service validates on its event loop: array specs are
        # checked as text, never filled.
        from repro.service import jobs

        def allocate(*args, **kwargs):
            raise AssertionError("validate allocated an array")

        monkeypatch.setattr(jobs, "parse_array_spec", allocate)
        monkeypatch.setattr(jobs, "_FILLS", dict.fromkeys(jobs._FILLS, allocate))
        monkeypatch.setattr(np.random, "default_rng", allocate)
        spec = dataclasses.replace(
            run_spec(), arrays=("A=1000000000:double:zeros", "B=8")
        )
        spec.validate()


#: ``key_sha()`` of fixed specs as recorded before the CLI ran through
#: the job layer: journals and segment stores on disk are keyed on it.
PINNED_KEYS = {
    "run": (
        JobSpec(
            kind="run",
            source="void main() { for (int i = 0; i < n; i++) "
                   "{ B[i] = A[i] * 2.0; } }\n",
            arrays=("A=16:float:arange", "B=16:float:zeros"),
            scalars=("n=16",), optimize=True, scale=2.0, seed=3,
            engine="codegen", devices=2,
        ),
        "45d9a237d69b27c344a685addc9e04c156d5eeaf90ba5ba446c2fd1364affc00",
    ),
    "bench": (
        JobSpec(kind="bench", workload="nn", seed=4, engine="tree", devices=1),
        "4d039e564c19dc3483b6eb13ea7dafffe4269f4d9542a0dfdf7bec3806d41cc6",
    ),
    "faults": (
        JobSpec(
            kind="faults", workload="hotspot", variant="mic", scenario=1,
            seed=5, devices=2, rates=(("kernel", 0.05), ("dev1:h2d", 0.1)),
            policy=(("checkpoint_interval", 4), ("max_resets", 2)),
        ),
        "124ba860dec624f3df32255ee8488207493016aa1274187bd680c5f2a82bf204",
    ),
}


@pytest.mark.parametrize("kind", list(PINNED_KEYS))
def test_provenance_key_is_pinned(kind):
    spec, sha = PINNED_KEYS[kind]
    spec.validate()
    assert spec.key_sha() == sha
