"""Tests for the persistent result store and crash-restart recovery.

Covers the durability tentpole end to end: segment spill/reload with
checksum verification (corrupt entries dropped, counted, never served),
segment rotation and last-write-wins, clear() wiping disk state, and a
:class:`CampaignService` restarted on a populated state dir re-admitting
journaled jobs and warming its store instead of recomputing.
"""

import asyncio
import os

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.jobs import JobSpec
from repro.service.journal import JobJournal, encode_record
from repro.service.persist import PersistentResultStore
from repro.service.service import CampaignService

SOURCE = """
void main() {
#pragma offload target(mic:0) in(A : length(n)) in(n) out(B : length(n))
#pragma omp parallel for
    for (int i = 0; i < n; i++) {
        B[i] = A[i] * 2.0;
    }
}
"""


def run_spec(size=16, **overrides):
    fields = dict(
        kind="run",
        source=SOURCE,
        arrays=(f"A={size}:float:arange", f"B={size}:float:zeros"),
        scalars=(f"n={size}",),
        seed=0,
    )
    fields.update(overrides)
    return JobSpec(**fields)


def run_service(coro_fn, **service_kwargs):
    async def scenario():
        service = CampaignService(**service_kwargs)
        await service.start()
        try:
            return await coro_fn(service)
        finally:
            await service.close()

    return asyncio.run(scenario())


class TestSpillAndLoad:
    def test_roundtrip(self, tmp_path):
        root = tmp_path / "results"
        store = PersistentResultStore(root, sync="always")
        store.put("k1", {"ok": True, "n": 1})
        store.put("k2", {"ok": True, "n": 2})
        store.close()

        warmed = PersistentResultStore(root)
        recovered, dropped = warmed.load()
        assert (recovered, dropped) == (2, 0)
        assert warmed.get("k1") == {"ok": True, "n": 1}
        assert warmed.get("k2") == {"ok": True, "n": 2}
        warmed.close()

    def test_non_string_keys_rejected(self, tmp_path):
        store = PersistentResultStore(tmp_path / "r")
        with pytest.raises(TypeError, match="sha strings"):
            store.put(("tuple", "key"), 1)
        store.close()

    def test_corrupt_entry_dropped_counted_never_served(self, tmp_path):
        root = tmp_path / "results"
        store = PersistentResultStore(root, sync="always")
        store.put("good", {"n": 1})
        store.put("bad", {"n": 2})
        store.close()
        (segment,) = [
            os.path.join(root, n) for n in sorted(os.listdir(root))
        ]
        with open(segment, "rb") as fh:
            lines = fh.readlines()
        damaged = bytearray(lines[1])
        damaged[10] ^= 0x40
        with open(segment, "wb") as fh:
            fh.write(lines[0] + bytes(damaged))

        metrics = MetricsRegistry()
        warmed = PersistentResultStore(root, metrics=metrics, name="svc")
        recovered, dropped = warmed.load()
        assert (recovered, dropped) == (1, 1)
        assert warmed.get("good") == {"n": 1}
        assert warmed.get("bad") is None  # never served
        counters = metrics.snapshot()["counters"]
        assert counters["svc.recovered"] == 1
        assert counters["svc.dropped_corrupt"] == 1
        stats = warmed.cache_stats()
        assert stats["persistent"] and stats["dropped_corrupt"] == 1
        warmed.close()

    def test_truncated_tail_entry_dropped(self, tmp_path):
        root = tmp_path / "results"
        store = PersistentResultStore(root, sync="always")
        store.put("k1", 1)
        store.put("k2", 2)
        store.close()
        (segment,) = [
            os.path.join(root, n) for n in sorted(os.listdir(root))
        ]
        raw = open(segment, "rb").read()
        with open(segment, "wb") as fh:
            fh.write(raw[:-5])  # crash mid-write of the final entry
        warmed = PersistentResultStore(root)
        assert warmed.load() == (1, 1)
        assert warmed.get("k2") is None
        warmed.close()

    def test_rotation_and_last_write_wins(self, tmp_path):
        root = tmp_path / "results"
        store = PersistentResultStore(root, segment_entries=2, sync="always")
        for i in range(5):
            store.put(f"k{i % 2}", i)  # rewrites k0/k1 across segments
        store.close()
        assert len(os.listdir(root)) == 3  # rotated every 2 entries
        warmed = PersistentResultStore(root)
        assert warmed.load() == (2, 0)
        assert warmed.get("k0") == 4  # the latest write for each key
        assert warmed.get("k1") == 3
        warmed.close()

    def test_fresh_generation_gets_fresh_segment(self, tmp_path):
        root = tmp_path / "results"
        first = PersistentResultStore(root)
        first.put("k", 1)
        first.close()
        second = PersistentResultStore(root)
        second.put("k", 2)
        second.close()
        names = sorted(os.listdir(root))
        assert names == ["results-00000.seg", "results-00001.seg"]

    def test_clear_wipes_segments(self, tmp_path):
        root = tmp_path / "results"
        store = PersistentResultStore(root)
        store.put("k", 1)
        store.clear()
        assert os.listdir(root) == []
        assert store.clears == 1
        # The store keeps working after the wipe.
        store.put("k2", 2)
        store.close()
        warmed = PersistentResultStore(root)
        assert warmed.load() == (1, 0)
        assert warmed.get("k") is None
        warmed.close()

    def test_load_respects_lru_bound(self, tmp_path):
        root = tmp_path / "results"
        store = PersistentResultStore(root, sync="always")
        for i in range(6):
            store.put(f"k{i}", i)
        store.close()
        warmed = PersistentResultStore(root, max_entries=2)
        recovered, dropped = warmed.load()
        assert (recovered, dropped) == (6, 0)
        assert len(warmed) == 2
        # Most recently persisted survive the bound.
        assert warmed.get("k5") == 5 and warmed.get("k4") == 4
        warmed.close()


class TestServiceRecovery:
    def test_cold_state_dir_runs_clean(self, tmp_path):
        state = str(tmp_path / "state")

        async def scenario(service):
            job = service.submit(run_spec())
            return await service.result(job)

        result = run_service(scenario, state_dir=state)
        assert result["ok"]
        # The journal recorded accept + terminal; the store spilled.
        assert os.path.exists(os.path.join(state, "journal.jsonl"))
        assert os.listdir(os.path.join(state, "results"))

    def test_restart_recovers_results_and_pending_jobs(self, tmp_path):
        state = str(tmp_path / "state")
        finished = run_spec(size=16)
        pending = run_spec(size=32)

        async def first_run(service):
            job = service.submit(finished)
            return await service.result(job)

        run_service(first_run, state_dir=state, sync="always")

        # Simulate a crash that lost the pending job's execution: append
        # an accepted record with no terminal to the journal by hand.
        journal = JobJournal(
            os.path.join(state, "journal.jsonl"), sync="always"
        )
        journal.append_accepted(pending.key_sha(), pending.as_dict())
        journal.close()

        async def second_run(service):
            assert service.recovery["recovered_results"] >= 1
            assert service.recovery["recovered_jobs"] == 1
            assert service.recovery["dropped_corrupt"] == 0
            # The finished job's result serves from the warmed store
            # without recomputation (a recorded cache hit).
            job = service.submit(finished)
            result = await service.result(job)
            assert job.cached
            await service.drain()  # let the re-admitted job finish
            return result, service.metrics.snapshot()["counters"]

        result, counters = run_service(second_run, state_dir=state)
        assert result["ok"]
        assert counters["service.jobs.recovered"] == 1
        assert counters["service.durability.recovered_jobs"] == 1
        assert counters["service.store.hits"] >= 1

        # Third generation: the recovered job finished and journaled a
        # terminal record, so nothing is pending any more.
        async def third_run(service):
            return dict(service.recovery)

        recovery = run_service(third_run, state_dir=state)
        assert recovery["recovered_jobs"] == 0
        assert recovery["recovered_results"] >= 2

    def test_cold_start_warms_every_stored_result(self, tmp_path):
        # A crashed server's state: every job's result is in the segments,
        # half the jobs never journaled a terminal record.  Recovery warms
        # every result, re-admits exactly the pending half, drops nothing.
        state = str(tmp_path / "state")
        journal = JobJournal(os.path.join(state, "journal.jsonl"), sync="off")
        store = PersistentResultStore(os.path.join(state, "results"), sync="off")
        jobs = 8
        for i in range(jobs):
            spec = run_spec(seed=i)
            key = spec.key_sha()
            journal.append_accepted(key, spec.as_dict())
            store.put(key, {"ok": True, "sim_time": 0.0, "kind": "run",
                            "label": f"cold-{i}"})
            if i % 2 == 0:
                journal.append_terminal(key, "done")
        journal.close()
        store.close()

        async def scenario(service):
            await service.drain()
            return dict(service.recovery)

        recovery = run_service(scenario, workers=0, state_dir=state, sync="off")
        assert recovery["dropped_corrupt"] == 0
        assert recovery["recovered_jobs"] == jobs // 2
        assert recovery["recovered_results"] == jobs

    def test_corrupt_journal_spec_dropped_not_fatal(self, tmp_path):
        state = str(tmp_path / "state")
        os.makedirs(state)
        with open(os.path.join(state, "journal.jsonl"), "wb") as fh:
            fh.write(encode_record({
                "record": "accepted",
                "key": "deadbeef",
                "spec": {"kind": "bench", "workload": "no-such-workload"},
            }))
            fh.write(b"truncated garbage")

        async def scenario(service):
            return dict(service.recovery)

        recovery = run_service(scenario, state_dir=state)
        # Both the invalid spec and the truncated line are dropped and
        # counted; startup neither raises nor wedges.
        assert recovery["recovered_jobs"] == 0
        assert recovery["dropped_corrupt"] == 2

    def test_malformed_specs_rejected_before_the_journal(self, tmp_path):
        # Specs only a worker could fail on are refused at submit: never
        # journaled, never dispatched, and never counted against the
        # tenant's circuit breaker.
        from repro.service.journal import replay_journal

        state = str(tmp_path / "state")
        malformed = [
            JobSpec(kind="faults", workload="nn", rates=(("bogus", 0.1),)),
            JobSpec(kind="faults", workload="nn",
                    policy=(("no_such_knob", 1),)),
            run_spec(arrays=("A=abc",)),
        ]

        async def scenario(service):
            for spec in malformed:
                with pytest.raises(ValueError, match="--rate|--policy|--array"):
                    service.submit(spec)
            return service.snapshot()

        snapshot = run_service(
            scenario, workers=0, state_dir=state, breaker_failures=1
        )
        counters = snapshot["metrics"]["counters"]
        assert counters.get("service.jobs.submitted", 0) == 0
        assert counters.get("service.jobs.failed", 0) == 0
        assert snapshot["tenants"] == {}  # no breaker saw a failure
        replay = replay_journal(os.path.join(state, "journal.jsonl"))
        assert replay.accepted == 0

    def test_pending_spec_that_no_longer_validates_dropped(self, tmp_path):
        # A spec journaled before the validator checked fault rates can
        # never run: recovery drops and counts it instead of re-admitting.
        state = str(tmp_path / "state")
        stale = JobSpec(kind="faults", workload="nn", rates=(("bogus", 0.1),))
        journal = JobJournal(os.path.join(state, "journal.jsonl"), sync="off")
        journal.append_accepted(stale.key_sha(), stale.as_dict())
        journal.close()

        async def scenario(service):
            return dict(service.recovery)

        recovery = run_service(scenario, workers=0, state_dir=state)
        assert recovery["recovered_jobs"] == 0
        assert recovery["dropped_corrupt"] == 1

    def test_snapshot_reports_durability(self, tmp_path):
        state = str(tmp_path / "state")

        async def scenario(service):
            return service.snapshot()

        snap = run_service(scenario, state_dir=state)
        assert "durability" in snap
        assert snap["durability"]["journal"]["sync"] == "batch"
        assert snap["durability"]["recovery"]["recovered_jobs"] == 0

    def test_no_state_dir_means_no_durability(self, tmp_path):
        async def scenario(service):
            return service.snapshot()

        snap = run_service(scenario)
        assert "durability" not in snap
