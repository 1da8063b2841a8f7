"""Durability and crash-window recovery of the service job store."""

import json

from svc_helpers import journal_entries, tiny_scenario

from repro.service.store import (
    DONE,
    FAILED,
    INTERRUPTED,
    JOB_STORE_SCHEMA,
    QUEUED,
    RUNNING,
    JobStore,
)


class TestAppendAndReplay:
    def test_boot_header_and_transitions_round_trip(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        store.record_queued("a" * 64, tiny_scenario(1), name="tiny-1")
        store.record_running("a" * 64)
        store.record_done("a" * 64, cached=False, simulated=True,
                          fingerprint={"runtime_cycles": 42})
        store.close()

        entries = journal_entries(path)
        assert entries[0] == {"service": JOB_STORE_SCHEMA, "boot": 1}
        assert [e.get("status") for e in entries[1:]] == [QUEUED, RUNNING,
                                                          DONE]

        replayed = JobStore(path)
        job = replayed.get("a" * 64)
        assert job["status"] == DONE
        assert job["simulated"] is True
        assert job["fingerprint"] == {"runtime_cycles": 42}
        assert job["scenario"] == tiny_scenario(1)
        assert replayed.boots == 2
        assert replayed.recoverable() == []
        replayed.close()

    def test_each_crash_window_state_is_recoverable(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        store.record_queued("a" * 64, tiny_scenario(1))           # window 1-2
        store.record_queued("b" * 64, tiny_scenario(2))
        store.record_running("b" * 64)                            # window 2-3
        store.record_queued("c" * 64, tiny_scenario(3))
        store.record_running("c" * 64)
        store.record_done("c" * 64, cached=False, simulated=True)  # complete
        store.record_queued("d" * 64, tiny_scenario(4))
        store.record_interrupted("d" * 64)                        # drained out
        store.close()

        replayed = JobStore(path)
        recoverable = {job["id"]: job["status"]
                       for job in replayed.recoverable()}
        assert recoverable == {"a" * 64: QUEUED, "b" * 64: RUNNING,
                               "d" * 64: INTERRUPTED}
        assert replayed.get("c" * 64)["status"] == DONE
        replayed.close()

    def test_attempts_count_across_lifetimes(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        store.record_queued("a" * 64, tiny_scenario(1))
        assert store.record_running("a" * 64) == 1
        store.close()
        store = JobStore(path)
        assert store.record_running("a" * 64) == 2
        store.close()

    def test_requeue_clears_a_previous_failure(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        store.record_queued("a" * 64, tiny_scenario(1))
        store.record_failed("a" * 64, {"kind": "timeout"})
        store.record_queued("a" * 64, tiny_scenario(1))
        assert store.get("a" * 64)["status"] == QUEUED
        assert "failure" not in store.get("a" * 64)
        store.close()


class TestCorruptionTolerance:
    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        store.record_queued("a" * 64, tiny_scenario(1))
        store.record_running("a" * 64)
        store.close()
        with open(path, "a") as handle:   # the crash-torn final line
            handle.write('{"id": "' + "a" * 64 + '", "status": "do')

        replayed = JobStore(path)
        assert replayed.corrupt_lines == 1
        assert replayed.get("a" * 64)["status"] == RUNNING
        assert [job["id"] for job in replayed.recoverable()] == ["a" * 64]
        replayed.close()

    def test_damaged_middle_line_only_affects_its_transition(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        store.record_queued("a" * 64, tiny_scenario(1))
        store.record_running("a" * 64)
        store.record_done("a" * 64, cached=False, simulated=True)
        store.close()

        lines = path.read_text().splitlines()
        assert '"status":"done"' in lines[-1]
        lines[-1] = lines[-1][:-7]        # tear the done record mid-line
        path.write_text("\n".join(lines) + "\n")

        replayed = JobStore(path)
        assert replayed.corrupt_lines == 1
        # The job replays at its last durable state and is re-enqueued.
        assert replayed.get("a" * 64)["status"] == RUNNING
        replayed.close()

    def test_corrupt_tail_hook_tears_the_last_record(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        store.record_queued("a" * 64, tiny_scenario(1))
        store.log.corrupt_tail()
        store.record_queued("b" * 64, tiny_scenario(2))
        store.close()

        raw_lines = path.read_text().splitlines()
        parseable = []
        torn = 0
        for line in raw_lines:
            try:
                parseable.append(json.loads(line))
            except json.JSONDecodeError:
                torn += 1
        assert torn == 1
        replayed = JobStore(path)
        assert replayed.corrupt_lines == 1
        assert replayed.get("b" * 64)["status"] == QUEUED
        assert replayed.get("a" * 64) is None     # its record was torn
        replayed.close()

    def test_simulated_done_count_reads_full_history(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        store.record_queued("a" * 64, tiny_scenario(1))
        store.record_done("a" * 64, cached=False, simulated=True)
        store.record_done("a" * 64, cached=True, simulated=False)
        store.record_queued("b" * 64, tiny_scenario(2))
        store.record_done("b" * 64, cached=True, simulated=False)
        assert store.simulated_done_count("a" * 64) == 1
        assert store.simulated_done_count("b" * 64) == 0
        store.close()
