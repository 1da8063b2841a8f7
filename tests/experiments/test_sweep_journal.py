"""Durability of the sweep journal and the structured failure report."""

import json

import pytest

from repro.experiments.sweep import (
    FAILURE_REPORT_SCHEMA,
    JOURNAL_SCHEMA,
    FailureRecord,
    RunPolicy,
    RunSpec,
    SweepJournal,
    sweep_id,
    write_failure_report,
)
from repro.workloads.synthetic import IndirectStreamWorkload


def specs(modes=("base", "imp", "swpref")):
    workload = IndirectStreamWorkload(n_indices=256, n_data=1024, seed=3)
    return [RunSpec.for_run(workload, mode, 4) for mode in modes]


def journal_lines(path):
    return [json.loads(line) for line in
            path.read_text().splitlines() if line.strip()]


class TestSweepJournal:
    def test_header_and_entries_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        spec_a, spec_b, _ = specs()
        journal = SweepJournal(path, label="figure-2")
        journal.record_ok(spec_a, attempts=2)
        journal.record_ok(spec_b, attempts=1, cached=True)
        journal.close()

        lines = journal_lines(path)
        assert lines[0] == {"journal": JOURNAL_SCHEMA, "sweep": "figure-2"}
        assert [line["digest"] for line in lines[1:]] == \
            [spec_a.digest(), spec_b.digest()]
        assert lines[1]["attempts"] == 2 and lines[1]["cached"] is False
        assert lines[2]["cached"] is True

        reloaded = SweepJournal(path, resume=True)
        assert reloaded.resumed == 2
        assert reloaded.label == "figure-2"
        assert set(reloaded.completed) == {spec_a.digest(), spec_b.digest()}
        assert reloaded.torn_lines == 0

    def test_record_ok_dedupes_by_digest(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        spec = specs()[0]
        journal = SweepJournal(path)
        journal.record_ok(spec)
        journal.record_ok(spec)  # second sweep pass, cache hit — no-op
        journal.close()
        assert len(journal_lines(path)) == 2  # header + one entry

    def test_failed_then_ok_transition(self, tmp_path):
        # A spec that permanently failed in one invocation and succeeded
        # on a resumed one must read back as completed, not failed.
        path = tmp_path / "journal.jsonl"
        spec = specs()[0]
        journal = SweepJournal(path)
        journal.record_failed(
            FailureRecord.for_spec(spec, "timeout", 3, "too slow"))
        journal.close()

        resumed = SweepJournal(path, resume=True)
        assert spec.digest() in resumed.failed
        assert resumed.resumed == 0
        resumed.record_ok(spec)
        resumed.close()

        final = SweepJournal(path, resume=True)
        assert spec.digest() in final.completed
        assert spec.digest() not in final.failed

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        spec_a, spec_b, _ = specs()
        journal = SweepJournal(path)
        journal.record_ok(spec_a)
        journal.record_ok(spec_b)
        journal.close()
        # Tear the last line mid-record, the way a kill -9 would.
        text = path.read_text()
        path.write_text(text[:len(text) - len(text.splitlines()[-1]) // 2 - 1])

        resumed = SweepJournal(path, resume=True)
        assert resumed.torn_lines == 1
        assert resumed.resumed == 1
        assert spec_a.digest() in resumed.completed
        assert spec_b.digest() not in resumed.completed

    def test_record_after_torn_tail_survives_the_next_resume(self, tmp_path):
        # Resuming ends the torn line, so the first new record lands on a
        # line of its own instead of being merged into it and lost.
        path = tmp_path / "journal.jsonl"
        spec_a, spec_b, _ = specs()
        journal = SweepJournal(path)
        journal.record_ok(spec_a)
        journal.close()
        with open(path, "a") as handle:   # killed mid-append
            handle.write('{"digest": "torn", "sta')

        resumed = SweepJournal(path, resume=True)
        resumed.record_ok(spec_b)
        resumed.close()

        final = SweepJournal(path, resume=True)
        assert final.torn_lines == 1
        assert set(final.completed) == {spec_a.digest(), spec_b.digest()}
        final.close()

    def test_without_resume_the_journal_restarts(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = SweepJournal(path)
        journal.record_ok(specs()[0])
        journal.close()
        fresh = SweepJournal(path, resume=False, label="again")
        fresh.close()
        assert fresh.resumed == 0
        assert journal_lines(path) == [{"journal": JOURNAL_SCHEMA,
                                        "sweep": "again"}]

    def test_entries_survive_without_close(self, tmp_path):
        # Every append is flushed + fsynced; losing the handle (crash)
        # must not lose acknowledged entries.
        path = tmp_path / "journal.jsonl"
        journal = SweepJournal(path)
        journal.record_ok(specs()[0])
        del journal
        assert len(journal_lines(path)) == 2


class TestSweepId:
    def test_order_independent_and_content_sensitive(self):
        all_specs = specs()
        assert sweep_id(all_specs) == sweep_id(list(reversed(all_specs)))
        assert sweep_id(all_specs) != sweep_id(all_specs[:2])

    def test_header_records_sweep_id_and_resume_honours_it(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        all_specs = specs()
        identity = sweep_id(all_specs)
        journal = SweepJournal(path, label="corpus", sweep_id=identity)
        journal.record_ok(all_specs[0])
        journal.close()
        assert journal_lines(path)[0]["sweep_id"] == identity

        resumed = SweepJournal(path, resume=True, sweep_id=identity)
        assert resumed.mismatched is False
        assert resumed.resumed == 1
        resumed.close()

    def test_mismatched_sweep_id_discards_stale_progress(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        all_specs = specs()
        stale = SweepJournal(path, label="old",
                             sweep_id=sweep_id(all_specs))
        stale.record_ok(all_specs[0])
        stale.close()

        current = sweep_id(all_specs[:2])
        fresh = SweepJournal(path, resume=True, label="new",
                             sweep_id=current)
        assert fresh.mismatched is True
        assert fresh.resumed == 0
        assert fresh.completed == {}
        fresh.close()
        # The file restarted with the new identity's header.
        lines = journal_lines(path)
        assert lines[0]["sweep_id"] == current
        assert lines[0]["sweep"] == "new"
        assert len(lines) == 1

    def test_legacy_headers_without_sweep_id_still_resume(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        all_specs = specs()
        legacy = SweepJournal(path, label="old")     # no sweep_id recorded
        legacy.record_ok(all_specs[0])
        legacy.close()

        resumed = SweepJournal(path, resume=True,
                               sweep_id=sweep_id(all_specs))
        assert resumed.mismatched is False
        assert resumed.resumed == 1
        resumed.close()


class TestFailureReport:
    def test_schema_and_round_trip(self, tmp_path):
        spec = specs()[0]
        failures = [FailureRecord.for_spec(spec, "worker_death", 3,
                                           "worker process died")]
        target = tmp_path / "results" / "failures.json"
        document = write_failure_report(
            target, failures, total=3, completed=2,
            policy=RunPolicy(timeout=60.0, retries=1),
            sweep_label="scenario corpus")
        on_disk = json.loads(target.read_text())
        assert on_disk == document
        assert on_disk["schema"] == FAILURE_REPORT_SCHEMA
        assert on_disk["sweep"] == "scenario corpus"
        assert on_disk["total_runs"] == 3
        assert on_disk["completed_runs"] == 2
        assert on_disk["failed_runs"] == 1
        assert on_disk["policy"]["timeout"] == 60.0
        failure = on_disk["failures"][0]
        assert failure["digest"] == spec.digest()
        assert failure["kind"] == "worker_death"
        assert failure["attempts"] == 3

    def test_empty_report_is_valid(self, tmp_path):
        document = write_failure_report(tmp_path / "failures.json", [],
                                        total=5, completed=5)
        assert document["failed_runs"] == 0
        assert document["failures"] == []

    def test_failed_dump_leaves_no_temp_file(self, tmp_path):
        with pytest.raises(TypeError):
            write_failure_report(tmp_path / "failures.json", [], total=1,
                                 completed=1, sweep_label=object())
        assert list(tmp_path.iterdir()) == []
