"""The shared durable-write primitives: the JSONL log and atomic publish."""

import pytest

from repro.experiments.durable import AppendLog, publish, read_log


class TestReadLog:
    def test_missing_file_reads_empty(self, tmp_path):
        assert read_log(tmp_path / "absent.jsonl") == ([], 0)

    def test_counts_torn_and_non_object_lines_and_skips_blanks(self,
                                                               tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a":1}\n'
                         b'\n'
                         b'{"b":2\n'        # torn mid-record
                         b'[1,2]\n'         # valid JSON, not an object
                         b'   \n'
                         b'\xff\xfe\n'      # not UTF-8
                         b'{"c":3}')        # no final newline
        entries, corrupt = read_log(path)
        assert entries == [{"a": 1}, {"c": 3}]
        assert corrupt == 3


class TestAppendLog:
    def test_appends_compact_sorted_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = AppendLog(path)
        log.append({"b": 1, "a": [1, 2]})
        log.append({"c": None})
        log.close()
        assert path.read_text() == '{"a":[1,2],"b":1}\n{"c":null}\n'

    def test_fresh_truncates(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"old":1}\n')
        log = AppendLog(path, fresh=True)
        log.append({"new": 1})
        log.close()
        assert read_log(path) == ([{"new": 1}], 0)

    def test_reopen_ends_a_torn_tail_before_appending(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a":1}\n{"torn":')
        log = AppendLog(path)
        log.append({"b": 2})
        log.close()
        assert read_log(path) == ([{"a": 1}, {"b": 2}], 1)

    def test_reopen_of_a_clean_log_adds_no_blank_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a":1}\n')
        log = AppendLog(path)
        log.append({"b": 2})
        log.close()
        assert path.read_text() == '{"a":1}\n{"b":2}\n'


class TestPublish:
    def test_replaces_the_target(self, tmp_path):
        path = tmp_path / "sub" / "doc.json"
        publish(path, "one\n")
        publish(path, "two\n")
        assert path.read_text() == "two\n"
        assert sorted(p.name for p in path.parent.iterdir()) == ["doc.json"]

    def test_failed_replace_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "d"
        target.mkdir()            # os.replace cannot put a file over it
        with pytest.raises(OSError):
            publish(target, "x")
        assert list(tmp_path.glob("*.tmp")) == []
        assert [p.name for p in tmp_path.iterdir()] == ["d"]
