"""Progress journal: cursor-addressed JSONL, torn tails, resume."""

import json

from repro.obs import ProgressJournal, read_progress
from repro.obs.progress import ProgressReader, last_seq


class TestProgressJournal:
    def test_rows_get_monotone_seq(self, tmp_path):
        path = str(tmp_path / "progress.jsonl")
        with ProgressJournal(path) as journal:
            assert journal.append({"kind": "run_start"}) == 1
            assert journal.append({"kind": "task"}) == 2
        rows = read_progress(path)
        assert [r["seq"] for r in rows] == [1, 2]
        assert rows[0]["kind"] == "run_start"
        assert rows[0]["elapsed_s"] >= 0.0

    def test_reopen_resumes_the_cursor_space(self, tmp_path):
        # A resumed job appends to the same journal; cursors held by
        # followers must stay valid, so seq keeps counting up.
        path = str(tmp_path / "progress.jsonl")
        with ProgressJournal(path) as journal:
            journal.append({"kind": "task"})
        with ProgressJournal(path) as journal:
            assert journal.append({"kind": "task"}) == 2
        assert last_seq(path) == 2

    def test_cursor_filters_already_seen_rows(self, tmp_path):
        path = str(tmp_path / "progress.jsonl")
        with ProgressJournal(path) as journal:
            for _ in range(4):
                journal.append({"kind": "task"})
        assert [r["seq"] for r in read_progress(path, after=2)] == [3, 4]

    def test_stale_cursor_yields_nothing(self, tmp_path):
        path = str(tmp_path / "progress.jsonl")
        with ProgressJournal(path) as journal:
            journal.append({"kind": "task"})
        assert read_progress(path, after=999) == []

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_progress(str(tmp_path / "nope.jsonl")) == []
        assert last_seq(str(tmp_path / "nope.jsonl")) == 0

    def test_torn_tail_is_skipped(self, tmp_path):
        path = str(tmp_path / "progress.jsonl")
        with ProgressJournal(path) as journal:
            journal.append({"kind": "task"})
            journal.append({"kind": "task"})
        with open(path, "a") as fh:
            fh.write('{"seq": 3, "kind": "tor')  # killed mid-write
        rows = read_progress(path)
        assert [r["seq"] for r in rows] == [1, 2]
        # And a journal reopened over the torn file keeps going safely.
        with ProgressJournal(path) as journal:
            assert journal.append({"kind": "run_end"}) == 3

    def test_foreign_lines_are_skipped(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        path.write_text("not json\n"
                        + json.dumps({"no_seq": True}) + "\n"
                        + json.dumps({"seq": 5, "kind": "task"}) + "\n"
                        + json.dumps([1, 2]) + "\n")
        rows = read_progress(str(path))
        assert [r["seq"] for r in rows] == [5]


class TestProgressReader:
    def test_tail_read_parses_only_new_rows(self, tmp_path):
        path = str(tmp_path / "progress.jsonl")
        reader = ProgressReader(path)
        with ProgressJournal(path) as journal:
            for _ in range(2000):
                journal.append({"kind": "task"})
            assert len(reader.read()) == 2000
            assert reader.rows_parsed == 2000
            journal.append({"kind": "task"})
            assert [r["seq"] for r in reader.read(after=2000)] == [2001]
            assert reader.rows_parsed == 2001
            # An older cursor seeks to its rows instead of rescanning.
            assert [r["seq"] for r in reader.read(after=1998)] \
                == [1999, 2000, 2001]
            assert reader.rows_parsed == 2004
            assert reader.read(after=2001) == []
            assert reader.rows_parsed == 2004

    def test_partial_line_waits_for_its_newline(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        reader = ProgressReader(str(path))
        row = json.dumps({"seq": 1, "kind": "task"})
        path.write_text(row[:7])
        assert reader.read() == []
        path.write_text(row + "\n")
        assert [r["seq"] for r in reader.read()] == [1]

    def test_cursor_reads_skip_foreign_and_torn_lines(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        path.write_text("not json\n"
                        + json.dumps({"seq": 1, "kind": "task"}) + "\n"
                        + json.dumps([1, 2]) + "\n"
                        + json.dumps({"seq": 2, "kind": "task"}) + "\n"
                        + '{"seq": 3, "kind": "tor')
        reader = ProgressReader(str(path))
        assert [r["seq"] for r in reader.read()] == [1, 2]
        assert [r["seq"] for r in reader.read(after=1)] == [2]
        assert reader.read(after=2) == []
