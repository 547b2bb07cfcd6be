"""Tests for repro.traces.io: JSONL/CSV persistence."""

import pytest

from repro.traces import (DownloadRecord, DownloadTrace, read_csv, read_jsonl,
                          write_csv, write_jsonl)


@pytest.fixture
def trace():
    trace = DownloadTrace()
    trace.append(DownloadRecord("a", "b", 0.0, "f1", "f1.dat", 100.5, False))
    trace.append(DownloadRecord("b", "c", 3600.0, "f2", "f2.dat", 0.0, True))
    return trace


class TestJSONL:
    def test_round_trip(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(trace, path)
        restored = read_jsonl(path)
        assert list(restored) == list(trace)

    def test_one_line_per_record(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(trace, path)
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        assert len(lines) == len(trace)

    def test_blank_lines_ignored(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(trace, path)
        path.write_text(path.read_text() + "\n\n")
        assert len(read_jsonl(path)) == len(trace)

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_jsonl(DownloadTrace(), path)
        assert len(read_jsonl(path)) == 0


class TestCSV:
    def test_round_trip(self, trace, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(trace, path)
        restored = read_csv(path)
        assert list(restored) == list(trace)

    def test_header_present(self, trace, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(trace, path)
        header = path.read_text().splitlines()[0]
        for field in ("uploader_id", "downloader_id", "timestamp",
                      "content_hash", "filename", "size_bytes", "is_fake"):
            assert field in header

    def test_fake_flag_survives_round_trip(self, trace, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(trace, path)
        restored = read_csv(path)
        assert [r.is_fake for r in restored] == [False, True]

    def test_cross_format_consistency(self, trace, tmp_path):
        jsonl_path = tmp_path / "t.jsonl"
        csv_path = tmp_path / "t.csv"
        write_jsonl(trace, jsonl_path)
        write_csv(trace, csv_path)
        assert list(read_jsonl(jsonl_path)) == list(read_csv(csv_path))


class TestMalformedInput:
    """A bad line raises ``ValueError`` naming the file and line."""

    @staticmethod
    def _jsonl(tmp_path, trace, bad_line):
        path = tmp_path / "bad.jsonl"
        write_jsonl(trace, path)
        path.write_text(path.read_text() + bad_line + "\n")
        return path

    def test_undecodable_line(self, trace, tmp_path):
        path = self._jsonl(tmp_path, trace, "[[[[[[[[[[")
        with pytest.raises(ValueError, match=r"bad\.jsonl:3: not JSON"):
            read_jsonl(path)

    def test_line_nested_past_the_parser_stack(self, trace, tmp_path):
        path = self._jsonl(tmp_path, trace, "[" * 200_000)
        with pytest.raises(ValueError, match=r"bad\.jsonl:3: not JSON"):
            read_jsonl(path)

    def test_non_object_line(self, trace, tmp_path):
        path = self._jsonl(tmp_path, trace, "[1, 2]")
        with pytest.raises(ValueError, match=r"bad\.jsonl:3: expected an object"):
            read_jsonl(path)

    def test_missing_field(self, trace, tmp_path):
        path = self._jsonl(tmp_path, trace, '{"uploader_id": "a"}')
        with pytest.raises(ValueError,
                           match=r"bad\.jsonl:3: missing field 'downloader_id'"):
            read_jsonl(path)

    def test_non_numeric_field(self, trace, tmp_path):
        path = self._jsonl(tmp_path, trace, (
            '{"uploader_id": "a", "downloader_id": "b", "timestamp": "soon", '
            '"content_hash": "f", "filename": "f.dat"}'))
        with pytest.raises(ValueError,
                           match=r"bad\.jsonl:3: field 'timestamp' is not a number"):
            read_jsonl(path)

    def test_non_finite_field(self, trace, tmp_path):
        path = self._jsonl(tmp_path, trace, (
            '{"uploader_id": "a", "downloader_id": "b", "timestamp": NaN, '
            '"content_hash": "f", "filename": "f.dat"}'))
        with pytest.raises(ValueError,
                           match=r"bad\.jsonl:3: field 'timestamp' is not finite"):
            read_jsonl(path)

    def test_csv_without_timestamp_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("uploader_id,downloader_id,content_hash,filename\n"
                        "a,b,f1,f1.dat\n")
        with pytest.raises(ValueError,
                           match=r"bad\.csv:2: missing field 'timestamp'"):
            read_csv(path)
