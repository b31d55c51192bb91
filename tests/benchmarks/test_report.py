"""The benchmark trajectory report must fail actionably on malformed JSON."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPORT_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "report.py"
spec = importlib.util.spec_from_file_location("bench_report", REPORT_PATH)
report = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report)


GOOD_PAYLOAD = {
    "written_at": "2026-01-01T00:00:00Z",
    "workload": {"n_tasks": 3, "n_placements": 64},
    "seconds": {"engine": 0.01},
    "speedups": {"engine": 12.0},
    "floors": {"engine": 2.0},
}


def write(directory: Path, name: str, text: str) -> Path:
    path = directory / name
    path.write_text(text)
    return path


class TestLoadResults:
    def test_loads_well_formed_files(self, tmp_path):
        write(tmp_path, "BENCH_engine.json", json.dumps(GOOD_PAYLOAD))
        results = report.load_results(tmp_path)
        assert len(results) == 1
        assert results[0]["benchmark"] == "engine"

    def test_truncated_file_names_path_and_remedy(self, tmp_path):
        # A benchmark killed mid-write leaves a truncated JSON behind.
        bad = write(tmp_path, "BENCH_faults.json", json.dumps(GOOD_PAYLOAD)[:40])
        with pytest.raises(report.BenchFileError) as excinfo:
            report.load_results(tmp_path)
        message = str(excinfo.value)
        assert str(bad) in message
        assert "rerun the benchmark" in message
        assert "benchmarks/bench_faults.py" in message

    def test_small_variant_remedy_points_at_the_base_benchmark(self, tmp_path):
        write(tmp_path, "BENCH_engine_small.json", "{not json")
        with pytest.raises(report.BenchFileError, match="benchmarks/bench_engine.py"):
            report.load_results(tmp_path)

    def test_non_object_payload_is_malformed(self, tmp_path):
        bad = write(tmp_path, "BENCH_engine.json", "[1, 2, 3]")
        with pytest.raises(report.BenchFileError) as excinfo:
            report.load_results(tmp_path)
        message = str(excinfo.value)
        assert str(bad) in message
        assert "expected a JSON object" in message

    def test_one_bad_file_does_not_hide_which_one(self, tmp_path):
        write(tmp_path, "BENCH_engine.json", json.dumps(GOOD_PAYLOAD))
        write(tmp_path, "BENCH_planner.json", "")
        with pytest.raises(report.BenchFileError, match="BENCH_planner.json"):
            report.load_results(tmp_path)


class TestMain:
    def test_malformed_file_fails_the_run_with_the_path(self, tmp_path, capsys):
        bad = write(tmp_path, "BENCH_faults.json", "{truncated")
        assert report.main(["report.py", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "ERROR" in out
        assert str(bad) in out
        assert "rerun the benchmark" in out

    def test_well_formed_directory_still_reports(self, tmp_path, capsys):
        write(tmp_path, "BENCH_engine.json", json.dumps(GOOD_PAYLOAD))
        assert report.main(["report.py", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Benchmark speedup trajectory" in out

    def test_floor_violation_still_detected(self, tmp_path, capsys):
        payload = dict(GOOD_PAYLOAD, speedups={"engine": 1.0})
        write(tmp_path, "BENCH_engine.json", json.dumps(payload))
        assert report.main(["report.py", str(tmp_path)]) == 1
        assert "FLOOR VIOLATION" in capsys.readouterr().out


THROUGHPUT_PAYLOAD = {
    "written_at": "2026-01-02T00:00:00Z",
    "workload": {"n_users": 100000, "n_placements": 16},
    "seconds": {"end_to_end": 1.5},
    "throughputs": {"fleet_pairs_per_s": 1_000_000.0},
    "floors": {"fleet_pairs_per_s": 10_000.0},
}


class TestThroughputRows:
    def test_throughputs_render_as_per_second_rows(self, tmp_path, capsys):
        write(tmp_path, "BENCH_fleet.json", json.dumps(THROUGHPUT_PAYLOAD))
        assert report.main(["report.py", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fleet_pairs_per_s" in out
        assert "1,000,000/s" in out
        assert "10,000/s" in out
        assert "n_users=100000" in out

    def test_throughput_below_floor_is_a_violation(self, tmp_path, capsys):
        payload = dict(THROUGHPUT_PAYLOAD, throughputs={"fleet_pairs_per_s": 500.0})
        write(tmp_path, "BENCH_fleet.json", json.dumps(payload))
        assert report.main(["report.py", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FLOOR VIOLATION" in out
        assert "below floor 10,000/s" in out

    def test_throughput_without_floor_is_informational(self, tmp_path):
        payload = dict(THROUGHPUT_PAYLOAD, floors={})
        write(tmp_path, "BENCH_fleet.json", json.dumps(payload))
        rows, violations = report.trajectory_rows(report.load_results(tmp_path))
        assert violations == []
        assert any(row[1] == "fleet_pairs_per_s" and row[3] == "-" for row in rows)


OVERHEAD_PAYLOAD = dict(
    THROUGHPUT_PAYLOAD,
    overheads={"slice_cache_overhead": 1.1},
    ceilings={"slice_cache_overhead": 1.5},
)


class TestOverheadRows:
    def test_overheads_render_against_their_ceiling(self, tmp_path, capsys):
        write(tmp_path, "BENCH_fleet.json", json.dumps(OVERHEAD_PAYLOAD))
        assert report.main(["report.py", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "slice_cache_overhead" in out
        assert "1.10x" in out and "max 1.5x" in out

    def test_overhead_above_ceiling_is_a_violation(self, tmp_path, capsys):
        payload = dict(OVERHEAD_PAYLOAD, overheads={"slice_cache_overhead": 2.4})
        write(tmp_path, "BENCH_fleet.json", json.dumps(payload))
        assert report.main(["report.py", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "CEILING VIOLATION" in out
        assert "2.40x above ceiling 1.5x" in out
