"""Aggregate every ``BENCH_*.json`` into one speedup-trajectory table.

Each benchmark writes its result next to this script (see
``conftest.write_benchmark_json``); this report collects them all and prints
one row per pinned metric -- relative speedups, absolute throughputs
(``"throughputs"``, rendered as ``.../s``) and overhead ratios
(``"overheads"``, bounded by ``"ceilings"`` instead of floors) -- sorted by
measurement time: the project's performance trajectory from the first batch
engine to the fleet pipeline at a glance, plus how much headroom each pin has
over its CI bound.

Run it directly (``PYTHONPATH=src python benchmarks/report.py``); the CI job
does after the smoke benchmarks refresh the ``*_small`` files.  Exits
non-zero if any recorded speedup or throughput sits below its recorded
floor, or any overhead above its ceiling, so a stale or regressed JSON
cannot slip through silently.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.reporting import format_table

BENCH_DIR = Path(__file__).resolve().parent


class BenchFileError(RuntimeError):
    """A ``BENCH_*.json`` file exists but cannot be parsed."""


def load_results(directory: Path = BENCH_DIR) -> list[dict]:
    """All ``BENCH_*.json`` payloads in ``directory``, oldest first.

    A malformed or truncated file (e.g. a benchmark killed mid-write) raises
    :class:`BenchFileError` naming the offending path instead of surfacing a
    bare ``json.JSONDecodeError`` with no clue which of the dozen files broke.
    """
    results = []
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            with path.open() as handle:
                payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise BenchFileError(
                f"malformed benchmark result {path}: {exc}; "
                f"rerun the benchmark to regenerate it "
                f"(PYTHONPATH=src python benchmarks/bench_{path.stem.removeprefix('BENCH_').removesuffix('_small')}.py)"
            ) from exc
        if not isinstance(payload, dict):
            raise BenchFileError(
                f"malformed benchmark result {path}: expected a JSON object, "
                f"got {type(payload).__name__}; rerun the benchmark to regenerate it"
            )
        payload.setdefault("benchmark", path.stem.removeprefix("BENCH_"))
        results.append(payload)
    results.sort(key=lambda payload: payload.get("written_at", ""))
    return results


def _workload_summary(workload: dict) -> str:
    """A compact ``key=value`` digest of the most telling workload fields."""
    telling = (
        "n_tasks",
        "n_placements",
        "n_scenarios",
        "n_users",
        "delta_scenarios",
        "n_measurements",
        "stream_placements",
        "headline_placements",
        "scale_tasks",
        "n_queries",
    )
    parts = [f"{key}={workload[key]}" for key in telling if key in workload]
    return " ".join(parts) if parts else "-"


def trajectory_rows(results: list[dict]) -> tuple[list[tuple[str, ...]], list[str]]:
    """One table row per pinned metric; also collects floor and ceiling violations."""
    rows: list[tuple[str, ...]] = []
    violations: list[str] = []
    for payload in results:
        name = payload["benchmark"]
        date = str(payload.get("written_at", "?"))[:10]
        workload = _workload_summary(payload.get("workload", {}))
        floors = payload.get("floors", {})
        for metric, speedup in sorted(payload.get("speedups", {}).items()):
            floor = floors.get(metric)
            if floor is not None and speedup < floor:
                violations.append(
                    f"FLOOR VIOLATION: {name}:{metric} speedup {speedup:.1f}x below floor {floor}x"
                )
            rows.append(
                (
                    name,
                    metric,
                    f"{speedup:,.1f}x",
                    f"{floor:g}x" if floor is not None else "-",
                    f"{speedup / floor:,.0f}x" if floor else "-",
                    date,
                    workload,
                )
            )
        for metric, throughput in sorted(payload.get("throughputs", {}).items()):
            floor = floors.get(metric)
            if floor is not None and throughput < floor:
                violations.append(
                    f"FLOOR VIOLATION: {name}:{metric} throughput {throughput:,.0f}/s "
                    f"below floor {floor:,.0f}/s"
                )
            rows.append(
                (
                    name,
                    metric,
                    f"{throughput:,.0f}/s",
                    f"{floor:,.0f}/s" if floor is not None else "-",
                    f"{throughput / floor:,.0f}x" if floor else "-",
                    date,
                    workload,
                )
            )
        ceilings = payload.get("ceilings", {})
        for metric, overhead in sorted(payload.get("overheads", {}).items()):
            ceiling = ceilings.get(metric)
            if ceiling is not None and overhead > ceiling:
                violations.append(
                    f"CEILING VIOLATION: {name}:{metric} overhead {overhead:.2f}x "
                    f"above ceiling {ceiling}x"
                )
            rows.append(
                (
                    name,
                    metric,
                    f"{overhead:.2f}x",
                    f"max {ceiling:g}x" if ceiling is not None else "-",
                    f"{ceiling / overhead:,.1f}x" if ceiling and overhead else "-",
                    date,
                    workload,
                )
            )
    return rows, violations


def main(argv: list[str] | None = None) -> int:
    directory = Path(argv[1]) if argv and len(argv) > 1 else BENCH_DIR
    try:
        results = load_results(directory)
    except BenchFileError as exc:
        print(f"ERROR: {exc}")
        return 1
    if not results:
        print(f"no BENCH_*.json files under {directory}")
        return 1
    rows, violations = trajectory_rows(results)
    print(f"Benchmark speedup trajectory ({len(results)} result files)")
    print()
    print(
        format_table(
            ("benchmark", "metric", "value", "bound", "margin", "measured", "workload"),
            rows,
        )
    )
    if violations:
        print()
        for violation in violations:
            print(violation)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
