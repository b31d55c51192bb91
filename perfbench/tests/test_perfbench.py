"""Tests of the benchmark's own helpers: tail rule, span accounting,
instrumentation, seeded inputs, and a tiny end-to-end smoke run."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import fleet_drift, harness, select_job, serve_stream  # noqa: E402
from perfbench.tracer import TARGETS, Instrumentation, Target, Tracer, _wrap  # noqa: E402

TINY = {
    "select": select_job.TINY,
    "serve": serve_stream.TINY,
    "fleet": fleet_drift.TINY,
}


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- tail rule ---------------------------------------------------------------


@pytest.mark.parametrize("n", [20, 21, 57, 100, 1000, 12345])
def test_tail_has_exactly_ten_samples_beyond(n):
    values = [float(v) for v in range(n)]
    percentile, value, beyond = harness.tail_latency(values[::-1])
    assert beyond == 10
    assert sum(v > value for v in values) == 10
    assert value == values[-11]
    assert percentile == pytest.approx(100.0 * (1 - 10 / n))


@pytest.mark.parametrize("n", [1, 2, 7, 19])
def test_tail_falls_back_to_the_median_below_twenty_samples(n):
    values = [float(v) for v in range(n)]
    percentile, value, beyond = harness.tail_latency(values)
    assert value == values[(n + 1) // 2 - 1]
    assert beyond == sum(v > value for v in values) < 10
    assert percentile >= 50.0


def test_tail_rejects_no_samples():
    with pytest.raises(ValueError):
        harness.tail_latency([])


# -- span accounting ---------------------------------------------------------


def test_self_time_subtracts_children_and_busy_counts_recursion_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("a"):
        clock.advance(2)
        with tracer.span("a"):  # re-entered
            clock.advance(3)
        clock.advance(1)
        with tracer.span("b"):
            clock.advance(2)
        clock.advance(2)
    a, b = tracer.totals("a"), tracer.totals("b")
    assert (a.calls, a.self_s, a.busy_s) == (2, 8.0, 10.0)
    assert (b.calls, b.self_s, b.busy_s) == (1, 2.0, 2.0)
    assert tracer.covered_s == 10.0


def test_recursive_wrapped_function_splits_self_time_per_level():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def fingerprint(depth):
        clock.advance(1)
        if depth:
            wrapped(depth - 1)
        clock.advance(1)
        return depth

    wrapped = _wrap(tracer, fingerprint, Target("m", "fingerprint", "cache.fingerprint"))
    assert wrapped(2) == 2
    totals = tracer.totals("cache.fingerprint")
    assert (totals.calls, totals.self_s, totals.busy_s) == (3, 6.0, 6.0)
    assert tracer.covered_s == 6.0


def test_generator_resumes_are_spans_and_disabled_tracer_records_nothing():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def batches():
        for i in range(3):
            clock.advance(2)
            yield i

    wrapped = _wrap(tracer, batches, Target("m", "batches", "batch"))
    consumed = []
    for item in wrapped():
        consumed.append(item)
        clock.advance(5)  # consumer time is not the layer's
    assert consumed == [0, 1, 2]
    assert tracer.totals("batch").busy_s == 6.0
    tracer.enabled = False
    list(wrapped())
    assert tracer.totals("batch").busy_s == 6.0


def test_instrumentation_rebinds_imported_names_and_restores_them():
    import repro.cache
    import repro.search
    import repro.search.driver

    original = repro.search.driver.search_space
    tracer = Tracer()
    with Instrumentation(tracer, TARGETS):
        assert repro.search.search_space is not original
        assert repro.search.driver.search_space is repro.search.search_space
        repro.cache.fingerprint(("a", 1.5))
    assert repro.search.search_space is original
    assert repro.search.driver.search_space is original
    assert tracer.totals("cache.fingerprint").calls == 1


# -- seeded inputs -----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_same_inputs(name):
    cls = harness.workload_classes()[name]
    digests = []
    for seed in (7, 7, 8):
        workload = cls(seed, TINY[name])
        workload.setup()
        digests.append(workload.input_digest)
    assert digests[0] == digests[1] != digests[2]


def test_serve_classes_take_equal_shares_and_copies_keep_their_class():
    workload = serve_stream.ServeWorkload(5, serve_stream.TINY)
    workload.setup()
    n_classes = len(serve_stream.CLASSES)
    ops = 1000
    assert workload.cycle == n_classes
    classes = workload.classes[:ops].reshape(-1, n_classes)
    assert all(sorted(row) == list(range(n_classes)) for row in classes)
    ids = workload.request_ids[:ops]
    assert (ids % n_classes == workload.classes[:ops]).all()
    seen: set[int] = set()
    for request_id in ids.tolist():
        j = request_id // n_classes
        # A class's distinct requests appear in order: the j-th after the (j-1)-th.
        assert j == 0 or request_id - n_classes in seen
        seen.add(request_id)
    assert len(seen) < 0.5 * ops


def test_serve_request_shapes_do_not_depend_on_the_seed():
    def shape(seed, request_id):
        cls, tasks, extra, _ = serve_stream._request_params(seed, request_id, serve_stream.ServeSizes())
        return cls, len(tasks[0]), extra[2]

    for request_id in range(40):
        assert shape(1, request_id) == shape(2, request_id)
    assert serve_stream._request_params(1, 7, serve_stream.ServeSizes()) != serve_stream._request_params(
        2, 7, serve_stream.ServeSizes()
    )


def test_select_round_parameters_are_a_function_of_the_seed():
    sizes = select_job.TINY
    assert select_job._job_params(5, 3, sizes) == select_job._job_params(5, 3, sizes)
    assert select_job._job_params(5, 3, sizes) != select_job._job_params(6, 3, sizes)


# -- smoke run ---------------------------------------------------------------


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_emits_every_declared_metric(name, trace, capsys):
    result = harness.run_workload(
        name, seed=3, seconds=0.3, trace=trace, started=time.perf_counter(), sizes=TINY[name]
    )
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert f"workload {name}" in capsys.readouterr().out


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "select", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
