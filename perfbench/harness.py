"""Closed-loop harness: set-up, timed passes, traced pass, metrics, report.

One process, one client: the next operation starts only after the previous
one returned.  A plain run (``--trace 0``) measures one pass of ``--seconds``
of timed operation wall time and reports the end-to-end metrics.  A traced
run (``--trace 1``) replays the same operations three times -- untraced,
traced, untraced -- from fresh program state, reports the per-layer metrics
of the traced pass, and the traced pass's extra wall time over the mean of
the two untraced ones as the tracing overhead.

Output checks run outside the timed regions; an operation that raises or
fails its check counts toward ``failed`` and its latency is not used.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform as platform_module
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import repro

from .tracer import Instrumentation, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Samples the reported tail percentile must have beyond it.
TAIL_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "fresh_p50_ms": "ms",
    "repeat_p50_ms": "ms",
    "pairs_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail_latency(values: "list[float]") -> tuple[float, float, int]:
    """``(percentile, value, samples beyond)`` of the reported tail.

    The tail is the highest nearest-rank percentile with at least
    :data:`TAIL_BEYOND` samples beyond it: ``100 * (1 - 10 / n)``, whose
    value is the eleventh-largest sample.  The percentile moves smoothly
    with the sample count instead of jumping between fixed rungs.  Below
    ``2 * TAIL_BEYOND`` samples that percentile would fall under the median,
    so the median (nearest rank) is reported, with its smaller count beyond.
    """
    if not values:
        raise ValueError("no samples")
    n = len(values)
    beyond = TAIL_BEYOND if n >= 2 * TAIL_BEYOND else n - (n + 1) // 2
    rank = n - beyond
    return 100.0 * rank / n, sorted(values)[rank - 1], beyond


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(*parts) -> str:
    """SHA-256 over arrays and scalars, stable across processes."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode())
            h.update(str(part.shape).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One completed operation: its kind, timed wall time and checked output."""

    kind: str
    seconds: float
    pairs: int = 0
    ok: bool = True


class Workload:
    """Base of the three workloads: seeded inputs, fresh state per pass.

    Subclasses set :attr:`name`, :attr:`Sizes` (the dataclass of their
    input sizes), :attr:`cycle` (a pass ends only on a cycle boundary, so
    every pass holds whole strata of the operation mix) and
    :attr:`repeat_label`, and implement :meth:`setup`, :meth:`reset`,
    :meth:`op` and :meth:`table_caches`.
    """

    name = ""
    Sizes: type
    cycle = 1
    repeat_label = "repeat"

    def __init__(self, seed: int, sizes=None) -> None:
        self.seed = int(seed)
        self.sizes = sizes if sizes is not None else self.Sizes()
        self.tracer: Tracer | None = None
        self.input_digest = ""

    def setup(self) -> None:  # pragma: no cover - abstract
        """Resolve platforms, generate inputs (setting :attr:`input_digest`), warm up."""
        raise NotImplementedError

    def reset(self, tracer: Tracer | None) -> None:  # pragma: no cover - abstract
        """Fresh program state (executors, services, caches) for one pass."""
        raise NotImplementedError

    def op(self, index: int) -> Op:  # pragma: no cover - abstract
        raise NotImplementedError

    def table_caches(self) -> list:  # pragma: no cover - abstract
        raise NotImplementedError

    def timed(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` and time it; the tracer records only inside this window."""
        tracer = self.tracer
        if tracer is not None:
            tracer.enabled = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
        return result, elapsed

    def span(self, layer: str):
        """A span around benchmark code that stands for a layer of its own."""
        return self.tracer.span(layer) if self.tracer is not None else nullcontext()

    def cache_counters(self) -> tuple[int, int, int]:
        hits = misses = evictions = 0
        for cache in self.table_caches():
            stats = cache.stats()
            hits, misses, evictions = hits + stats.hits, misses + stats.misses, evictions + stats.evictions
        return hits, misses, evictions


@dataclass
class KindTrace:
    """Traced totals of the operations of one kind."""

    ops: int = 0
    wall_s: float = 0.0
    self_s: dict[str, float] = field(default_factory=dict)
    cache: list[int] = field(default_factory=lambda: [0, 0, 0])


@dataclass
class PassResult:
    ops: list[Op]
    attempted: int
    failed: int
    by_kind: dict[str, KindTrace] = field(default_factory=dict)

    @property
    def timed_s(self) -> float:
        return sum(op.seconds for op in self.ops)


def run_pass(
    workload: Workload,
    *,
    seconds: float | None = None,
    n_ops: int | None = None,
    tracer: Tracer | None = None,
) -> PassResult:
    """One closed-loop pass from fresh state: ``n_ops`` operations, or whole
    cycles until ``seconds`` of timed operation wall time have passed."""
    if (seconds is None) == (n_ops is None):
        raise ValueError("pass either seconds or n_ops")
    gc.collect()
    workload.reset(tracer)
    ops: list[Op] = []
    failed = 0
    spent = 0.0
    by_kind: dict[str, KindTrace] = {}
    index = 0
    while True:
        if index % workload.cycle == 0:
            if n_ops is not None and index >= n_ops:
                break
            if seconds is not None and spent >= seconds:
                break
        if tracer is not None:
            layers_before = tracer.snapshot()
            cache_before = workload.cache_counters()
        wall = time.perf_counter()
        try:
            op = workload.op(index)
        except Exception:  # the loop must go on; the failure is counted
            failed += 1
            spent += time.perf_counter() - wall
            if failed <= 3:
                traceback.print_exc(file=sys.stderr)
            index += 1
            continue
        index += 1
        if not op.ok:
            failed += 1
            spent += op.seconds
            continue
        ops.append(op)
        spent += op.seconds
        if tracer is not None:
            kind = by_kind.setdefault(op.kind, KindTrace())
            kind.ops += 1
            kind.wall_s += op.seconds
            for layer, totals in tracer.layers.items():
                before = layers_before.get(layer)
                delta = totals.self_s - (before.self_s if before else 0.0)
                if delta:
                    kind.self_s[layer] = kind.self_s.get(layer, 0.0) + delta
            after = workload.cache_counters()
            for i in range(3):
                kind.cache[i] += after[i] - cache_before[i]
    return PassResult(ops=ops, attempted=index, failed=failed, by_kind=by_kind)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def end_to_end(result: PassResult, setup_s: float) -> tuple[dict[str, float], dict]:
    """End-to-end metrics of a plain pass, plus the figures printed beside them."""
    durations = [op.seconds for op in result.ops]
    fresh = [op for op in result.ops if op.kind == "fresh"]
    repeat = [op.seconds for op in result.ops if op.kind != "fresh"]
    fresh_s = sum(op.seconds for op in fresh)
    percentile, tail, beyond = tail_latency(durations)
    metrics = {
        "setup_s": setup_s,
        "op_p50_ms": _median_ms(durations),
        "op_tail_ms": tail * 1e3,
        "ops_per_s": len(durations) / sum(durations),
        "fresh_p50_ms": _median_ms([op.seconds for op in fresh]),
        "repeat_p50_ms": _median_ms(repeat),
        "pairs_per_s": sum(op.pairs for op in fresh) / fresh_s if fresh_s else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "tail_percentile": percentile,
        "tail_samples": len(durations),
        "tail_beyond": beyond,
        "fresh_ops": len(fresh),
        "repeat_ops": len(repeat),
        "failed_frac": result.failed / result.attempted if result.attempted else 0.0,
    }
    return metrics, notes


def traced(workload: Workload, seconds: float) -> tuple[dict[str, float], list[PassResult], dict]:
    """Untraced, traced and untraced passes over the same operations."""
    first = run_pass(workload, seconds=seconds / 3)
    n_ops = first.attempted
    tracer = Tracer()
    with Instrumentation(tracer):
        middle = run_pass(workload, n_ops=n_ops, tracer=tracer)
        # The pass started from fresh (empty) table caches.
        cache_delta = workload.cache_counters()
    last = run_pass(workload, n_ops=n_ops)
    untraced_s = (first.timed_s + last.timed_s) / 2
    metrics = layer_metrics(
        tracer,
        table_cache_delta=cache_delta,
        ops_wall_s=middle.timed_s,
        overhead_frac=middle.timed_s / untraced_s - 1.0 if untraced_s else 0.0,
    )
    return metrics, [first, middle, last], middle.by_kind


# ---------------------------------------------------------------------------
# environment and report
# ---------------------------------------------------------------------------


def _blas_threads() -> "int | None":
    """OpenBLAS thread count, read from the loaded library if it is OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    blas = (np.show_config(mode="dicts") or {}).get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform_module.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _format(value: float) -> str:
    return f"{value:.6g}"


def print_report(workload: Workload, metrics: dict, units: Callable[[str], str], notes: dict) -> None:
    print(f"workload {workload.name}  seed {workload.seed}")
    print(f"  environment  {json.dumps(environment(), sort_keys=True)}")
    print(f"  input digest {workload.input_digest}")
    for name, value in metrics.items():
        extra = ""
        if name == "op_tail_ms":
            extra = (
                f"  (p{notes['tail_percentile']:g} of {notes['tail_samples']} ops, "
                f"{notes['tail_beyond']} beyond)"
            )
        elif name == "repeat_p50_ms":
            extra = f"  ({workload.repeat_label}: {notes['repeat_ops']} ops, fresh: {notes['fresh_ops']} ops)"
        print(f"  {name:<26} {_format(value):>14} {units(name)}{extra}")
    print(f"  {'failed_frac':<26} {_format(notes['failed_frac']):>14} ratio")


def print_kind_breakdown(workload: Workload, by_kind: dict[str, KindTrace]) -> None:
    """Self-time shares per layer, and table-cache hit ratio, per operation kind."""
    for kind, trace in sorted(by_kind.items()):
        label = kind if kind == "fresh" else workload.repeat_label
        hits, misses, evictions = trace.cache
        ratio = hits / (hits + misses) if hits + misses else 0.0
        print(
            f"  traced {label} ops: {trace.ops}, table hit ratio {ratio:.3f} "
            f"({hits} hits, {misses} misses, {evictions} evictions)"
        )
        unattributed = trace.wall_s - sum(trace.self_s.values())
        shares = sorted(trace.self_s.items(), key=lambda item: -item[1])
        shares.append(("(unattributed)", unattributed))
        for layer, seconds in shares:
            print(f"    {layer:<22} {seconds / trace.wall_s:7.1%} self")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def workload_classes() -> dict[str, type]:
    from .fleet_drift import FleetWorkload
    from .select_job import SelectWorkload
    from .serve_stream import ServeWorkload

    return {cls.name: cls for cls in (SelectWorkload, ServeWorkload, FleetWorkload)}


def run_workload(name: str, seed: int, seconds: float, trace: bool, *, started: float, sizes=None) -> dict:
    """Set up and measure one workload; returns the result object printed last."""
    cls = workload_classes()[name]
    import_s = time.perf_counter() - started
    setups = []
    workload = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = cls(seed, sizes)
        workload.setup()
        setups.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setups)

    if not trace:
        result = run_pass(workload, seconds=seconds)
        metrics, notes = end_to_end(result, setup_s)
        passes = [result]
        units = E2E_UNITS.__getitem__
    else:
        metrics, passes, by_kind = traced(workload, seconds)
        units = layer_unit
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if trace:
        notes = {"failed_frac": failed / attempted if attempted else 0.0}
    print_report(workload, metrics, units, notes)
    if trace:
        print_kind_breakdown(workload, by_kind)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units(name)} for name, value in metrics.items()},
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload, plain then traced, each in a process of its own."""
    status = 0
    for name in workload_classes():
        for trace in ("0", "1"):
            command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name]
            command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", trace]
            status = subprocess.run(command, cwd=ROOT).returncode or status
    return status


def main(argv: "list[str]", started: float) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=[*workload_classes(), "all"],
        help="one workload, or 'all' for every workload, plain and traced",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    source = (ROOT / "src").resolve()
    if source not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: repro must come from {source}, got {repro.__file__}", file=sys.stderr)
        return 3
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), started=started)
    print(json.dumps(result))
    return 0
