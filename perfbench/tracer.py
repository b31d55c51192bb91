"""Layer spans for the traced run, recorded from outside the program.

The benchmark does not edit ``src/``.  For a traced pass it replaces the
public functions of each layer -- module functions and class methods -- with
thin wrappers that open a span around every call, and it restores the
originals afterwards.  A module that imported a function by name holds its
own reference, so installing a wrapper also rebinds every such reference in
the ``repro`` and ``perfbench`` modules.

A span's *self* time is its duration minus the part covered by its child
spans; a layer's *busy* time is the wall time covered by its outermost spans,
so a layer re-entered recursively (a fingerprint inside a fingerprint) is
counted once in ``busy_s`` and split correctly in ``self_s``.  Spans are
aggregated per layer as they close instead of being stored, so a traced pass
over a million calls needs no more memory than an untraced one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable


class LayerTotals:
    """Per-layer aggregate of closed spans (``depth`` counts open ones)."""

    __slots__ = ("calls", "self_s", "busy_s", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.busy_s = 0.0
        self.depth = 0

    def copy(self) -> "LayerTotals":
        other = LayerTotals()
        other.calls, other.self_s, other.busy_s = self.calls, self.self_s, self.busy_s
        return other


class Tracer:
    """Nested spans on one thread, folded into per-layer totals.

    ``covered_s`` is the wall time inside top-level spans; the harness
    compares it with the timed operation wall time to report the share no
    layer accounts for.  ``enabled`` gates every wrapper, so the harness can
    run its own checks inside a traced pass without recording them.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.enabled = True
        self.layers: dict[str, LayerTotals] = {}
        self.counts: dict[str, float] = {}
        self.covered_s = 0.0
        self.engines: list = []
        self._stack: list[list] = []

    def layer(self, name: str) -> LayerTotals:
        totals = self.layers.get(name)
        if totals is None:
            totals = self.layers[name] = LayerTotals()
        return totals

    def enter(self, totals: LayerTotals) -> list:
        totals.depth += 1
        frame = [totals, self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        stack = self._stack
        if not stack or stack[-1] is not frame:
            raise RuntimeError("span closed out of order")
        stack.pop()
        totals, start, child_s = frame
        duration = end - start
        totals.calls += 1
        totals.self_s += duration - child_s
        totals.depth -= 1
        if not totals.depth:
            totals.busy_s += duration
        if stack:
            stack[-1][2] += duration
        else:
            self.covered_s += duration

    @contextmanager
    def span(self, layer: str):
        if not self.enabled:
            yield
            return
        frame = self.enter(self.layer(layer))
        try:
            yield
        finally:
            self.exit(frame)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def totals(self, layer: str) -> LayerTotals:
        return self.layers.get(layer) or LayerTotals()

    def snapshot(self) -> dict[str, LayerTotals]:
        return {layer: totals.copy() for layer, totals in self.layers.items()}


# ---------------------------------------------------------------------------
# instrumentation targets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One public function to time: ``module``, dotted ``name`` inside it,
    the layer (or a ``(args, kwargs) -> layer`` chooser) and an optional
    ``hook(tracer, result, args, kwargs)`` that reads counts off the result."""

    module: str
    name: str
    layer: "str | Callable[[tuple, dict], str]"
    hook: "Callable[[Tracer, Any, tuple, dict], None] | None" = None


def _fault_aware(args: tuple, kwargs: dict) -> str:
    return "faults" if kwargs.get("retry") is not None else "batch"


def _count_len(name: str):
    def hook(tracer: Tracer, result, args, kwargs) -> None:
        tracer.count(name, len(result))

    return hook


def _search_space_hook(tracer: Tracer, result, args, kwargs) -> None:
    tracer.count("driver.placements", result.n_evaluated)
    tracer.count("driver.feasible", result.n_feasible)


def _build_tables_hook(tracer: Tracer, result, args, kwargs) -> None:
    tracer.count("tables.builds")
    _slices_hook(tracer, result, args, kwargs)


def _slices_hook(tracer: Tracer, result, args, kwargs) -> None:
    stats = getattr(result, "slice_stats", None)
    if stats is not None:
        tracer.count("tables.slices_built", stats.built)


def _grid_hook(tracer: Tracer, result, args, kwargs) -> None:
    tracer.count("grid.pairs", result.n_scenarios * len(result))


def _measure_hook(tracer: Tracer, result, args, kwargs) -> None:
    tracer.count("measurement.samples", sum(v.size for v in result.as_dict().values()))


def _engine_hook(tracer: Tracer, result, args, kwargs) -> None:
    tracer.engines.append(args[0])


def _submit_hook(tracer: Tracer, result, args, kwargs) -> None:
    tracer.count("service.response_hits", int(result.cache_info.response_hit))


def _sample_hook(tracer: Tracer, result, args, kwargs) -> None:
    tracer.count("fleet.users_sampled", result.n_users)


def _resample_hook(tracer: Tracer, result, args, kwargs) -> None:
    tracer.count("fleet.users_sampled", len(result[1]))


_REDUCERS = tuple(
    Target("repro.search.robust", f"{cls}.reduce", "robust.reduce")
    for cls in (
        "WorstCaseObjective",
        "ExpectedValueObjective",
        "QuantileObjective",
        "SLOObjective",
        "RegretObjective",
    )
)

#: Every layer boundary the traced run times, in the layer vocabulary of the
#: per-layer metrics.
TARGETS: tuple[Target, ...] = (
    Target("repro.service.placement", "PlacementService.submit", "service", _submit_hook),
    Target("repro.cache", "fingerprint", "cache.fingerprint"),
    Target("repro.cache", "cached_fingerprint", "cache.fingerprint"),
    Target("repro.cache", "table_key", "cache.fingerprint"),
    Target("repro.cache", "table_key_from_fingerprint", "cache.fingerprint"),
    Target("repro.cache", "TableCache.get", "cache.lookup"),
    Target("repro.cache", "TableCache.get_or_build", "cache.lookup"),
    Target("repro.cache", "TableCache.put", "cache.put"),
    Target("repro.devices.tables", "build_tables", "tables", _build_tables_hook),
    Target("repro.devices.simulator", "SimulatedExecutor.cost_tables", "tables"),
    Target("repro.devices.simulator", "SimulatedExecutor.grid_cost_tables", "tables"),
    Target("repro.devices.batch", "execute_placements", "batch", _count_len("batch.placements")),
    Target("repro.devices.simulator", "SimulatedExecutor.execute_batch", _fault_aware),
    Target("repro.devices.simulator", "SimulatedExecutor.iter_execute_batches", _fault_aware),
    Target(
        "repro.faults.engine",
        "execute_fault_placements",
        "faults",
        _count_len("faults.placements"),
    ),
    Target("repro.devices.grid", "execute_placements_grid", "grid", _grid_hook),
    Target("repro.devices.grid", "GridCostTables.updated_many", "grid", _slices_hook),
    Target("repro.search.planner", "plan_workload", "planner"),
    Target("repro.search.planner", "plan_grid", "planner"),
    Target("repro.search.driver", "search_space", "driver", _search_space_hook),
    Target("repro.search.robust", "search_grid", "robust"),
    *_REDUCERS,
    Target("repro.devices.simulator", "SimulatedExecutor.measure_batch", "measurement", _measure_hook),
    Target("repro.core.engine", "ComparisonEngine.__init__", "core.bootstrap", _engine_hook),
    Target("repro.core.clustering", "relative_scores", "core.sort"),
    Target("repro.core.clustering", "final_assignment", "core.sort"),
    Target("repro.core.sorting", "three_way_bubble_sort", "core.sort"),
    Target("repro.core.scores", "FinalClustering.best_cluster", "selection"),
    Target("repro.fleet.sample", "sample_fleet", "fleet", _sample_hook),
    Target("repro.fleet.sample", "SampledFleet.resample_users", "fleet", _resample_hook),
)


def _wrap(tracer: Tracer, fn: Callable, target: Target) -> Callable:
    hook, enter, exit_ = target.hook, tracer.enter, tracer.exit
    choose = target.layer if callable(target.layer) else None
    fixed = None if choose else tracer.layer(target.layer)

    if inspect.isgeneratorfunction(fn):
        # Time every resume: the work of a generator runs in next(), not in
        # the call that creates it.
        @functools.wraps(fn)
        def generator_wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            totals = fixed or tracer.layer(choose(args, kwargs))
            while True:
                frame = enter(totals) if tracer.enabled else None
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    if frame is not None:
                        exit_(frame)
                yield item

        return generator_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        frame = enter(fixed or tracer.layer(choose(args, kwargs)))
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_(frame)
        if hook is not None:
            hook(tracer, result, args, kwargs)
        return result

    return wrapper


def _rebind(old: Callable, new: Callable) -> None:
    """Point every module-level name bound to ``old`` at ``new``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith(("repro", "perfbench")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is old:
                namespace[attr] = new


class Instrumentation:
    """Install wrappers for ``targets`` around one traced pass."""

    def __init__(self, tracer: Tracer, targets: tuple[Target, ...] = TARGETS) -> None:
        self.tracer = tracer
        self.targets = targets
        self._installed: list[tuple[Any, str, Callable, Callable, bool]] = []

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("instrumentation is already installed")
        for target in self.targets:
            owner: Any = importlib.import_module(target.module)
            *path, attr = target.name.split(".")
            for part in path:
                owner = getattr(owner, part)
            is_class = isinstance(owner, type)
            original = owner.__dict__[attr] if is_class else getattr(owner, attr)
            wrapper = _wrap(self.tracer, original, target)
            setattr(owner, attr, wrapper)
            if not is_class:
                _rebind(original, wrapper)
            self._installed.append((owner, attr, original, wrapper, is_class))

    def remove(self) -> None:
        for owner, attr, original, wrapper, is_class in reversed(self._installed):
            setattr(owner, attr, original)
            if not is_class:
                _rebind(wrapper, original)
        self._installed.clear()

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    *,
    table_cache_delta: "tuple[int, int, int]",
    ops_wall_s: float,
    overhead_frac: float,
) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by their published names.

    ``table_cache_delta`` is the ``(hits, misses, evictions)`` change of the
    program's table caches over the pass; ``ops_wall_s`` the summed wall
    time of the timed operations.
    """
    t = tracer.totals
    c = tracer.counts.get
    hits, misses, evictions = table_cache_delta
    pairs = sum(engine.comparator_calls for engine in tracer.engines)
    lookups = sum(engine.lookups for engine in tracer.engines)
    placements = c("driver.placements", 0)
    fingerprint = t("cache.fingerprint")
    return {
        "service.calls": t("service").calls,
        "service.self_s": t("service").self_s,
        "service.response_hit_ratio": _ratio(c("service.response_hits", 0), t("service").calls),
        "cache.fingerprint_calls": fingerprint.calls,
        "cache.fingerprint_s": fingerprint.self_s,
        "cache.table_hit_ratio": _ratio(hits, hits + misses),
        "cache.evictions": evictions,
        "cache.put_s": t("cache.put").self_s,
        "tables.builds": c("tables.builds", 0),
        "tables.build_s": t("tables").self_s,
        "tables.slices_built": c("tables.slices_built", 0),
        "batch.placements": c("batch.placements", 0),
        "batch.busy_s": t("batch").busy_s,
        "grid.pairs": c("grid.pairs", 0),
        "grid.busy_s": t("grid").busy_s,
        "faults.placements": c("faults.placements", 0),
        "faults.busy_s": t("faults").busy_s,
        "planner.calls": t("planner").calls,
        "planner.busy_s": t("planner").busy_s,
        "driver.calls": t("driver").calls,
        "driver.placements": placements,
        "driver.feasible_ratio": _ratio(c("driver.feasible", 0), placements),
        "driver.self_s": t("driver").self_s,
        "robust.calls": t("robust").calls,
        "robust.self_s": t("robust").self_s,
        "robust.reduce_s": t("robust.reduce").busy_s,
        "measurement.samples": c("measurement.samples", 0),
        "measurement.busy_s": t("measurement").busy_s,
        "core.pairs_bootstrapped": pairs,
        "core.bootstrap_s": t("core.bootstrap").busy_s,
        "core.lookups": lookups,
        "core.sort_s": t("core.sort").busy_s,
        "selection.busy_s": t("selection").busy_s,
        "fleet.users_sampled": c("fleet.users_sampled", 0),
        "fleet.sample_s": t("fleet").busy_s,
        "trace.unattributed_frac": _ratio(ops_wall_s - tracer.covered_s, ops_wall_s),
        "trace.overhead_frac": overhead_frac,
    }
