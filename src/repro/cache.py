"""Content-addressed fingerprints and the bounded cost-table cache.

Cost tables are a pure function of ``(workload, platform(s), scenarios,
faults, retry, timeout)`` -- the paper's methodology computes them once per
configuration and everything downstream is reuse.  This module provides the
two pieces that make that reuse safe across object identities and process
boundaries:

* :func:`fingerprint` -- a **stable** SHA-256 content hash over canonicalized
  field tuples.  Two structurally equal platforms (or workloads, scenarios,
  fault profiles, policies) fingerprint identically regardless of object
  identity, dict insertion order of *non-semantic* mappings, or Python
  process (no salted ``hash()`` anywhere).  Orders that carry meaning are
  kept: a platform's device insertion order defines its alias order, and a
  scenario grid's row order defines the scenario axis of every grid table,
  so both stay part of the content.  Graph node insertion order does *not*
  carry meaning (:class:`~repro.tasks.graph.TaskGraph` reorders tasks into a
  canonical topological order at construction), so permuting it leaves the
  fingerprint unchanged.
* :class:`TableCache` -- a bounded LRU mapping composite fingerprints to
  built objects, capped by entry count and estimated byte size, with
  hit/miss/evict counters.  :class:`~repro.devices.simulator.SimulatedExecutor`
  keeps one for cost tables and one for execution records, and the service
  layer shares a single table cache across platform executors.

Floats are canonicalized via :meth:`float.hex` (exact, bitwise, handles
``inf``/``nan``), so fingerprints never depend on ``repr`` rounding.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from collections import OrderedDict
from collections.abc import Mapping, Sequence
from functools import lru_cache
from typing import Any, Callable, Hashable

import numpy as np

__all__ = [
    "CacheStats",
    "TableCache",
    "canonical",
    "estimate_nbytes",
    "fingerprint",
    "table_key",
    "table_key_from_fingerprint",
]


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------


def _canonical_float(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "float:nan"
    return f"float:{value.hex()}"


def _canonical_dataclass(obj: Any) -> tuple:
    pairs = tuple(
        (field.name, canonical(getattr(obj, field.name)))
        for field in dataclasses.fields(obj)
    )
    return (type(obj).__name__, pairs)


_CANONICAL_ATTR = "_repro_canonical"


@lru_cache(maxsize=None)
def _condition_axis_class() -> type:
    from .scenarios.conditions import ConditionAxis

    return ConditionAxis


@lru_cache(maxsize=None)
def _scenario_class() -> type:
    from .scenarios.conditions import Scenario

    return Scenario


def _canonical_scenario(obj: Any) -> tuple:
    """Direct canonical form of a :class:`Scenario` -- the grid-fingerprint
    hot path.

    Bitwise-identical to :func:`_canonical_dataclass` output (pinned by
    tests), but assembled without the generic field walk: ``__post_init__``
    guarantees ``settings`` is a tuple of ``(axis, float)`` pairs and axes
    carry a memoized canonical form, so a 10**5-scenario fleet fingerprints
    without 10**6 recursive ``canonical`` dispatches.
    """
    settings = tuple(
        (_canonical_condition_axis(axis), _canonical_float(value))
        for axis, value in obj.settings
    )
    return (
        "Scenario",
        (
            ("name", obj.name),
            ("settings", settings),
            ("weight", _canonical_float(obj.weight)),
        ),
    )


@lru_cache(maxsize=None)
def _domain_classes() -> tuple:
    # Late imports memoized once: cache is a leaf module every layer above may
    # import, but re-running the import machinery on every recursive
    # ``canonical`` call dominates grid fingerprinting at fleet scale.
    from .devices.platform import Platform
    from .tasks.chain import TaskChain
    from .tasks.graph import TaskGraph
    from .tasks.task import MathTask

    return Platform, TaskChain, TaskGraph, MathTask


def _canonical_condition_axis(obj: Any) -> tuple:
    """Canonical form of a condition axis, memoized on the instance.

    A sampled fleet references the *same* handful of frozen axis objects from
    every one of its (possibly 10**5) scenarios; re-walking the axis dataclass
    per scenario dominates grid fingerprinting at fleet scale.  Axes are
    frozen value types with primitive fields, so the canonical tuple is stable
    for the instance's lifetime and the memo cannot go stale.
    """
    cached = getattr(obj, _CANONICAL_ATTR, None)
    if cached is None:
        cached = _canonical_dataclass(obj)
        object.__setattr__(obj, _CANONICAL_ATTR, cached)
    return cached


def canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a nested tuple of primitives with a stable ``repr``.

    The result contains only ``str``, ``int``, ``bool``, ``None`` and tuples,
    so ``repr(canonical(obj))`` is identical across processes.  Domain types
    get shape-aware treatment; unknown types raise ``TypeError`` rather than
    silently fingerprinting an identity.
    """
    Platform, TaskChain, TaskGraph, MathTask = _domain_classes()

    if obj is None or isinstance(obj, (str, int, bool)):
        return obj
    if isinstance(obj, float):
        return _canonical_float(obj)
    if isinstance(obj, np.floating):
        return _canonical_float(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, Platform):
        # Device insertion order is semantic (it defines the alias order of
        # every table built from the platform); link-key order is not (links
        # are looked up by canonical pair), so links are sorted.
        devices = tuple((alias, canonical(spec)) for alias, spec in obj.devices.items())
        links = tuple(
            sorted((pair, canonical(spec)) for pair, spec in obj.links.items())
        )
        return ("Platform", obj.name, obj.host, devices, links, canonical(obj.faults))
    if isinstance(obj, TaskChain):
        tasks = tuple(canonical(task) for task in obj.tasks)
        return ("TaskChain", obj.name, tasks)
    if isinstance(obj, TaskGraph):
        # Tasks are already in the canonical topological order -- a pure
        # function of (names, edges) -- so node insertion order cannot leak.
        tasks = tuple(canonical(task) for task in obj.tasks)
        return ("TaskGraph", obj.name, tasks, tuple(obj.edges))
    if isinstance(obj, MathTask):
        return ("MathTask", type(obj).__name__, obj.name, canonical(obj.cost()))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        if isinstance(obj, _condition_axis_class()):
            return _canonical_condition_axis(obj)
        if type(obj) is _scenario_class():
            return _canonical_scenario(obj)
        return _canonical_dataclass(obj)
    if isinstance(obj, Mapping):
        return ("mapping", tuple(sorted((canonical(k), canonical(v)) for k, v in obj.items())))
    if isinstance(obj, (frozenset, set)):
        return ("set", tuple(sorted(canonical(item) for item in obj)))
    if isinstance(obj, (tuple, list)):
        return tuple(canonical(item) for item in obj)
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for fingerprinting: {obj!r}")


def fingerprint(obj: Any) -> str:
    """Stable SHA-256 hex digest of ``obj``'s canonical content."""
    payload = repr(canonical(obj)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


_FINGERPRINT_ATTR = "_repro_content_fingerprint"

#: ``fingerprint(None)``, precomputed -- every table key digests three
#: ``None`` parts (faults/retry/timeout) on the delta-rebuild hot path.
_NONE_FINGERPRINT: str | None = None


def cached_fingerprint(obj: Any) -> str:
    """:func:`fingerprint`, memoized on the object for hot paths.

    Workloads and platforms are immutable by convention, so the digest is
    stashed on the instance (``object.__setattr__`` works on frozen
    dataclasses); objects refusing attributes fall back to recomputing.
    """
    if obj is None:
        global _NONE_FINGERPRINT
        if _NONE_FINGERPRINT is None:
            _NONE_FINGERPRINT = fingerprint(None)
        return _NONE_FINGERPRINT
    cached = getattr(obj, _FINGERPRINT_ATTR, None)
    if cached is not None:
        return cached
    digest = fingerprint(obj)
    try:
        object.__setattr__(obj, _FINGERPRINT_ATTR, digest)
    except (AttributeError, TypeError):
        pass
    return digest


_GRID_FINGERPRINT_ATTR = "_repro_grid_fingerprint"
_GRID_FINGERPRINT_PARTS_ATTR = "_repro_grid_fingerprint_parts"


# Late imports memoized once: cache is a leaf module, but its hot keying paths
# should not re-run the import machinery on every call.
@lru_cache(maxsize=None)
def _scenario_grid_class() -> type:
    from .scenarios.grid import ScenarioGrid

    return ScenarioGrid


@lru_cache(maxsize=None)
def _platform_class() -> type:
    from .devices.platform import Platform

    return Platform


def _grid_fingerprint_parts(scenarios: Any) -> tuple:
    """Ordered per-scenario digests of a grid, memoized on the grid."""
    cached = getattr(scenarios, _GRID_FINGERPRINT_PARTS_ATTR, None)
    if cached is not None:
        return cached
    parts = tuple(cached_fingerprint(s) for s in scenarios.scenarios)
    try:
        object.__setattr__(scenarios, _GRID_FINGERPRINT_PARTS_ATTR, parts)
    except (AttributeError, TypeError):
        pass
    return parts


def _grid_digest(parts: tuple) -> str:
    # Parts are fixed-width hex digests, so a NUL join is injective and much
    # cheaper than repr-ing a tuple of s strings.
    payload = "\x00".join(("ScenarioGrid",) + parts).encode("ascii")
    return hashlib.sha256(payload).hexdigest()


def _scenarios_fingerprint(scenarios: Any) -> str:
    """Fingerprint of a table key's ``scenarios`` part.

    A :class:`~repro.scenarios.grid.ScenarioGrid` is digested as the ordered
    combination of its scenarios' :func:`cached_fingerprint` values (memoized
    on the grid), so re-keying a grid that swaps one scenario -- the delta
    rebuild hot path -- re-hashes ``s`` digests instead of re-canonicalizing
    every axis of every scenario.
    """
    if scenarios is None:
        return cached_fingerprint(None)
    if not isinstance(scenarios, _scenario_grid_class()):
        return cached_fingerprint(scenarios)
    cached = getattr(scenarios, _GRID_FINGERPRINT_ATTR, None)
    if cached is not None:
        return cached
    digest = _grid_digest(_grid_fingerprint_parts(scenarios))
    try:
        object.__setattr__(scenarios, _GRID_FINGERPRINT_ATTR, digest)
    except (AttributeError, TypeError):
        pass
    return digest


def seed_updated_grid_fingerprint(base: Any, updated: Any, changed: "Any") -> None:
    """Pre-seed ``updated``'s grid fingerprint from ``base``'s memoized parts.

    Delta rebuilds construct a fresh grid differing from ``base`` in a handful
    of rows; re-digesting only those rows (``changed`` is their index set)
    keeps re-keying O(changes) instead of O(scenarios).  The seeded digest is
    exactly what :func:`_scenarios_fingerprint` would compute from scratch.
    """
    parts = list(_grid_fingerprint_parts(base))
    for i in changed:
        parts[i] = cached_fingerprint(updated.scenarios[i])
    parts = tuple(parts)
    try:
        object.__setattr__(updated, _GRID_FINGERPRINT_PARTS_ATTR, parts)
        object.__setattr__(updated, _GRID_FINGERPRINT_ATTR, _grid_digest(parts))
    except (AttributeError, TypeError):
        pass


def table_key(
    workload: Any,
    platform: Any,
    *,
    devices: Any = None,
    scenarios: Any = None,
    faults: Any = None,
    retry: Any = None,
    timeout: Any = None,
) -> str:
    """Composite fingerprint keying one cost-table build configuration.

    ``platform`` may be a single platform or a sequence (explicit grid
    platforms); either way the key is content-addressed, so rebuilding an
    equal configuration from scratch hits the cache.
    """
    return table_key_from_fingerprint(
        cached_fingerprint(workload),
        platform,
        devices=devices,
        scenarios=scenarios,
        faults=faults,
        retry=retry,
        timeout=timeout,
    )


def table_key_from_fingerprint(
    workload_fingerprint: str,
    platform: Any,
    *,
    devices: Any = None,
    scenarios: Any = None,
    faults: Any = None,
    retry: Any = None,
    timeout: Any = None,
) -> str:
    """:func:`table_key` with the workload already digested.

    Delta rebuilds carry the workload's fingerprint in their build context
    rather than the workload object itself; this entry point lets them re-key
    updated tables under the same scheme as :func:`table_key`.
    """
    if platform is None or isinstance(platform, _platform_class()):
        platform_part = ("platform", cached_fingerprint(platform))
    else:
        platform_part = ("platforms", tuple(cached_fingerprint(p) for p in platform))
    parts = (
        "table",
        workload_fingerprint,
        platform_part,
        ("devices", canonical(tuple(devices) if devices is not None else None)),
        ("scenarios", _scenarios_fingerprint(scenarios)),
        ("faults", cached_fingerprint(faults)),
        ("retry", cached_fingerprint(retry)),
        ("timeout", cached_fingerprint(timeout)),
    )
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# size accounting
# ---------------------------------------------------------------------------


def estimate_nbytes(obj: Any, _depth: int = 0) -> int:
    """Rough payload size: the ndarray bytes reachable through dataclass
    fields, tuples and mappings, plus a small per-object overhead.

    Scenarios and scenario grids are charged the flat overhead instead of
    being walked: a fused grid table references the grid it was built from as
    provenance, not payload, so sizing a fleet-scale table costs O(table
    fields) rather than O(users).
    """
    if _depth > 6:
        return 64
    if obj is None or isinstance(obj, (int, float)):
        return 32  # the fallback's charge, minus its isinstance chain (hot: table scalars)
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + 64
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        if isinstance(obj, (_scenario_class(), _scenario_grid_class())):
            return 64
        return 64 + sum(
            estimate_nbytes(getattr(obj, field.name), _depth + 1)
            for field in dataclasses.fields(obj)
        )
    if isinstance(obj, Mapping):
        return 64 + sum(estimate_nbytes(value, _depth + 1) for value in obj.values())
    if isinstance(obj, (tuple, list, set, frozenset)):
        return 64 + sum(estimate_nbytes(item, _depth + 1) for item in obj)
    if isinstance(obj, str):
        return 49 + len(obj)
    return 32


# ---------------------------------------------------------------------------
# the bounded LRU cache
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """Counter snapshot of one :class:`TableCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0
    nbytes: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class TableCache:
    """Bounded LRU cache keyed by content fingerprints.

    Entries are evicted least-recently-used first whenever the entry count
    exceeds ``max_entries`` or the estimated payload size exceeds
    ``max_bytes`` -- except that the most recently inserted entry is never
    evicted by its own insertion, so a single oversized table still caches.
    All traffic is counted (``hits`` / ``misses`` / ``evictions``).
    """

    def __init__(self, max_entries: int = 256, max_bytes: int = 256 * 2**20) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[Hashable, tuple[Any, int]]" = OrderedDict()
        self._nbytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable, default: Any = None) -> Any:
        entry = self._entries.get(key)
        if entry is None:
            self._misses += 1
            return default
        self._entries.move_to_end(key)
        self._hits += 1
        return entry[0]

    def put(self, key: Hashable, value: Any, nbytes: int | None = None) -> None:
        if key in self._entries:
            _, old_size = self._entries.pop(key)
            self._nbytes -= old_size
        size = estimate_nbytes(value) if nbytes is None else int(nbytes)
        self._entries[key] = (value, size)
        self._nbytes += size
        self._evict()

    def put_many(self, keys: Sequence[Hashable], make: Callable[[int], Any], nbytes: int) -> None:
        """Insert ``make(j)`` of size ``nbytes`` under ``keys[j]`` for every ``j``.

        Leaves the cache exactly as ``put(keys[j], make(j), nbytes)`` in
        order would: the same entries in the same LRU order and the same
        counters.  When a batch of new, distinct keys overflows the cache by
        itself, the prefix its own later insertions would evict is counted as
        evicted without being stored, so ``make(j)`` runs only for stored
        items.
        """
        keys = list(keys)
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        # The newest items that fit together (at least one) survive.  If they
        # leave a prefix out, that prefix and every entry resident before the
        # batch are evicted by the time it ends -- unless a key repeats or is
        # already resident: re-putting a key moves its entry and can free
        # room, so such batches replay item by item.
        fit = min(self.max_entries, self.max_bytes // nbytes if nbytes else len(keys))
        start = max(len(keys) - max(fit, 1), 0)
        if start:
            distinct = set(keys)
            if len(distinct) == len(keys) and distinct.isdisjoint(self._entries):
                self._evictions += len(self._entries) + start
                self._entries.clear()
                self._nbytes = 0
            else:
                start = 0
        for j in range(start, len(keys)):
            self.put(keys[j], make(j), nbytes)

    def get_or_build(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """Return the cached value, building and inserting it on a miss."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self._hits += 1
            return entry[0]
        self._misses += 1
        value = build()
        size = estimate_nbytes(value)
        self._entries[key] = (value, size)
        self._nbytes += size
        self._evict()
        return value

    def _evict(self) -> None:
        while len(self._entries) > 1 and (
            len(self._entries) > self.max_entries or self._nbytes > self.max_bytes
        ):
            _, (_, size) = self._entries.popitem(last=False)
            self._nbytes -= size
            self._evictions += 1

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        self._nbytes = 0
        return dropped

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            entries=len(self._entries),
            nbytes=self._nbytes,
        )
