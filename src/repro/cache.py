"""Content-addressed fingerprints and the bounded cost-table cache.

Cost tables are a pure function of ``(workload, platform(s), scenarios,
faults, retry, timeout)`` -- the paper's methodology computes them once per
configuration and everything downstream is reuse.  This module provides the
two pieces that make that reuse safe across object identities and process
boundaries:

* :func:`fingerprint` -- a **stable** SHA-256 content hash over one tagged
  binary encoding (below).  Two structurally equal platforms (or workloads,
  scenarios, fault profiles, policies) fingerprint identically regardless of
  object identity, dict insertion order of *non-semantic* mappings, or
  Python process (no salted ``hash()`` anywhere).  Orders that carry meaning
  are kept: a platform's device insertion order defines its alias order,
  and a scenario grid's row order defines the scenario axis of every grid
  table, so both stay part of the content.  Graph node insertion order does
  *not* carry meaning (:class:`~repro.tasks.graph.TaskGraph` reorders tasks
  into a canonical topological order at construction).
* :class:`TableCache` -- a bounded LRU mapping composite fingerprints to
  built objects, capped by entry count and estimated byte size, with
  hit/miss/evict counters.  :class:`~repro.devices.simulator.SimulatedExecutor`
  keeps one for cost tables and one for execution records, and the service
  layer shares a single table cache across platform executors.

The key schema.  :func:`_encode` writes a one-byte type tag and a payload;
sizes and counts are unsigned 64-bit little-endian, so the bytes are
self-delimiting and values of different types never share them.  ``N``
None; ``T``/``F`` booleans (never equal to 1/0); ``i`` an int64 and ``I`` a
wider int (length, two's complement); ``f`` a float's 8 IEEE-754 bytes
(bitwise, so ``-0.0 != 0.0``; every NaN is one canonical NaN); ``s`` a str
(length, UTF-8); ``t`` a list or tuple (count, items); ``m`` a mapping and
``u`` a set (count, entries sorted by their bytes, so mixed key types are
fine); ``d`` a dataclass (type name, field count, name/value pairs); and
the domain records ``P`` platform, ``C`` chain, ``G`` graph, ``K`` task (by
its analytic cost), ``X`` scenario and ``g`` scenario grid.  NumPy scalars
encode as the Python scalars they equal; other types raise ``TypeError``.
A scenario is laid out as a row -- name, float64 weight, then per setting
the axis bytes (memoized on the axis) and the float64 value -- so a
columnar grid can emit the same bytes from its columns.  A grid is its
rows' digests in order, so a delta rebuild re-keys only replaced rows.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from collections import OrderedDict
from collections.abc import Mapping, Sequence
from functools import lru_cache
from operator import attrgetter, methodcaller
from typing import Any, Callable, Hashable

import numpy as np

__all__ = [
    "CacheStats",
    "TableCache",
    "estimate_nbytes",
    "fingerprint",
    "table_key",
    "table_key_from_fingerprint",
]


# ---------------------------------------------------------------------------
# the key encoder
# ---------------------------------------------------------------------------

_U64 = struct.Struct("<Q").pack
_I64 = struct.Struct("<q").pack
_F64 = struct.Struct("<d").pack
_NAN = bytes.fromhex("000000000000f87f")  # what every NaN payload and sign encodes as
_KEY_BYTES_ATTR = "_repro_key_bytes"


def _f64(value: float) -> bytes:
    return _F64(value) if value == value else _NAN


def _str_bytes(value: str) -> bytes:
    raw = value.encode("utf-8", "surrogatepass")
    return _U64(len(raw)) + raw


def _encode(obj: Any, out: bytearray) -> None:
    """Append ``obj``'s tagged encoding to ``out`` (see the module docstring)."""
    encoder = _ENCODERS.get(type(obj))
    if encoder is None:
        encoder = _encoder_for(type(obj), obj)
    encoder(obj, out)


def _encode_int(obj: int, out: bytearray) -> None:
    obj = int(obj)
    try:
        out += b"i" + _I64(obj)
    except struct.error:
        raw = obj.to_bytes(obj.bit_length() // 8 + 1, "little", signed=True)
        out += b"I" + _U64(len(raw)) + raw


def _encode_sequence(obj: Any, out: bytearray) -> None:
    out += b"t" + _U64(len(obj))
    for item in obj:
        _encode(item, out)


def _encode_entries(tag: bytes, entries: Any, out: bytearray) -> None:
    """Tagged count plus the entries' encodings, sorted bytewise."""
    encoded = []
    for entry in entries:
        buffer = bytearray()
        for value in entry:
            _encode(value, buffer)
        encoded.append(buffer)
    encoded.sort()
    out += tag + _U64(len(encoded)) + b"".join(encoded)


def _dataclass_encoder(cls: type) -> Callable[[Any, bytearray], None]:
    """Encoder of one dataclass type; its header and field labels are built once."""
    names = tuple(field.name for field in dataclasses.fields(cls))
    head = b"d" + _str_bytes(cls.__name__) + _U64(len(names))
    labels = tuple((name, b"s" + _str_bytes(name)) for name in names)

    def encode(obj: Any, out: bytearray) -> None:
        out += head
        for name, label in labels:
            out += label
            _encode(getattr(obj, name), out)

    return encode


def _axis_encoder(cls: type) -> Callable[[Any, bytearray], None]:
    """:func:`_dataclass_encoder` for a condition axis, memoized on the instance.

    A sampled fleet references the *same* handful of frozen axis objects from
    every one of its (possibly 10**5) scenarios, so each axis is walked once.
    """
    encode_fields = _dataclass_encoder(cls)

    def encode(obj: Any, out: bytearray) -> None:
        cached = getattr(obj, _KEY_BYTES_ATTR, None)
        if cached is None:
            buffer = bytearray()
            encode_fields(obj, buffer)
            cached = bytes(buffer)
            try:
                object.__setattr__(obj, _KEY_BYTES_ATTR, cached)
            except (AttributeError, TypeError):
                pass
        out += cached

    return encode


def _encode_scenario(obj: Any, out: bytearray) -> None:
    settings = obj.settings
    out += b"X" + _str_bytes(obj.name) + _f64(float(obj.weight)) + _U64(len(settings))
    for axis, value in settings:
        cached = getattr(axis, _KEY_BYTES_ATTR, None)
        if cached is None:
            _encode(axis, out)
        else:
            out += cached
        out += _f64(value)


def _encode_grid(obj: Any, out: bytearray) -> None:
    # Row digests are fixed-width hex, so their concatenation is injective.
    parts = _grid_fingerprint_parts(obj)
    out += b"g" + _U64(len(parts)) + "".join(parts).encode("ascii")


def _record(tag: bytes, *fields: Callable[[Any], Any]) -> Callable[[Any, bytearray], None]:
    """Encoder of a domain type: ``tag``, then the encoding of each ``field(obj)``."""

    def encode(obj: Any, out: bytearray) -> None:
        out += tag
        for field in fields:
            _encode(field(obj), out)

    return encode


_ENCODERS: dict = {
    type(None): lambda obj, out: out.extend(b"N"),
    bool: lambda obj, out: out.extend(b"T" if obj else b"F"),
    int: _encode_int,
    float: lambda obj, out: out.extend(b"f" + _f64(float(obj))),
    str: lambda obj, out: out.extend(b"s" + _str_bytes(obj)),
    tuple: _encode_sequence,
    list: _encode_sequence,
    dict: lambda obj, out: _encode_entries(b"m", obj.items(), out),
    frozenset: lambda obj, out: _encode_entries(b"u", ((item,) for item in obj), out),
}
_ENCODERS[set] = _ENCODERS[frozenset]


def _encoder_for(cls: type, obj: Any) -> Callable[[Any, bytearray], None]:
    """Resolve (and remember) the encoder of a type not seen before."""
    # Late imports: cache is a leaf module every layer above may import.
    from .devices.platform import Platform
    from .scenarios.conditions import ConditionAxis, Scenario
    from .scenarios.grid import ScenarioGrid
    from .tasks.chain import TaskChain
    from .tasks.graph import TaskGraph
    from .tasks.task import MathTask

    if cls is Scenario:
        encoder = _encode_scenario
    elif cls is ScenarioGrid:
        encoder = _encode_grid
    elif dataclasses.is_dataclass(cls) and not issubclass(cls, Platform):
        encoder = (_axis_encoder if issubclass(cls, ConditionAxis) else _dataclass_encoder)(cls)
    else:
        name = attrgetter("name")
        rules = (
            (str, _ENCODERS[str]),
            ((int, np.integer), _encode_int),
            ((float, np.floating), _ENCODERS[float]),
            # Device insertion order is semantic (it defines the alias order
            # of every table built from the platform), link-key order is not.
            (Platform, _record(b"P", name, attrgetter("host"), lambda p: tuple(p.devices.items()),
                               attrgetter("links"), attrgetter("faults"))),
            (TaskChain, _record(b"C", name, attrgetter("tasks"))),
            (TaskGraph, _record(b"G", name, attrgetter("tasks"), attrgetter("edges"))),
            (MathTask, _record(b"K", lambda t: type(t).__name__, name, methodcaller("cost"))),
            (Mapping, _ENCODERS[dict]),
            ((set, frozenset), _ENCODERS[frozenset]),
            ((tuple, list), _encode_sequence),
        )
        encoder = next((rule for types, rule in rules if issubclass(cls, types)), None)
        if encoder is None:
            raise TypeError(f"cannot fingerprint {cls.__name__}: {obj!r}")
    _ENCODERS[cls] = encoder
    return encoder


def fingerprint(obj: Any) -> str:
    """Stable SHA-256 hex digest of ``obj``'s encoded content."""
    out = bytearray()
    _encode(obj, out)
    return hashlib.sha256(out).hexdigest()


_FINGERPRINT_ATTR = "_repro_content_fingerprint"

#: ``fingerprint(None)``: every table key digests three ``None`` parts
#: (faults/retry/timeout) on the delta-rebuild hot path.
_NONE_FINGERPRINT = fingerprint(None)


def cached_fingerprint(obj: Any) -> str:
    """:func:`fingerprint`, memoized on the object for hot paths.

    Workloads and platforms are immutable by convention, so the digest is
    stashed on the instance (``object.__setattr__`` works on frozen
    dataclasses); objects refusing attributes fall back to recomputing.
    """
    if obj is None:
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


_GRID_FINGERPRINT_PARTS_ATTR = "_repro_grid_fingerprint_parts"


@lru_cache(maxsize=None)
def _scenario_classes() -> tuple:
    """``(Scenario, ScenarioGrid)``, imported once off the hot paths."""
    from .scenarios.conditions import Scenario
    from .scenarios.grid import ScenarioGrid

    return Scenario, ScenarioGrid


@lru_cache(maxsize=None)
def _provenance_classes() -> tuple:
    """Scenarios, scenario grids and grid build contexts: what a table
    references as provenance, not payload."""
    from .devices.grid import GridBuildContext

    return (*_scenario_classes(), GridBuildContext)


@lru_cache(maxsize=None)
def _platform_class() -> type:
    from .devices.platform import Platform

    return Platform


def _grid_fingerprint_parts(scenarios: Any) -> tuple:
    """Ordered per-scenario digests of a grid, memoized on the grid.

    Keying a grid by its rows' digests lets a delta rebuild that swaps a few
    scenarios re-hash only those rows (:func:`seed_updated_grid_fingerprint`).
    """
    cached = getattr(scenarios, _GRID_FINGERPRINT_PARTS_ATTR, None)
    if cached is not None:
        return cached
    parts = tuple(_row_digests(scenarios))
    try:
        object.__setattr__(scenarios, _GRID_FINGERPRINT_PARTS_ATTR, parts)
    except (AttributeError, TypeError):
        pass
    return parts


_CANONICAL_NAN = np.frombuffer(_NAN, dtype="<f8")[0]

#: Grids with fewer rows encode each row's scenario one by one: NumPy's
#: fixed cost per call outweighs its per-row saving on a serving request's
#: few scenarios.
_BLOCKWISE_MIN_ROWS = 128


def _le_bytes(column: np.ndarray) -> np.ndarray:
    """``(n, 8)`` little-endian bytes of a float64 column, NaNs canonical."""
    column = np.where(column == column, column, _CANONICAL_NAN)
    return column.astype("<f8", copy=False).view(np.uint8).reshape(-1, 8)


def _row_digests(grid: Any) -> list:
    """The content digests of every row of a scenario grid.

    Each is bit for bit the digest of the row's :class:`Scenario` (see
    :func:`_encode_scenario`).  Small grids encode their scenario views one
    by one.  Large ones emit the bytes from their columns: rows that pin the
    same axis codes and whose names encode to the same length share one
    layout -- tag, name, weight, setting count, then per setting the axis
    bytes and the value -- so each such block writes its rows with NumPy at
    once and only the hash runs per row.  Blocks run in order of their first
    row and settings in order, so an axis that cannot be encoded raises where
    encoding the scenarios one by one would.
    """
    if len(grid) < _BLOCKWISE_MIN_ROWS:
        digests = []
        for scenario in grid.scenarios:
            out = bytearray()
            _encode_scenario(scenario, out)
            digests.append(hashlib.sha256(out).hexdigest())
        return digests
    codes, values, weights = grid.axis_codes, grid.axis_values, grid.weights
    raws = [name.encode("utf-8", "surrogatepass") for name in grid.names]
    n = len(raws)
    lengths = np.fromiter(map(len, raws), dtype=np.intp, count=n)
    signature = np.zeros(n, dtype=np.intp)
    if codes.shape[0]:
        # return_index takes numpy's fast path for unique columns.
        signature = np.unique(codes, axis=1, return_index=True, return_inverse=True)[2].reshape(-1)
    _, first, block_of = np.unique(
        signature * (int(lengths.max()) + 1) + lengths, return_index=True, return_inverse=True
    )
    members = np.argsort(block_of, kind="stable")
    ends = np.cumsum(np.bincount(block_of))
    digests: list = [None] * n
    sha256 = hashlib.sha256
    for block in np.argsort(first, kind="stable").tolist():
        rows = members[ends[block - 1] if block else 0 : ends[block]]
        row_list = rows.tolist()
        pinned = [code for code in codes[:, row_list[0]].tolist() if code >= 0]
        size = int(lengths[row_list[0]])
        pieces = [
            np.frombuffer(b"X" + _U64(size), dtype=np.uint8),
            np.frombuffer(b"".join([raws[row] for row in row_list]), dtype=np.uint8).reshape(-1, size),
            _le_bytes(weights[rows]),
            np.frombuffer(_U64(len(pinned)), dtype=np.uint8),
        ]
        for step, code in enumerate(pinned):
            axis = bytearray()
            _encode(grid.axes[code], axis)  # memoized on the axis
            pieces += [np.frombuffer(axis, dtype=np.uint8), _le_bytes(values[step, rows])]
        blob = np.hstack([np.broadcast_to(piece, (len(rows), piece.shape[-1])) for piece in pieces]).tobytes()
        width = len(blob) // len(rows)
        for row, at in zip(row_list, range(0, len(blob), width)):
            digests[row] = sha256(blob[at : at + width]).hexdigest()
    return digests


def seed_updated_grid_fingerprint(base: Any, updated: Any, changed: "Any") -> list:
    """Pre-seed ``updated``'s grid fingerprint from ``base``'s memoized parts.

    Delta rebuilds construct a fresh grid differing from ``base`` in a handful
    of rows; re-digesting only those rows (``changed`` is their index set)
    keeps re-keying O(changes) instead of O(scenarios).  The seeded digest is
    exactly what :func:`cached_fingerprint` would compute from scratch.
    Returns the changed rows' digests, in ``changed`` order.
    """
    changed = list(changed)
    digests = [cached_fingerprint(scenario) for scenario in updated._take(changed)]
    parts = list(_grid_fingerprint_parts(base))
    for i, digest in zip(changed, digests):
        parts[i] = digest
    parts = tuple(parts)
    try:
        object.__setattr__(updated, _GRID_FINGERPRINT_PARTS_ATTR, parts)
        object.__setattr__(updated, _FINGERPRINT_ATTR, fingerprint(updated))
    except (AttributeError, TypeError):
        pass
    return digests


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
    updated tables under the same scheme as :func:`table_key`.  One platform
    keys as its digest (a str), a platform sequence as a tuple of digests.
    """
    if platform is None or isinstance(platform, _platform_class()):
        platform_part = cached_fingerprint(platform)
    else:
        platform_part = tuple(cached_fingerprint(p) for p in platform)
    return fingerprint(
        (
            "table",
            workload_fingerprint,
            platform_part,
            tuple(devices) if devices is not None else None,
            cached_fingerprint(scenarios),
            cached_fingerprint(faults),
            cached_fingerprint(retry),
            cached_fingerprint(timeout),
        )
    )


# ---------------------------------------------------------------------------
# size accounting
# ---------------------------------------------------------------------------


def estimate_nbytes(obj: Any, _depth: int = 0) -> int:
    """Rough payload size: the ndarray bytes reachable through dataclass
    fields, tuples and mappings, plus a small per-object overhead.

    Scenarios, scenario grids and grid build contexts are charged the flat
    overhead instead of being walked: a fused grid table references the grid,
    base platform and task costs it was built from as provenance, not
    payload, so sizing a fleet-scale table costs O(table fields) rather than
    O(users + platform).
    """
    if _depth > 6:
        return 64
    if obj is None or isinstance(obj, (int, float)):
        return 32  # the fallback's charge, minus its isinstance chain (hot: table scalars)
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + 64
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        if isinstance(obj, _provenance_classes()):
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

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """The cached value, without counting a lookup or refreshing recency."""
        entry = self._entries.get(key)
        return default if entry is None else entry[0]

    def put(self, key: Hashable, value: Any, nbytes: int | None = None) -> None:
        if key in self._entries:
            _, old_size = self._entries.pop(key)
            self._nbytes -= old_size
        size = estimate_nbytes(value) if nbytes is None else int(nbytes)
        self._entries[key] = (value, size)
        self._nbytes += size
        self._evict()

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
