"""The one sweep core behind :func:`search_space` and :func:`search_grid`.

A sweep streams a half-open placement-index range in lexicographic chunks
through ``tables.execute`` -- the :class:`~repro.devices.tables.CostTables`
protocol method, so plain, graph, grid and fault-aware tables each run their
own engine without the caller choosing one -- and folds every executed chunk
into a mergeable accumulator through ``accumulator.update(result,
start_index)``.  Accumulators merge associatively, so the same fold runs
serially in-process or range by range in worker processes.

:class:`ShardPool` is the only worker-pool construction site of the search
layer.  Each worker is started with a :func:`~repro.devices.tables.build_tables`
keyword spec, builds its tables once in the pool initializer, and then serves
two kinds of task:

* :meth:`ShardPool.fold` -- fold whole placement ranges into copies of an empty
  accumulator, merged back in range order (placement sharding);
* :meth:`ShardPool.evaluate` -- execute one placement chunk against the
  worker's tables and return what an evaluator makes of it (scenario
  sharding, where each worker holds one scenario block).
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence

from ..offload.space import iter_placement_batches, placement_matrix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Future

__all__ = ["iter_chunks", "sweep", "shard_ranges", "check_n_workers", "ShardPool"]


def iter_chunks(
    tables, batch_size: int, start: int, stop: int | None
) -> Iterator[tuple[int, Any]]:
    """Stream ``(chunk_start, tables.execute(chunk))`` over ``[start, stop)``."""
    cursor = start
    for matrix in iter_placement_batches(
        tables.n_tasks, len(tables.aliases), batch_size, start=start, stop=stop
    ):
        yield cursor, tables.execute(matrix)
        cursor += matrix.shape[0]


def sweep(tables, accumulator, batch_size: int, start: int, stop: int):
    """Fold ``[start, stop)`` into ``accumulator`` chunk by chunk; return it."""
    for chunk_start, result in iter_chunks(tables, batch_size, start, stop):
        accumulator.update(result, start_index=chunk_start)
    return accumulator


def shard_ranges(start: int, stop: int, n_shards: int) -> list[tuple[int, int]]:
    """Split [start, stop) into at most ``n_shards`` contiguous non-empty ranges."""
    total = stop - start
    n_shards = max(1, min(n_shards, total))
    bounds = [start + (total * i) // n_shards for i in range(n_shards + 1)]
    return [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def check_n_workers(n_workers: int | None) -> None:
    """Reject worker counts below one (``None`` means serial)."""
    if n_workers is not None and n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers!r}")


# -- worker side --------------------------------------------------------------

#: The tables this worker process built in its initializer.
_worker_tables = None


def _init_worker(spec: Mapping[str, Any]) -> None:
    from ..devices.tables import build_tables

    global _worker_tables
    _worker_tables = build_tables(**spec)


def _fold_range(accumulator, start: int, stop: int, batch_size: int):
    return sweep(_worker_tables, accumulator, batch_size, start, stop)


def _evaluate_range(evaluate: Callable[[Any], Any], start: int, stop: int):
    tables = _worker_tables
    matrix = placement_matrix(tables.n_tasks, len(tables.aliases), start, stop)
    return evaluate(tables.execute(matrix))


# -- parent side --------------------------------------------------------------

class ShardPool:
    """Worker processes that each build one table configuration once.

    ``spec`` holds the keyword arguments of
    :func:`~repro.devices.tables.build_tables` (workload, platform, devices,
    an optional scenario block, faults/retry/timeout) and must pickle.  Use
    it as a context manager, or call :meth:`shutdown`.
    """

    def __init__(self, spec: Mapping[str, Any], n_workers: int):
        from concurrent.futures import ProcessPoolExecutor

        self._pool = ProcessPoolExecutor(
            max_workers=n_workers, initializer=_init_worker, initargs=(dict(spec),)
        )

    def fold(self, accumulator, ranges: Sequence[tuple[int, int]], batch_size: int):
        """Fold each range into its own copy of the empty ``accumulator`` in a
        worker, then merge the shards in range order."""
        starts, stops = zip(*ranges)
        shards = self._pool.map(
            _fold_range, repeat(accumulator), starts, stops, repeat(batch_size)
        )
        merged = next(shards)
        for shard in shards:
            merged.merge(shard)
        return merged

    def evaluate(self, evaluate: Callable[[Any], Any], start: int, stop: int) -> "Future":
        """Submit ``evaluate(tables.execute(chunk))`` for placements ``[start, stop)``."""
        return self._pool.submit(_evaluate_range, evaluate, start, stop)

    def shutdown(self) -> None:
        self._pool.shutdown()

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
