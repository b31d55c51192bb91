"""Scientific code = an ordered chain of dependent MathTasks (Procedure 5).

A :class:`TaskChain` is the paper's "scientific code": a sequence of loops
``L1, L2, ..., Lk`` where each loop consumes the scalar penalty produced by the
previous one and can be placed on any device.  The chain is what the offload
package enumerates placements over and what the executors run.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .task import MathTask, TaskCost

__all__ = ["TaskChain"]


class TaskChain:
    """An ordered, data-dependent sequence of :class:`MathTask` objects.

    Parameters
    ----------
    tasks:
        The tasks, in execution order.  Task names must be unique.
    name:
        Name of the scientific code (used in reports).
    """

    def __init__(self, tasks: Sequence[MathTask], name: str = "scientific-code") -> None:
        task_list = list(tasks)
        if not task_list:
            raise ValueError("a task chain needs at least one task")
        names = [task.name for task in task_list]
        if len(set(names)) != len(names):
            raise ValueError(f"task names must be unique, got {names}")
        self.tasks: tuple[MathTask, ...] = tuple(task_list)
        self.name = name

    # -- sequence protocol --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[MathTask]:
        return iter(self.tasks)

    def __getitem__(self, index: int) -> MathTask:
        return self.tasks[index]

    @property
    def task_names(self) -> list[str]:
        return [task.name for task in self.tasks]

    @property
    def predecessor_positions(self) -> tuple[tuple[int, ...], ...]:
        """Per task, its predecessors' positions: task ``t`` consumes ``t - 1``
        (the :class:`~repro.tasks.graph.TaskGraph` attribute of the same name)."""
        return tuple((t - 1,) if t else () for t in range(len(self.tasks)))

    # -- aggregate costs ----------------------------------------------------------
    def costs(self) -> list[TaskCost]:
        """Per-task analytic cost profiles, in execution order."""
        return [task.cost() for task in self.tasks]

    @property
    def total_flops(self) -> float:
        """Total FLOPs of the whole code, regardless of placement."""
        return float(sum(task.flops for task in self.tasks))

    def flops_by_task(self) -> dict[str, float]:
        return {task.name: task.flops for task in self.tasks}

    # -- execution ----------------------------------------------------------------
    def run(self, rng: np.random.Generator | None = None) -> float:
        """Execute the whole chain on the local machine and return the final penalty.

        This runs every task sequentially with NumPy (no devices involved); the
        placement-aware executors live in :mod:`repro.devices` and
        :mod:`repro.offload`.
        """
        generator = rng if rng is not None else np.random.default_rng()
        penalty = 0.0
        for task in self.tasks:
            penalty = task.run(penalty, rng=generator)
        return penalty

    def subchain(self, names: Iterable[str]) -> "TaskChain":
        """A new chain restricted to the named tasks (original order preserved)."""
        wanted = list(names)
        unknown = set(wanted) - set(self.task_names)
        if unknown:
            raise KeyError(
                f"unknown tasks {sorted(unknown)}; available: {self.task_names}"
            )
        picked = [task for task in self.tasks if task.name in wanted]
        return TaskChain(picked, name=f"{self.name}[{','.join(wanted)}]")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TaskChain(name={self.name!r}, tasks={self.task_names})"
