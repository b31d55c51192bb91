"""Multi-tenant contention: device load as a function of who places where.

A fleet is not just many independent users: devices shared by several users'
chains slow down *because* they are shared.  :class:`ContentionModel` maps a
device's expected tenant count to a :class:`~repro.scenarios.DeviceLoadFactor`
value (load ``L >= 1`` divides the device's effective throughput by ``L``),
and :func:`solve_contention` iterates the resulting fixed point:

    placements -> tenant counts -> device loads -> (re-)evaluate/choose
    placements -> ...

Two modes share the loop:

* **fixed assignment** (``placements=``): each user's placement is pinned, so
  tenant counts are load-independent and the iteration converges after one
  recount -- this is the "what does sharing cost us" question;
* **best response** (``candidates=``): each user picks the candidate that is
  best *for them* under the current loads, loads are recomputed from the
  picks, and the loop runs until the load vector stops moving (bounded
  iterations, optional damping) -- a discrete approximation of the selfish
  equilibrium.

Loads enter evaluation as ordinary per-device ``DeviceLoadFactor`` settings
appended to every user's scenario, so the contended grid is built by the same
fused vectorized engine as every other grid, and the returned fixed point is
**differential-testable**: rebuilding the loaded grid directly and evaluating
the returned placements reproduces :attr:`ContentionResult.per_user_values`
bitwise (the contract ``tests/fleet`` pins).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..scenarios.conditions import DeviceLoadFactor
from ..scenarios.grid import ScenarioGrid
from .sample import SampledFleet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..devices.simulator import SimulatedExecutor
    from ..tasks.chain import TaskChain
    from ..tasks.graph import TaskGraph

__all__ = ["ContentionModel", "ContentionResult", "solve_contention"]


@dataclass(frozen=True)
class ContentionModel:
    """Tenant count -> device load factor: ``1 + alpha * max(n - 1, 0)**exponent``.

    One tenant runs uncontended (load ``1``); each additional expected tenant
    adds ``alpha`` (scaled by the ``exponent`` power law -- ``1`` is linear
    queueing-style slowdown, ``> 1`` models thrash).  ``devices`` optionally
    restricts contention to some aliases (``None`` = every device, including
    the host); excluded devices keep load ``1``.
    """

    alpha: float = 0.5
    exponent: float = 1.0
    devices: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha) or self.alpha < 0:
            raise ValueError(f"contention alpha must be finite and non-negative, got {self.alpha!r}")
        if not math.isfinite(self.exponent) or self.exponent <= 0:
            raise ValueError(f"contention exponent must be finite and positive, got {self.exponent!r}")
        if self.devices is not None:
            object.__setattr__(self, "devices", tuple(self.devices))

    def load(self, counts: np.ndarray) -> np.ndarray:
        """Elementwise load factors (``>= 1``) of expected tenant counts."""
        counts = np.asarray(counts, dtype=float)
        return 1.0 + self.alpha * np.maximum(counts - 1.0, 0.0) ** self.exponent

    def contended(self, aliases: Sequence[str]) -> tuple[bool, ...]:
        """Which of ``aliases`` this model applies contention to."""
        if self.devices is None:
            return tuple(True for _ in aliases)
        selected = set(self.devices)
        unknown = selected - set(aliases)
        if unknown:
            raise ValueError(
                f"contention model names unknown devices {sorted(unknown)}; "
                f"available: {list(aliases)}"
            )
        return tuple(alias in selected for alias in aliases)


@dataclass(frozen=True)
class ContentionResult:
    """The fixed point (or last iterate) of one contention solve.

    ``residuals[i]`` is the max-abs load change of iteration ``i``;
    ``converged`` is whether the final residual fell to ``tol`` within the
    iteration budget.  ``grid`` is the *loaded* grid at the returned loads --
    re-evaluating ``placements`` on it reproduces ``per_user_values`` bitwise.
    """

    aliases: tuple[str, ...]
    loads: np.ndarray
    counts: np.ndarray
    placements: tuple[tuple[str, ...], ...]
    per_user_values: np.ndarray
    metric: str
    converged: bool
    n_iterations: int
    residuals: tuple[float, ...]
    grid: ScenarioGrid

    def summary(self) -> str:
        state = "converged" if self.converged else "NOT converged"
        loaded = ", ".join(
            f"{alias}={load:.3g}x({count:.3g})"
            for alias, load, count in zip(self.aliases, self.loads, self.counts)
            if load > 1.0
        )
        return (
            f"contention {state} after {self.n_iterations} iteration(s), "
            f"residual {self.residuals[-1]:.3g}; loaded devices: {loaded or 'none'}; "
            f"mean user {self.metric} {float(self.per_user_values.mean()):.6g}"
        )


def _placement_matrix(
    placements: "Sequence[Sequence[str] | str]",
    aliases: tuple[str, ...],
    n_tasks: int,
) -> np.ndarray:
    """Alias tuples / label strings -> an ``(n, k)`` device-index matrix."""
    column = {alias: i for i, alias in enumerate(aliases)}
    rows = []
    for placement in placements:
        parts = tuple(placement)
        if len(parts) != n_tasks:
            raise ValueError(
                f"placement {placement!r} has {len(parts)} devices for {n_tasks} tasks"
            )
        try:
            rows.append([column[alias] for alias in parts])
        except KeyError as exc:
            raise ValueError(
                f"placement {placement!r} uses unknown device {exc.args[0]!r}; "
                f"available: {list(aliases)}"
            ) from None
    return np.array(rows, dtype=np.int64)


def _loaded_grid(
    fleet: SampledFleet, aliases: tuple[str, ...], loads: np.ndarray
) -> ScenarioGrid:
    """The fleet's grid with per-device load settings appended to every user.

    Loads at exactly ``1.0`` are omitted (the axis' neutral value -- fewer
    settings, identical tables); each loaded device gets its own
    single-device :class:`DeviceLoadFactor` setting so the load composes
    multiplicatively with any load axis the user's own scenario pins.  The
    settings are written into the fleet's columns; no ``Scenario`` is built.
    """
    extra = tuple(
        (DeviceLoadFactor(devices=(alias,)), float(load))
        for alias, load in zip(aliases, loads)
        if load != 1.0
    )
    return fleet.grid._appended(extra) if extra else fleet.grid


def _tenant_counts(
    choices: np.ndarray,
    matrix: np.ndarray,
    weights: np.ndarray,
    n_users: int,
    n_devices: int,
) -> np.ndarray:
    """Expected tenants per device under the users' current placements.

    A user counts once per device its placement touches (several tasks on
    the same device are still one tenant); user ``u`` contributes
    ``n_users * w_u / sum(w)`` tenants -- with uniform weights exactly "how
    many users run here".
    """
    uses = np.zeros((matrix.shape[0], n_devices))
    rows = np.repeat(np.arange(matrix.shape[0]), matrix.shape[1])
    uses[rows, matrix.ravel()] = 1.0
    share = n_users * weights / weights.sum()
    return share @ uses[choices]


def solve_contention(
    executor: "SimulatedExecutor",
    chain: "TaskChain | TaskGraph",
    fleet: SampledFleet,
    model: ContentionModel,
    *,
    placements: "Sequence[Sequence[str] | str] | None" = None,
    candidates: "Sequence[Sequence[str] | str] | None" = None,
    metric: str = "time",
    max_iterations: int = 25,
    tol: float = 1e-9,
    damping: float = 1.0,
) -> ContentionResult:
    """Iterate placements -> tenant counts -> loads to a fixed point.

    Exactly one of ``placements`` (one placement per user, or a single shared
    placement -- fixed-assignment mode) and ``candidates`` (a menu every user
    picks from by argmin of its own ``metric`` -- best-response mode) must be
    given.  Each iteration appends the current loads to every user's scenario
    as per-device :class:`~repro.scenarios.DeviceLoadFactor` settings,
    rebuilds the contended grid through the executor's cached fused build,
    evaluates the placements, recounts tenants, and damps the load update by
    ``damping`` (``1`` = plain fixed-point iteration).

    Ties in best-response argmin break toward the earlier candidate, so the
    iteration is deterministic.  The loop stops when the max-abs load change
    falls to ``tol`` or the iteration budget runs out -- inspect
    :attr:`ContentionResult.converged` / ``residuals`` for diagnostics.
    """
    from ..devices.grid import execute_placements_grid

    if (placements is None) == (candidates is None):
        raise ValueError("pass exactly one of placements= (fixed) or candidates= (best response)")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must lie in (0, 1], got {damping!r}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")

    tables = executor.grid_cost_tables(chain, fleet.grid)
    aliases = tables.aliases
    n_users = fleet.n_users
    n_tasks = tables.n_tasks

    if placements is not None:
        if isinstance(placements, str) or (
            placements and isinstance(placements[0], str) and len(placements) != n_users
        ):
            # A single shared placement (label string or one alias tuple).
            placements = [placements] * n_users  # type: ignore[list-item]
        if len(placements) == 1 and n_users > 1:
            placements = list(placements) * n_users
        if len(placements) != n_users:
            raise ValueError(
                f"expected one placement per user ({n_users}), got {len(placements)}"
            )
        matrix, choice_of_user = np.unique(
            _placement_matrix(placements, aliases, n_tasks), axis=0, return_inverse=True
        )
        choices = choice_of_user.astype(np.int64)
    else:
        matrix = _placement_matrix(candidates, aliases, n_tasks)
        if matrix.shape[0] == 0:
            raise ValueError("candidates must be non-empty")
        choices = np.zeros(n_users, dtype=np.int64)

    weights = fleet.grid.weights
    contended = np.array(model.contended(aliases))
    loads = np.ones(len(aliases))
    values = None
    residuals: list[float] = []
    converged = False
    grid = fleet.grid

    for _ in range(max_iterations):
        grid = _loaded_grid(fleet, aliases, loads)
        loaded_tables = executor.grid_cost_tables(chain, grid)
        result = execute_placements_grid(loaded_tables, matrix)
        values = result.metric_values(metric)  # (n_users, n_placements)
        if candidates is not None:
            choices = values.argmin(axis=1).astype(np.int64)
        counts = _tenant_counts(choices, matrix, weights, n_users, len(aliases))
        target = np.where(contended, model.load(counts), 1.0)
        new_loads = (1.0 - damping) * loads + damping * target
        residual = float(np.abs(new_loads - loads).max())
        residuals.append(residual)
        loads = new_loads
        if residual <= tol:
            converged = True
            break

    per_user = values[np.arange(n_users), choices]
    chosen = tuple(
        tuple(aliases[d] for d in matrix[choice]) for choice in choices
    )
    return ContentionResult(
        aliases=aliases,
        loads=loads,
        counts=counts,
        placements=chosen,
        per_user_values=per_user,
        metric=metric,
        converged=converged,
        n_iterations=len(residuals),
        residuals=tuple(residuals),
        grid=grid,
    )
