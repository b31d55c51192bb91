"""Scenario grids: cartesian or explicit collections of condition points.

A :class:`ScenarioGrid` is the unit the grid execution engine and the robust
search driver consume: an ordered, named, weighted set of
:class:`~repro.scenarios.conditions.Scenario` points, with a
:meth:`~ScenarioGrid.platforms` method deriving the per-scenario platforms
from one base platform.  :func:`link_degradation_grid` builds the canonical
wifi->lte sweep of the robustness experiment.

A grid stores its rows as columns in settings-position order: ``axes`` is a
table of axis objects, ``axis_codes[step, row]`` indexes it (``-1`` where the
row pins fewer settings), ``axis_values[step, row]`` holds the values, and
one float64 weight per row.  Names are an explicit tuple, or, for a sampled
fleet, generated on demand as ``"<segment>/u<index>"``.  ``Scenario``
objects are views, materialized only when something asks for them: the
fused grid builder, the cache keys and the robust search read the columns.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..devices.link import LinkSpec
from ..devices.platform import Platform
from .conditions import ConditionAxis, LinkInterpolation, Scenario, apply_conditions

__all__ = ["ScenarioGrid", "link_degradation_grid"]


def _check_unique(names: Sequence[str], what: str = "scenario") -> None:
    if len(set(names)) != len(names):
        duplicates = sorted(name for name, count in Counter(names).items() if count > 1)
        raise ValueError(f"{what} names must be unique, duplicated: {duplicates}")


class _AxisTable:
    """Axis objects by identity, coded in order of first appearance."""

    def __init__(self, axes: "Sequence[ConditionAxis]" = ()) -> None:
        self.axes = list(axes)
        self._codes = {id(axis): code for code, axis in enumerate(self.axes)}

    def code(self, axis: ConditionAxis) -> int:
        code = self._codes.setdefault(id(axis), len(self.axes))
        if code == len(self.axes):
            self.axes.append(axis)
        return code


def _columns(rows: Sequence[Scenario], table: _AxisTable) -> tuple[np.ndarray, np.ndarray]:
    """``(axis_codes, axis_values)`` of some scenarios, coding their axes in ``table``."""
    n = len(rows)
    steps = max(len(row.settings) for row in rows)
    codes = [[-1] * n for _ in range(steps)]
    values = [[0.0] * n for _ in range(steps)]
    for i, row in enumerate(rows):
        for step, (axis, value) in enumerate(row.settings):
            codes[step][i] = table.code(axis)
            values[step][i] = value
    return (
        np.array(codes, dtype=np.intp).reshape(steps, n),
        np.array(values, dtype=float).reshape(steps, n),
    )


@dataclass(init=False, unsafe_hash=True)
class ScenarioGrid:
    """An ordered collection of uniquely named scenarios, stored as columns.

    Build one explicitly from scenarios, or as the cartesian product of
    condition axes with :meth:`cartesian`; :func:`~repro.fleet.sample_fleet`
    writes a fleet's columns straight from its axis draws.  The one dataclass
    field, ``scenarios``, is a property over the columns, so equality,
    hashing, ``repr`` and ``dataclasses.replace`` treat the grid as its
    scenarios.  ``axes`` is the axis table (it may hold unused axes);
    ``axis_codes`` and ``axis_values`` are read-only ``(steps, n)`` arrays.
    """

    scenarios: "tuple[Scenario, ...]"

    def __init__(self, scenarios: Sequence[Scenario]) -> None:
        rows = tuple(scenarios)
        if not rows:
            raise ValueError("a scenario grid needs at least one scenario")
        names = tuple(scenario.name for scenario in rows)
        _check_unique(names)
        table = _AxisTable()
        codes, values = _columns(rows, table)
        weights = np.array([scenario.weight for scenario in rows], dtype=float)
        self._fill(tuple(table.axes), codes, values, weights, names)
        self._rows = rows

    @classmethod
    def _from_columns(cls, axes, codes, values, weights, names=None, name_parts=None) -> "ScenarioGrid":
        """A grid over ready columns and unique ``names``, or ``name_parts``
        ``(prefixes, prefix_codes, numbers)`` naming row ``i``
        ``prefixes[prefix_codes[i]] + str(numbers[i])`` when first asked."""
        grid = cls.__new__(cls)
        grid._fill(axes, codes, values, weights, names, name_parts)
        return grid

    def _fill(self, axes, codes, values, weights, names=None, name_parts=None) -> None:
        for array in (codes, values, weights):
            array.flags.writeable = False
        self.axes, self.axis_codes, self.axis_values = axes, codes, values
        self._weights, self._names, self._name_parts = weights, names, name_parts

    @classmethod
    def cartesian(
        cls,
        axes: "Sequence[tuple[ConditionAxis, Sequence[float]]]",
        weights: "Sequence[float] | None" = None,
    ) -> "ScenarioGrid":
        """Cartesian product of axis value lists, in lexicographic order.

        Scenario names are the ``axis=value`` fragments joined with ``|``
        (e.g. ``"link-bandwidth=0.5|device-load=2"``).  ``weights`` optionally
        assigns one weight per grid point, in the same lexicographic order.
        """
        if not axes:
            raise ValueError("cartesian grid needs at least one axis")
        for axis, values in axes:
            if not list(values):
                raise ValueError(f"axis {axis.name!r} has no values")
        combos = list(product(*[list(values) for _, values in axes]))
        if weights is not None:
            if len(weights) != len(combos):
                raise ValueError(
                    f"expected {len(combos)} weights (one per grid point), got {len(weights)}"
                )
            # Validate here so a bad weight names the caller's index, not the
            # generated scenario the per-point constructor would blame.
            for i, weight in enumerate(weights):
                w = float(weight)
                if not math.isfinite(w) or w < 0:
                    raise ValueError(
                        f"weights[{i}] must be finite and non-negative, got {weight!r}"
                    )
        points = [tuple(zip([axis for axis, _ in axes], combo)) for combo in combos]
        return cls(
            Scenario(
                name="|".join(axis.describe(value) for axis, value in settings),
                settings=settings,
                weight=1.0 if weights is None else float(weights[i]),
            )
            for i, settings in enumerate(points)
        )

    def __len__(self) -> int:
        return len(self._weights)

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.scenarios)

    def __getitem__(self, index):
        if "_rows" in self.__dict__ or not isinstance(index, (int, np.integer)):
            return self.scenarios[index]
        return self._take([range(len(self))[index]]).scenarios[0]

    @property
    def scenarios(self) -> tuple[Scenario, ...]:
        """Every row as a :class:`Scenario`, materialized once."""
        if "_rows" not in self.__dict__:
            rows = zip(self.names, self.axis_codes.T.tolist(), self.axis_values.T.tolist(), self._weights.tolist())
            self._rows = tuple(
                Scenario(name, tuple((self.axes[c], v) for c, v in zip(codes, values) if c >= 0), weight)
                for name, codes, values, weight in rows
            )
        return self._rows

    @property
    def names(self) -> tuple[str, ...]:
        if self._names is None:
            prefixes, codes, numbers = self._name_parts
            self._names = tuple(prefixes[c] + str(k) for c, k in zip(codes.tolist(), numbers.tolist()))
        return self._names

    @property
    def weights(self) -> np.ndarray:
        """Raw (unnormalised) scenario weights, in grid order."""
        return self._weights.copy()

    def scenario(self, name: str) -> Scenario:
        if "_index" not in self.__dict__:
            self._index = dict(zip(self.names, range(len(self))))
        i = self._index.get(name)
        if i is None:
            raise KeyError(f"unknown scenario {name!r}; available: {list(self.names)}")
        return self[i]

    def platforms(self, base: Platform) -> list[Platform]:
        """Per-scenario derived platforms, in grid order."""
        return [apply_conditions(base, scenario) for scenario in self.scenarios]

    def _take(self, rows) -> "ScenarioGrid":
        """The sub-grid of some distinct rows, in the given order (its scenarios are views)."""
        rows = np.asarray(rows, dtype=np.intp)
        names, parts = self._names, self._name_parts
        if parts is not None:
            names, parts = None, (parts[0], parts[1][rows], parts[2][rows])
        else:
            names = tuple(names[i] for i in rows.tolist())
        columns = (self.axis_codes[:, rows], self.axis_values[:, rows], self._weights[rows])
        return ScenarioGrid._from_columns(self.axes, *columns, names, parts)

    def _replaced(self, replacements: "Mapping[int, Scenario]") -> "ScenarioGrid":
        """This grid with some rows (non-negative indices) replaced.

        The columns are copied and only those rows rewritten; when every
        replacement keeps its row's name, the names carry over with their
        index and uniqueness.
        """
        at = sorted(replacements)
        new = [replacements[i] for i in at]
        table = _AxisTable(self.axes)
        block = _columns(new, table)
        steps = max(len(self.axis_codes), len(block[0]))
        columns = []
        for old, fill, rows in zip((self.axis_codes, self.axis_values), (-1, 0.0), block):
            column = np.full((steps, len(self)), fill, dtype=old.dtype)
            column[: len(old)] = old
            column[:, at] = fill
            column[: len(rows), at] = rows
            columns.append(column)
        weights = self._weights.copy()
        weights[at] = [scenario.weight for scenario in new]
        names = self.names
        grid = ScenarioGrid._from_columns(tuple(table.axes), *columns, weights, names, self._name_parts)
        if any(names[i] != scenario.name for i, scenario in zip(at, new)):
            names = list(names)
            for i, scenario in zip(at, new):
                names[i] = scenario.name
            _check_unique(names)
            grid._names, grid._name_parts = tuple(names), None
        elif "_index" in self.__dict__:
            grid._index = self._index
        return grid

    def _appended(self, settings: "Sequence[tuple[ConditionAxis, float]]") -> "ScenarioGrid":
        """This grid with the same ``settings`` appended to every row.

        The axes join the axis table and each row's new settings follow its
        own, at that row's settings length; names and weights carry over.
        """
        steps, n = self.axis_codes.shape
        codes = np.full((steps + len(settings), n), -1, dtype=np.intp)
        values = np.zeros(codes.shape)
        codes[:steps], values[:steps] = self.axis_codes, self.axis_values
        at, rows = (self.axis_codes >= 0).sum(axis=0), np.arange(n)
        for k, (_, value) in enumerate(settings):
            codes[at + k, rows] = len(self.axes) + k
            values[at + k, rows] = value
        axes = (*self.axes, *(axis for axis, _ in settings))
        return ScenarioGrid._from_columns(axes, codes, values, self._weights, self._names, self._name_parts)


def link_degradation_grid(
    links: "Sequence[tuple[str, str]]",
    start: LinkSpec,
    end: LinkSpec,
    n_points: int = 5,
    axis_name: str = "link-quality",
) -> ScenarioGrid:
    """Sweep some links from one quality to another in ``n_points`` steps.

    Point ``i`` installs the :class:`LinkInterpolation` of ``start`` and
    ``end`` at ``t = i / (n_points - 1)`` -- ``t=0`` is ``start`` verbatim
    (e.g. healthy Wi-Fi), ``t=1`` is ``end`` (fallen back to LTE).  Scenario
    names carry the interpolation parameter (``"link-quality=0.25"``).
    """
    if n_points < 2:
        raise ValueError("a degradation sweep needs at least 2 points")
    axis = LinkInterpolation(links=tuple(links), start=start, end=end, name=axis_name)
    values = [i / (n_points - 1) for i in range(n_points)]
    return ScenarioGrid.cartesian([(axis, values)])
