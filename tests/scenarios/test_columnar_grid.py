"""Columnar scenario grids against grids built from ``Scenario`` rows.

A sampled or drifted fleet stores its rows as columns and materializes
``Scenario`` objects only on demand.  Everything it exposes -- scenarios,
names, weights, name lookups, the grid fingerprint and every row's digest,
the fused tables and ``search_grid`` results -- must equal, bit for bit, what
``ScenarioGrid(tuple(Scenario(...)))`` built from the same rows gives, and
each row digest must equal the scalar encoder's ``fingerprint(scenario)``.
The specs mix step counts (users pin zero to three axes) and axes per
settings position; grid sizes straddle the row count where keys switch from
encoding scenarios one by one to emitting them from the columns.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import _BLOCKWISE_MIN_ROWS, _grid_fingerprint_parts, fingerprint
from repro.devices import SimulatedExecutor, edge_cluster_platform
from repro.devices.params import PlatformParams
from repro.devices.tables import build_tables
from repro.fleet import (
    ChoiceAxis,
    ContentionModel,
    FleetSpec,
    NormalAxis,
    UniformAxis,
    UserSegment,
    sample_fleet,
    solve_contention,
)
from repro.fleet import contention
from repro.scenarios import (
    ConditionAxis,
    DeviceFailureRate,
    DeviceLoadFactor,
    DvfsFrequencyScale,
    EnergyPriceScale,
    LinkBandwidthScale,
    LinkLatencyScale,
    Scenario,
    ScenarioGrid,
)
from repro.search import ExpectedValueObjective, QuantileObjective, SLOObjective, search_grid
from repro.tasks import RegularizedLeastSquaresTask, TaskChain

SLICE_FIELDS = (
    "busy", "hostio_time", "energy_in", "energy_out", "penalty_time",
    "penalty_energy", "first_penalty_time", "first_penalty_energy",
    "power_active", "power_idle", "cost_per_hour", "extra_idle_power",
)
OBJECTIVES = (QuantileObjective(q=0.95), SLOObjective(budget=0.01), ExpectedValueObjective())

#: Axis samplers a drawn segment picks from; each call makes new axis objects,
#: so equal axes of different segments are distinct objects.
SAMPLERS = (
    lambda: UniformAxis(LinkBandwidthScale(), 0.2, 1.5),
    lambda: UniformAxis(LinkLatencyScale(), 0.5, 3.0),
    lambda: NormalAxis(DeviceLoadFactor(devices=("D",)), mean=1.5, std=0.3, low=1.0),
    lambda: UniformAxis(DvfsFrequencyScale(devices=("A",)), 0.3, 1.0),
    lambda: ChoiceAxis(EnergyPriceScale(), values=(0.5, 1.0, 2.0)),
    lambda: UniformAxis(DeviceFailureRate(devices=("N",)), 0.0, 0.1),
    lambda: ChoiceAxis(LinkBandwidthScale(links=(("D", "A"),)), values=(0.5, 1.0)),
)


def chain() -> TaskChain:
    tasks = [
        RegularizedLeastSquaresTask(size=40 + 30 * i, iterations=3, name=f"L{i + 1}")
        for i in range(2)
    ]
    return TaskChain(tasks, name="columnar-test")


@st.composite
def fleet_specs(draw) -> FleetSpec:
    n_segments = draw(st.integers(1, 4))
    segments = []
    for i in range(n_segments):
        picks = draw(st.lists(st.integers(0, len(SAMPLERS) - 1), max_size=3))
        weight = draw(st.floats(0.1, 10.0))
        segments.append(UserSegment(f"seg{i}", weight=weight, axes=tuple(SAMPLERS[k]() for k in picks)))
    return FleetSpec(tuple(segments))


def row_built(scenarios) -> ScenarioGrid:
    """A grid of new ``Scenario`` objects with the same content."""
    return ScenarioGrid(tuple(Scenario(s.name, settings=s.settings, weight=s.weight) for s in scenarios))


def content(scenario: Scenario) -> tuple:
    """A scenario's content with floats by their bits (so NaN equals itself)."""
    bits = struct.Struct("<d").pack
    return (
        type(scenario),
        scenario.name,
        tuple((axis, bits(value)) for axis, value in scenario.settings),
        bits(scenario.weight),
    )


def assert_same_grid(grid: ScenarioGrid, reference: ScenarioGrid) -> None:
    assert len(grid) == len(reference)
    assert list(map(content, grid.scenarios)) == list(map(content, reference.scenarios))
    assert grid.names == reference.names
    assert grid.weights.tobytes() == reference.weights.tobytes()
    for i in sorted({0, len(grid) // 2, len(grid) - 1}):
        name = reference.names[i]
        expected = content(reference[i])
        assert content(grid.scenario(name)) == content(reference.scenario(name)) == content(grid[i]) == expected
    scalar = tuple(fingerprint(scenario) for scenario in reference.scenarios)
    assert _grid_fingerprint_parts(grid) == scalar
    assert _grid_fingerprint_parts(reference) == scalar
    assert fingerprint(grid) == fingerprint(reference)


def assert_same_tables(grid: ScenarioGrid, reference: ScenarioGrid) -> None:
    platform = edge_cluster_platform()
    fused = build_tables(chain(), platform, scenarios=grid)
    expected = build_tables(chain(), platform, scenarios=reference)
    materialized = build_tables(chain(), reference.platforms(platform))
    assert fused.fingerprint == expected.fingerprint
    for name in SLICE_FIELDS:
        value = getattr(fused, name).tobytes()
        assert value == getattr(expected, name).tobytes() == getattr(materialized, name).tobytes(), name


def assert_same_search(grid: ScenarioGrid, reference: ScenarioGrid, **kwargs) -> None:
    platform = edge_cluster_platform()
    result = search_grid(SimulatedExecutor(platform), chain(), grid, objectives=OBJECTIVES, top_k=2, **kwargs)
    expected = search_grid(SimulatedExecutor(platform), chain(), reference, objectives=OBJECTIVES, top_k=2)
    assert result.scenario_names == expected.scenario_names
    for name in expected.top:
        assert result.top[name].labels == expected.top[name].labels
        assert result.top[name].values.tobytes() == expected.top[name].values.tobytes()


class TestSampledGrids:
    @settings(max_examples=25, deadline=None)
    @given(spec=fleet_specs(), n_users=st.integers(1, 300), seed=st.integers(0, 2**16))
    def test_a_sampled_grid_equals_its_row_built_copy(self, spec, n_users, seed):
        grid = sample_fleet(spec, n_users, seed=seed).grid
        reference = row_built(grid.scenarios)
        assert_same_grid(grid, reference)
        assert_same_tables(grid, reference)
        assert_same_search(grid, reference)

    @settings(max_examples=25, deadline=None)
    @given(
        spec=fleet_specs(),
        n_users=st.integers(1, 300),
        seed=st.integers(0, 2**16),
        drift=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
    )
    def test_a_drifted_grid_equals_its_row_built_copy(self, spec, n_users, seed, drift):
        fleet = sample_fleet(spec, n_users, seed=seed)
        fleet_parts = _grid_fingerprint_parts(fleet.grid)
        users = [min(int(u * n_users), n_users - 1) for u in drift]
        drifted, replacements = fleet.resample_users(users, seed=seed + 1)
        reference = row_built(replacements.get(i, s) for i, s in enumerate(fleet.grid.scenarios))
        assert_same_grid(drifted.grid, reference)
        moved = [i for i, (a, b) in enumerate(zip(fleet_parts, _grid_fingerprint_parts(drifted.grid))) if a != b]
        assert moved == sorted(i for i in replacements if replacements[i] != fleet.grid[i])
        assert_same_tables(drifted.grid, reference)
        assert_same_search(drifted.grid, reference)

        executor = SimulatedExecutor(edge_cluster_platform())
        updated = executor.update_grid_tables(executor.grid_cost_tables(chain(), fleet.grid), replacements)
        expected = build_tables(chain(), edge_cluster_platform(), scenarios=reference)
        assert updated.fingerprint == expected.fingerprint
        for name in SLICE_FIELDS:
            assert getattr(updated, name).tobytes() == getattr(expected, name).tobytes(), name

    def test_scenario_shards_search_slices_of_the_columns(self):
        spec = FleetSpec(
            (
                UserSegment("a", weight=2.0, axes=(SAMPLERS[0](), SAMPLERS[2]())),
                UserSegment("b", weight=1.0, axes=(SAMPLERS[3](),)),
                UserSegment("c", weight=1.0),
            )
        )
        grid = sample_fleet(spec, 150, seed=9).grid
        for lo, hi in ((0, 75), (75, 150), (20, 21)):
            assert_same_grid(grid._take(range(lo, hi)), row_built(grid.scenarios[lo:hi]))
        assert_same_search(grid, row_built(grid.scenarios), scenario_shards=2)

    def test_segment_grids_are_column_slices(self):
        spec = FleetSpec((UserSegment("a", axes=(SAMPLERS[0](),)), UserSegment("b", axes=(SAMPLERS[1](),))))
        fleet = sample_fleet(spec, 9, seed=1)
        for name in ("a", "b"):
            users = fleet.users_of_segment(name)
            assert_same_grid(fleet.segment_grid(name), row_built(fleet.grid[i] for i in users))



def loaded_row_built(fleet, aliases, loads) -> ScenarioGrid:
    """The contended grid as ``Scenario`` rows with the load settings appended."""
    extra = tuple(
        (DeviceLoadFactor(devices=(alias,)), float(load)) for alias, load in zip(aliases, loads) if load != 1.0
    )
    if not extra:
        return fleet.grid
    return ScenarioGrid(Scenario(s.name, settings=s.settings + extra, weight=s.weight) for s in fleet.grid.scenarios)


ALIASES = tuple(edge_cluster_platform().aliases)
LOADED_SPEC = FleetSpec(
    (
        UserSegment("a", weight=2.0, axes=(SAMPLERS[0](), SAMPLERS[2]())),
        UserSegment("b", weight=1.0, axes=(SAMPLERS[3](),)),
        UserSegment("c", weight=1.0),
    )
)


class TestLoadedGrids:
    """``solve_contention`` appends its load settings to the fleet's columns."""

    @settings(max_examples=20, deadline=None)
    @given(
        spec=fleet_specs(),
        n_users=st.integers(1, 300),
        seed=st.integers(0, 2**16),
        loads=st.lists(st.sampled_from([1.0, 1.0, 1.25, 2.0, 3.7]), min_size=4, max_size=4),
    )
    def test_a_loaded_grid_equals_its_row_built_copy(self, spec, n_users, seed, loads):
        fleet = sample_fleet(spec, n_users, seed=seed)
        grid = contention._loaded_grid(fleet, ALIASES, np.array(loads))
        reference = loaded_row_built(fleet, ALIASES, loads)
        assert_same_grid(grid, reference)
        assert_same_tables(grid, reference)

    @pytest.mark.parametrize("bad", [0.5, float("nan"), float("inf")])
    def test_a_bad_load_raises_the_row_built_error(self, bad):
        fleet = sample_fleet(LOADED_SPEC, 150, seed=4)
        loads = np.array([1.5, 1.0, bad, 2.0])
        errors = []
        for grid in (contention._loaded_grid(fleet, ALIASES, loads), loaded_row_built(fleet, ALIASES, loads)):
            with pytest.raises(ValueError) as info:
                build_tables(chain(), edge_cluster_platform(), scenarios=grid)
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("mode", ["fixed", "best-response"])
    def test_solve_contention_equals_the_row_built_path(self, mode, monkeypatch):
        fleet = sample_fleet(LOADED_SPEC, 200, seed=5)
        kwargs = (
            dict(placements="DE")
            if mode == "fixed"
            else dict(candidates=["DD", "DE", "NA", "EA"], damping=0.5, max_iterations=8)
        )
        model = ContentionModel(alpha=0.3)

        def solve():
            executor = SimulatedExecutor(edge_cluster_platform())
            return solve_contention(executor, chain(), fleet, model, **kwargs)

        result = solve()
        monkeypatch.setattr(contention, "_loaded_grid", loaded_row_built)
        expected = solve()
        assert_same_grid(result.grid, expected.grid)
        assert result.placements == expected.placements
        assert result.residuals == expected.residuals
        assert (result.converged, result.n_iterations) == (expected.converged, expected.n_iterations)
        for name in ("loads", "counts", "per_user_values"):
            assert getattr(result, name).tobytes() == getattr(expected, name).tobytes(), name


# ---------------------------------------------------------------------------
# row digests from the columns
# ---------------------------------------------------------------------------

AXES = (LinkBandwidthScale(), LinkLatencyScale(links=(("D", "A"),)), DeviceLoadFactor(), DvfsFrequencyScale())
VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan"), -float("nan"), 1.0]),
)
NAMES = st.text(alphabet=st.characters(codec="utf-8") | st.sampled_from(["é", "\ud800", "語"]), min_size=1, max_size=6)


@st.composite
def row_grids(draw) -> ScenarioGrid:
    """Rows cycling through a few drawn templates, named ``<stem><index>``."""
    n = draw(st.sampled_from([1, 5, _BLOCKWISE_MIN_ROWS - 1, _BLOCKWISE_MIN_ROWS, 300]))
    template = st.tuples(
        NAMES,
        st.lists(st.tuples(st.sampled_from(AXES), VALUES), max_size=3),
        st.sampled_from([0.0, -0.0, 0.5, 1.0, 3.25]),
    )
    templates = draw(st.lists(template, min_size=1, max_size=6))
    rows = []
    for i in range(n):
        stem, settings, weight = templates[i % len(templates)]
        rows.append(Scenario(f"{stem}{i}", settings=tuple(settings), weight=weight))
    return ScenarioGrid(tuple(rows))


@settings(max_examples=40, deadline=None)
@given(row_grids())
def test_row_digests_match_the_scalar_encoder(grid):
    """NaN payloads, signed zeros, infinities, multi-byte names and mixed
    setting counts: the column emitter writes each row's scalar bytes."""
    assert _grid_fingerprint_parts(grid) == tuple(fingerprint(scenario) for scenario in grid.scenarios)
    assert_same_grid(grid._take(range(len(grid))), row_built(grid.scenarios))


@dataclass(frozen=True)
class Unkeyable(ConditionAxis):
    """An axis whose field cannot be fingerprinted."""

    payload: object = None
    name: str = "unkeyable"


@pytest.mark.parametrize("n", [5, 300])
def test_an_unkeyable_axis_raises_where_the_scalar_encoder_does(n):
    bad = (Unkeyable(payload=object()), Unkeyable(payload=object()))
    rows = [Scenario(f"r{i}", settings=((LinkBandwidthScale(), 1.0),)) for i in range(n)]
    rows[3] = Scenario("r3", settings=((LinkBandwidthScale(), 1.0), (bad[1], 2.0)))
    rows[4] = Scenario("r4", settings=((bad[0], 2.0),))
    with pytest.raises(TypeError) as expected:
        fingerprint(rows[3])
    with pytest.raises(TypeError) as raised:
        fingerprint(ScenarioGrid(tuple(rows)))
    assert str(raised.value) == str(expected.value)


def _row_by_row_conditions(params: PlatformParams, scenarios) -> None:
    """The per-scenario grouping the fused build used before grids were
    columnar: per settings position, one group per equal axis, in order of
    the group's first row."""
    for step in range(max(len(s.settings) for s in scenarios)):
        groups: dict = {}
        for row, scenario in enumerate(scenarios):
            if step < len(scenario.settings):
                axis, value = scenario.settings[step]
                rows, values = groups.setdefault(axis, ([], []))
                rows.append(row)
                values.append(value)
        for axis, (rows, values) in groups.items():
            axis.scale_arrays(params, np.asarray(rows, dtype=np.intp), np.asarray(values, dtype=float))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(
            st.tuples(
                st.sampled_from([LinkBandwidthScale, DeviceLoadFactor, DvfsFrequencyScale]),
                st.floats(-1.0, 3.0),
            ),
            max_size=3,
        ),
        min_size=1,
        max_size=12,
    )
)
def test_fused_conditions_name_the_first_bad_value_of_the_row_by_row_grouping(rows):
    """Equal axes of distinct objects share a group, groups run in order of
    their first row within each settings position, and the values and
    errors match the grouping of ``Scenario`` rows."""
    scenarios = tuple(
        Scenario(f"s{i}", settings=tuple((axis(), value) for axis, value in settings))
        for i, settings in enumerate(rows)
    )
    platform = edge_cluster_platform()

    def outcome(apply):
        params = PlatformParams.gather(platform, len(scenarios))
        try:
            apply(params)
        except ValueError as error:
            return str(error)
        return {name: array.tobytes() for name, array in {**params.device, **params.link}.items()}

    from repro.devices.grid import _apply_grid_conditions

    assert outcome(lambda p: _apply_grid_conditions(p, ScenarioGrid(scenarios))) == outcome(
        lambda p: _row_by_row_conditions(p, scenarios)
    )
