"""Fleet specification and sampling: segments, apportionment, delta rebuilds."""

import numpy as np
import pytest

from repro.devices import SimulatedExecutor, edge_cluster_platform
from repro.devices.tables import build_tables
from repro.fleet import (
    AxisSampler,
    ChoiceAxis,
    FleetSpec,
    NormalAxis,
    UniformAxis,
    UserSegment,
    sample_fleet,
)
from repro.scenarios import DeviceLoadFactor, LinkBandwidthScale, LinkLatencyScale
from repro.tasks import RegularizedLeastSquaresTask, TaskChain

#: The per-scenario arrays a condition slice carries (bitwise-compared).
SLICE_FIELDS = (
    "busy", "hostio_time", "energy_in", "energy_out", "penalty_time",
    "penalty_energy", "first_penalty_time", "first_penalty_energy",
    "power_active", "power_idle", "cost_per_hour", "extra_idle_power",
)


def small_chain(n_tasks: int = 2) -> TaskChain:
    tasks = [
        RegularizedLeastSquaresTask(
            size=60 + 40 * i, iterations=6, name=f"L{i + 1}", generate_on_host=False
        )
        for i in range(n_tasks)
    ]
    return TaskChain(tasks, name="fleet-test")


def two_segment_spec() -> FleetSpec:
    return FleetSpec(
        segments=(
            UserSegment(
                "wifi",
                weight=3.0,
                axes=(
                    UniformAxis(LinkBandwidthScale(), 0.8, 1.2),
                    UniformAxis(LinkLatencyScale(), 0.9, 1.1),
                ),
            ),
            UserSegment(
                "cell",
                weight=1.0,
                axes=(
                    UniformAxis(LinkBandwidthScale(), 0.1, 0.5),
                    NormalAxis(LinkLatencyScale(), mean=4.0, std=1.0, low=1.0, high=8.0),
                ),
            ),
        )
    )


class TestSamplerValidation:
    def test_axis_must_be_a_condition_axis(self):
        with pytest.raises(TypeError, match="ConditionAxis"):
            UniformAxis("not-an-axis", 0.0, 1.0)
        with pytest.raises(TypeError, match="ConditionAxis"):
            NormalAxis(None, mean=1.0)

    def test_uniform_bounds(self):
        with pytest.raises(ValueError, match="low <= high"):
            UniformAxis(LinkBandwidthScale(), 2.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            UniformAxis(LinkBandwidthScale(), 0.0, float("inf"))

    def test_normal_parameters(self):
        with pytest.raises(ValueError, match="finite"):
            NormalAxis(LinkLatencyScale(), mean=float("nan"))
        with pytest.raises(ValueError, match="non-negative"):
            NormalAxis(LinkLatencyScale(), mean=1.0, std=-0.5)
        with pytest.raises(ValueError, match="low <= high"):
            NormalAxis(LinkLatencyScale(), mean=1.0, std=1.0, low=3.0, high=2.0)

    def test_normal_clipping_projects_into_bounds(self):
        sampler = NormalAxis(DeviceLoadFactor(devices=("D",)), mean=3.0, std=5.0, low=1.0, high=4.0)
        draws = sampler.sample(np.random.default_rng(0), 500)
        assert draws.min() >= 1.0 and draws.max() <= 4.0

    def test_choice_validation(self):
        with pytest.raises(ValueError, match="at least one value"):
            ChoiceAxis(LinkBandwidthScale(), values=())
        with pytest.raises(ValueError, match="one per value"):
            ChoiceAxis(LinkBandwidthScale(), values=(0.5, 1.0), probs=(1.0,))
        with pytest.raises(ValueError, match=r"probs\[1\]"):
            ChoiceAxis(LinkBandwidthScale(), values=(0.5, 1.0), probs=(1.0, float("nan")))
        with pytest.raises(ValueError, match="positive"):
            ChoiceAxis(LinkBandwidthScale(), values=(0.5, 1.0), probs=(0.0, 0.0))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_choice_values_must_be_finite(self, value):
        with pytest.raises(ValueError, match=r"values\[1\]"):
            ChoiceAxis(LinkBandwidthScale(), values=(0.5, value))

    @pytest.mark.parametrize("side", ["low", "high"])
    def test_normal_clip_bounds_must_not_be_nan(self, side):
        with pytest.raises(ValueError, match=f"clip bound {side}"):
            NormalAxis(LinkLatencyScale(), mean=1.0, **{side: float("nan")})

    def test_choice_draws_come_from_the_menu(self):
        sampler = ChoiceAxis(LinkBandwidthScale(), values=(0.25, 0.5, 1.0), probs=(1.0, 1.0, 2.0))
        draws = sampler.sample(np.random.default_rng(3), 200)
        assert set(np.unique(draws)) <= {0.25, 0.5, 1.0}

    def test_segment_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            UserSegment("")
        for bad in (float("nan"), float("inf"), 0.0, -1.0):
            with pytest.raises(ValueError, match="finite and positive"):
                UserSegment("s", weight=bad)
        with pytest.raises(TypeError, match="AxisSampler"):
            UserSegment("s", axes=(LinkBandwidthScale(),))

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="at least one segment"):
            FleetSpec(segments=())
        with pytest.raises(ValueError, match="unique"):
            FleetSpec(segments=(UserSegment("a"), UserSegment("a")))
        with pytest.raises(TypeError, match="UserSegment"):
            FleetSpec(segments=("a",))

    def test_spec_lookup(self):
        spec = two_segment_spec()
        assert spec.names == ("wifi", "cell")
        assert spec.segment("cell").weight == 1.0
        with pytest.raises(KeyError, match="unknown segment"):
            spec.segment("dsl")


class TestApportion:
    def test_sums_exactly_and_is_proportional(self):
        spec = two_segment_spec()  # weights 3:1
        assert spec.apportion(8) == (6, 2)
        assert spec.apportion(7) == (5, 2)
        assert sum(spec.apportion(101)) == 101

    def test_equal_remainder_ties_break_toward_earlier_segments(self):
        spec = FleetSpec(segments=(UserSegment("a"), UserSegment("b"), UserSegment("c")))
        assert spec.apportion(4) == (2, 1, 1)

    def test_dominant_weight_can_round_a_segment_to_zero(self):
        spec = FleetSpec(
            segments=(UserSegment("big", weight=1000.0), UserSegment("tiny", weight=1.0))
        )
        assert spec.apportion(5) == (5, 0)

    def test_rejects_non_positive_counts(self):
        with pytest.raises(ValueError, match="positive"):
            two_segment_spec().apportion(0)


class TestSampleFleet:
    @pytest.mark.parametrize("n_users", [5.0, 10.7, float("nan"), float("inf"), True, np.float64(3.0), "4"])
    def test_rejects_non_integer_user_counts(self, n_users):
        with pytest.raises(TypeError, match=r"n_users must be an integer"):
            sample_fleet(two_segment_spec(), n_users)

    @pytest.mark.parametrize("n_users", [0, -3, np.int64(0)])
    def test_rejects_non_positive_user_counts(self, n_users):
        with pytest.raises(ValueError, match="n_users must be positive"):
            sample_fleet(two_segment_spec(), n_users)

    def test_accepts_numpy_integer_user_counts(self):
        fleet = sample_fleet(two_segment_spec(), np.int64(6), seed=2)
        assert fleet.grid == sample_fleet(two_segment_spec(), 6, seed=2).grid

    def test_same_seed_reproduces_the_grid_exactly(self):
        spec = two_segment_spec()
        a = sample_fleet(spec, 12, seed=7)
        b = sample_fleet(spec, 12, seed=7)
        assert a.segment_of_user == b.segment_of_user
        for left, right in zip(a.grid.scenarios, b.grid.scenarios):
            assert left == right
        c = sample_fleet(spec, 12, seed=8)
        assert any(l != r for l, r in zip(a.grid.scenarios, c.grid.scenarios))

    def test_names_weights_and_segment_mapping(self):
        spec = two_segment_spec()
        fleet = sample_fleet(spec, 12, seed=0)
        assert fleet.n_users == len(fleet) == 12
        assert fleet.users_of_segment("wifi") == tuple(range(9))
        assert fleet.users_of_segment("cell") == tuple(range(9, 12))
        for i, scenario in enumerate(fleet.grid.scenarios):
            segment = spec.segments[fleet.segment_of_user[i]]
            assert scenario.name == f"{segment.name}/u{i}"
        # Segment probability mass survives sampling exactly.
        weights = fleet.grid.weights
        assert np.isclose(weights[:9].sum(), 3.0)
        assert np.isclose(weights[9:].sum(), 1.0)
        assert np.all(np.isfinite(weights)) and np.all(weights > 0)

    def test_zero_count_segments_contribute_no_scenarios(self):
        spec = FleetSpec(
            segments=(UserSegment("big", weight=1000.0), UserSegment("tiny", weight=1.0))
        )
        fleet = sample_fleet(spec, 5, seed=0)
        assert fleet.n_users == 5
        assert fleet.users_of_segment("tiny") == ()
        with pytest.raises(ValueError, match="no users"):
            fleet.segment_grid("tiny")
        with pytest.raises(KeyError, match="unknown segment"):
            fleet.users_of_segment("dsl")

    def test_segment_grid_carries_the_users_over(self):
        fleet = sample_fleet(two_segment_spec(), 12, seed=0)
        sub = fleet.segment_grid("cell")
        assert tuple(s.name for s in sub.scenarios) == tuple(
            fleet.grid[i].name for i in fleet.users_of_segment("cell")
        )
        assert np.isclose(sub.weights.sum(), 1.0)

    def test_fleet_grid_flows_through_the_grid_engine(self):
        fleet = sample_fleet(two_segment_spec(), 10, seed=2)
        executor = SimulatedExecutor(edge_cluster_platform(), seed=0)
        tables = executor.grid_cost_tables(small_chain(), fleet.grid)
        assert tables.n_scenarios == fleet.n_users


class TestResample:
    def test_resample_preserves_membership_names_and_weights(self):
        fleet = sample_fleet(two_segment_spec(), 12, seed=0)
        drifted, replacements = fleet.resample_users([1, 4, 10], seed=99)
        assert sorted(replacements) == [1, 4, 10]
        assert drifted.segment_of_user == fleet.segment_of_user
        for i, (old, new) in enumerate(zip(fleet.grid.scenarios, drifted.grid.scenarios)):
            assert new.name == old.name
            assert new.weight == old.weight
            if i in replacements:
                assert new == replacements[i]
            else:
                assert new == old

    def test_drifted_grid_key_is_seeded_from_the_parent(self, monkeypatch):
        """The drifted grid's fingerprint parts come from its parent's, and equal
        those of an equal grid of new scenario objects; only redrawn users are
        hashed."""
        import repro.cache as cache
        from repro.scenarios import Scenario, ScenarioGrid

        fleet = sample_fleet(two_segment_spec(), 12, seed=3)
        parent_parts = cache._grid_fingerprint_parts(fleet.grid)
        hashed = []
        digest = cache.cached_fingerprint

        def counting_digest(obj):
            hashed.append(obj)
            return digest(obj)

        monkeypatch.setattr(cache, "cached_fingerprint", counting_digest)
        drifted, replacements = fleet.resample_users([2, 5, 9], seed=41)
        assert hashed == [replacements[i] for i in (2, 5, 9)]
        monkeypatch.undo()

        seeded = getattr(drifted.grid, cache._GRID_FINGERPRINT_PARTS_ATTR)
        rebuilt = ScenarioGrid(
            tuple(Scenario(s.name, settings=s.settings, weight=s.weight) for s in drifted.grid)
        )
        assert seeded == cache._grid_fingerprint_parts(rebuilt)
        assert cache.fingerprint(drifted.grid) == cache.fingerprint(rebuilt)
        assert [i for i, (a, b) in enumerate(zip(parent_parts, seeded)) if a != b] == [2, 5, 9]

    @pytest.mark.parametrize("bad", [1.7, True, np.float64(1.0), "1", None])
    def test_resample_rejects_non_integer_users(self, bad):
        fleet = sample_fleet(two_segment_spec(), 8, seed=0)
        with pytest.raises(TypeError, match=r"indices\[1\] must be an integer"):
            fleet.resample_users([0, bad], seed=0)

    def test_resample_accepts_numpy_integer_users(self):
        fleet = sample_fleet(two_segment_spec(), 8, seed=0)
        drifted, replacements = fleet.resample_users(np.array([1, 6]), seed=4)
        expected, _ = fleet.resample_users([1, 6], seed=4)
        assert sorted(replacements) == [1, 6]
        assert drifted.grid == expected.grid

    def test_resample_rejects_out_of_range_users(self):
        fleet = sample_fleet(two_segment_spec(), 8, seed=0)
        with pytest.raises(IndexError, match="out of range"):
            fleet.resample_users([8], seed=0)

    def test_drifted_fleet_is_a_bitwise_delta_rebuild(self):
        """resample_users + update_grid_tables == a from-scratch fused build."""
        platform = edge_cluster_platform()
        chain = small_chain()
        fleet = sample_fleet(two_segment_spec(), 10, seed=5)
        executor = SimulatedExecutor(platform, seed=0)
        tables = executor.grid_cost_tables(chain, fleet.grid)

        drifted, replacements = fleet.resample_users([0, 3, 7], seed=17)
        updated = executor.update_grid_tables(tables, replacements)
        stats = updated.cache_stats()
        # Only the redrawn users' condition slices were recomputed.
        assert stats.built == len(replacements)

        full = build_tables(chain, platform, scenarios=drifted.grid)
        for field in SLICE_FIELDS:
            assert getattr(updated, field).tobytes() == getattr(full, field).tobytes()
        assert updated.fingerprint == full.fingerprint
        # The updated tables are registered: re-requesting the drifted grid
        # through the executor is a cache hit, not a rebuild.
        assert executor.grid_cost_tables(chain, drifted.grid) is updated
