"""Tests for the scenario subsystem: axes, grids, platform derivation.

The core guarantees: axes are pure platform transforms that never rewire the
topology, neutral conditions are **bitwise** no-ops for every downstream
result, and scenario grids enumerate deterministically with unique names.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.devices import (
    DeviceSpec,
    LinkSpec,
    Platform,
    SimulatedExecutor,
    edge_cluster_platform,
    lte,
    smartphone_cloud_platform,
    wifi_ac,
)
from repro.scenarios import (
    DeviceLoadFactor,
    DvfsFrequencyScale,
    EnergyPriceScale,
    LinkBandwidthScale,
    LinkInterpolation,
    LinkLatencyScale,
    Scenario,
    ScenarioGrid,
    apply_conditions,
    link_degradation_grid,
)
from repro.tasks import RegularizedLeastSquaresTask, TaskChain


def small_chain() -> TaskChain:
    tasks = [
        RegularizedLeastSquaresTask(size=40 + 30 * i, iterations=3, name=f"L{i + 1}")
        for i in range(3)
    ]
    return TaskChain(tasks, name="scenario-test")


class TestPlatformDerivation:
    def test_with_devices_replaces_specs_and_keeps_topology(self):
        platform = smartphone_cloud_platform()
        upgraded = platform.with_devices({"A": DeviceSpec(name="new-a", peak_gflops=999.0)})
        assert upgraded.device("A").peak_gflops == 999.0
        assert upgraded.device("D") is platform.device("D")
        assert upgraded.links == platform.links
        assert upgraded.host == platform.host
        assert upgraded.name == platform.name
        # The base platform is untouched (pure derivation).
        assert platform.device("A").name != "new-a"

    def test_with_devices_rejects_unknown_aliases(self):
        platform = smartphone_cloud_platform()
        with pytest.raises(KeyError, match="unknown device aliases"):
            platform.with_devices({"Z": DeviceSpec(name="z")})

    def test_with_links_replaces_either_spelling(self):
        platform = smartphone_cloud_platform()
        new_link = LinkSpec(name="fast", bandwidth_gbs=100.0)
        for spelling in [("D", "A"), ("A", "D")]:
            derived = platform.with_links({spelling: new_link})
            assert derived.link("D", "A").name == "fast"
            assert derived.link("A", "D").name == "fast"

    def test_with_links_rejects_new_pairs(self):
        platform = Platform(
            devices={"D": DeviceSpec(name="d"), "A": DeviceSpec(name="a"), "B": DeviceSpec(name="b")},
            links={("D", "A"): LinkSpec(name="l", bandwidth_gbs=1.0)},
            host="D",
        )
        with pytest.raises(KeyError, match="no link defined"):
            platform.with_links({("D", "B"): LinkSpec(name="new", bandwidth_gbs=1.0)})


class TestConditionAxes:
    def test_link_bandwidth_scale(self):
        platform = edge_cluster_platform()
        scaled = LinkBandwidthScale().apply(platform, 0.5)
        for pair, link in platform.links.items():
            assert scaled.links[pair].bandwidth_gbs == link.bandwidth_gbs * 0.5
            assert scaled.links[pair].latency_s == link.latency_s
        targeted = LinkBandwidthScale(links=(("A", "D"),)).apply(platform, 0.5)
        assert targeted.link("D", "A").bandwidth_gbs == platform.link("D", "A").bandwidth_gbs * 0.5
        assert targeted.link("D", "N") is platform.link("D", "N")

    def test_link_latency_scale(self):
        platform = edge_cluster_platform()
        scaled = LinkLatencyScale(links=(("D", "E"),)).apply(platform, 10.0)
        assert scaled.link("D", "E").latency_s == platform.link("D", "E").latency_s * 10.0

    def test_device_load_divides_throughput(self):
        platform = edge_cluster_platform()
        loaded = DeviceLoadFactor(devices=("D",)).apply(platform, 2.0)
        assert loaded.device("D").peak_gflops == platform.device("D").peak_gflops / 2.0
        assert (
            loaded.device("D").memory_bandwidth_gbs
            == platform.device("D").memory_bandwidth_gbs / 2.0
        )
        assert loaded.device("A") is platform.device("A")
        with pytest.raises(ValueError, match=">= 1"):
            DeviceLoadFactor().apply(platform, 0.5)

    def test_dvfs_scales_peak_and_active_power(self):
        platform = edge_cluster_platform()
        throttled = DvfsFrequencyScale(devices=("E",)).apply(platform, 0.5)
        assert throttled.device("E").peak_gflops == platform.device("E").peak_gflops * 0.5
        assert throttled.device("E").power_active_w == platform.device("E").power_active_w * 0.5
        assert throttled.device("E").power_idle_w == platform.device("E").power_idle_w
        with pytest.raises(ValueError):
            DvfsFrequencyScale().apply(platform, 1.5)

    def test_energy_price_scale(self):
        platform = edge_cluster_platform()
        surge = EnergyPriceScale(devices=("A",)).apply(platform, 3.0)
        assert surge.device("A").cost_per_hour == platform.device("A").cost_per_hour * 3.0

    def test_link_interpolation_hits_endpoints_exactly(self):
        platform = edge_cluster_platform()
        axis = LinkInterpolation(links=(("D", "A"),), start=wifi_ac(), end=lte())
        at_start = axis.apply(platform, 0.0)
        at_end = axis.apply(platform, 1.0)
        assert at_start.link("D", "A") == wifi_ac()
        assert at_end.link("D", "A") == lte()
        midway = axis.apply(platform, 0.5).link("D", "A")
        lo, hi = sorted([wifi_ac().bandwidth_gbs, lte().bandwidth_gbs])
        assert lo < midway.bandwidth_gbs < hi
        with pytest.raises(ValueError):
            axis.apply(platform, 1.5)

    def test_axes_validate_their_targets(self):
        platform = edge_cluster_platform()
        with pytest.raises(KeyError):
            LinkBandwidthScale(links=(("D", "Z"),)).apply(platform, 0.5)
        with pytest.raises(KeyError):
            DeviceLoadFactor(devices=("Z",)).apply(platform, 2.0)


class TestScenario:
    def test_apply_conditions_folds_axes_and_renames(self):
        platform = edge_cluster_platform()
        scenario = Scenario(
            "rush-hour",
            settings=(
                (LinkBandwidthScale(), 0.25),
                (DeviceLoadFactor(devices=("D",)), 2.0),
            ),
        )
        derived = apply_conditions(platform, scenario)
        assert derived.name == "edge-cluster@rush-hour"
        assert derived.link("D", "A").bandwidth_gbs == platform.link("D", "A").bandwidth_gbs * 0.25
        assert derived.device("D").peak_gflops == platform.device("D").peak_gflops / 2.0
        assert scenario.describe() == "link-bandwidth=0.25, device-load=2"

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            Scenario("")
        with pytest.raises(ValueError):
            Scenario("s", weight=-1.0)

    def test_identity_scenario_is_bitwise_neutral(self):
        """Neutral factors reproduce the baseline executor results bit for bit."""
        platform = edge_cluster_platform()
        neutral = Scenario(
            "neutral",
            settings=(
                (LinkBandwidthScale(), 1.0),
                (LinkLatencyScale(), 1.0),
                (DeviceLoadFactor(), 1.0),
                (DvfsFrequencyScale(), 1.0),
                (EnergyPriceScale(), 1.0),
            ),
        )
        derived = apply_conditions(platform, neutral)
        chain = small_chain()
        baseline = SimulatedExecutor(platform, seed=0)
        conditioned = SimulatedExecutor(derived, seed=0)
        base_batch = baseline.execute_batch(chain)
        cond_batch = conditioned.execute_batch(chain)
        assert np.array_equal(base_batch.total_time_s, cond_batch.total_time_s)
        assert np.array_equal(base_batch.energy_total_j, cond_batch.energy_total_j)
        assert np.array_equal(base_batch.operating_cost, cond_batch.operating_cost)
        assert np.array_equal(base_batch.busy_by_device, cond_batch.busy_by_device)
        record = baseline.execute(chain, "DNA")
        conditioned_record = conditioned.execute(chain, "DNA")
        assert record.total_time_s == conditioned_record.total_time_s
        assert record.energy.total_j == conditioned_record.energy.total_j

    def test_scenarios_are_picklable(self):
        scenario = Scenario(
            "s", settings=((LinkInterpolation(links=(("D", "A"),), start=wifi_ac(), end=lte()), 0.5),)
        )
        clone = pickle.loads(pickle.dumps(scenario))
        assert clone == scenario


class TestScenarioGrid:
    def test_cartesian_enumerates_lexicographically(self):
        grid = ScenarioGrid.cartesian(
            [
                (LinkBandwidthScale(), [1.0, 0.5]),
                (DeviceLoadFactor(), [1.0, 2.0, 4.0]),
            ]
        )
        assert len(grid) == 6
        assert grid.names[0] == "link-bandwidth=1|device-load=1"
        assert grid.names[-1] == "link-bandwidth=0.5|device-load=4"
        assert [scenario.settings[1][1] for scenario in grid] == [1.0, 2.0, 4.0, 1.0, 2.0, 4.0]

    def test_cartesian_weights(self):
        weights = [0.5, 0.3, 0.2]
        grid = ScenarioGrid.cartesian([(DeviceLoadFactor(), [1.0, 2.0, 3.0])], weights=weights)
        assert np.array_equal(grid.weights, np.array(weights))
        with pytest.raises(ValueError, match="weights"):
            ScenarioGrid.cartesian([(DeviceLoadFactor(), [1.0, 2.0])], weights=[1.0])

    def test_unique_names_required(self):
        scenario = Scenario("same")
        with pytest.raises(ValueError, match="unique"):
            ScenarioGrid(scenarios=(scenario, Scenario("same")))
        with pytest.raises(ValueError):
            ScenarioGrid(scenarios=())

    def test_duplicate_names_are_found_in_linear_time(self):
        """The duplicate list of a 60,001-scenario grid comes in one pass
        (counting each name's copies one by one would take minutes)."""
        import time

        names = [f"s{i}" for i in range(59_999)] + ["s7", "s41"]
        scenarios = tuple(Scenario(name) for name in names)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"duplicated: \['s41', 's7'\]$"):
            ScenarioGrid(scenarios)
        assert time.perf_counter() - start < 5.0

    def test_lookup_and_platforms(self):
        platform = edge_cluster_platform()
        grid = link_degradation_grid([("D", "A")], start=wifi_ac(), end=lte(), n_points=3)
        assert len(grid.platforms(platform)) == 3
        assert grid.scenario(grid.names[1]).name == grid.names[1]
        with pytest.raises(KeyError, match="available"):
            grid.scenario("nope")

    def test_degradation_grid_spans_endpoints(self):
        platform = edge_cluster_platform()
        grid = link_degradation_grid([("D", "A"), ("N", "A")], start=wifi_ac(), end=lte(), n_points=5)
        platforms = grid.platforms(platform)
        assert platforms[0].link("D", "A") == wifi_ac()
        assert platforms[-1].link("N", "A") == lte()
        bandwidths = [p.link("D", "A").bandwidth_gbs for p in platforms]
        assert bandwidths == sorted(bandwidths, reverse=True)  # monotone degradation
        with pytest.raises(ValueError):
            link_degradation_grid([("D", "A")], start=wifi_ac(), end=lte(), n_points=1)
