"""Regression tests: non-finite scenario weights must be rejected, not waved
through.

``weight < 0`` compares ``False`` for NaN, so the original validation let
``Scenario(weight=float("nan"))`` (and NaN entries in
``ScenarioGrid.cartesian(weights=...)`` / ``ExpectedValueObjective``) slip
into weighted reductions, turning every robust value into NaN with no error
pointing at the bad input.  These tests pin the fixed behaviour: non-finite
and negative weights raise immediately, naming the offending value.
"""

import numpy as np
import pytest

from repro.devices import build_tables, edge_cluster_platform, lte, wifi_ac
from repro.scenarios import (
    DeviceFailureRate,
    DeviceLoadFactor,
    DvfsFrequencyScale,
    EnergyPriceScale,
    LinkBandwidthScale,
    LinkDropoutRate,
    LinkInterpolation,
    LinkLatencyScale,
    Scenario,
    ScenarioGrid,
)
from repro.search import ExpectedValueObjective
from repro.tasks import table1_chain

SHIPPED_AXES = (
    LinkBandwidthScale(),
    LinkLatencyScale(),
    DeviceLoadFactor(),
    DvfsFrequencyScale(),
    EnergyPriceScale(),
    LinkInterpolation(links=(("D", "A"),), start=wifi_ac(), end=lte()),
    DeviceFailureRate(),
    LinkDropoutRate(),
)


class TestScenarioWeight:
    def test_nan_weight_is_rejected(self):
        with pytest.raises(ValueError, match="weight must be finite"):
            Scenario(name="s", weight=float("nan"))

    def test_infinite_and_negative_weights_are_rejected(self):
        for bad in (float("inf"), float("-inf"), -1.0):
            with pytest.raises(ValueError, match="weight must be finite"):
                Scenario(name="s", weight=bad)

    def test_zero_weight_remains_legal_mass(self):
        assert Scenario(name="s", weight=0.0).weight == 0.0

    def test_default_weight_is_one(self):
        assert Scenario(name="s").weight == 1.0


class TestCartesianWeights:
    AXES = [
        (LinkBandwidthScale(), [1.0, 0.5]),
        (LinkLatencyScale(), [1.0, 2.0]),
    ]

    def test_nan_entry_is_rejected_naming_the_callers_index(self):
        with pytest.raises(ValueError, match=r"weights\[2\]"):
            ScenarioGrid.cartesian(self.AXES, weights=[1.0, 1.0, float("nan"), 1.0])

    def test_negative_entry_is_rejected_naming_the_callers_index(self):
        with pytest.raises(ValueError, match=r"weights\[3\]"):
            ScenarioGrid.cartesian(self.AXES, weights=[1.0, 1.0, 1.0, -2.0])

    def test_length_mismatch_is_rejected_upfront(self):
        with pytest.raises(ValueError, match="weights"):
            ScenarioGrid.cartesian(self.AXES, weights=[1.0, 1.0])

    def test_valid_weights_land_on_the_scenarios(self):
        grid = ScenarioGrid.cartesian(self.AXES, weights=[4.0, 3.0, 2.0, 1.0])
        assert np.array_equal(grid.weights, np.array([4.0, 3.0, 2.0, 1.0]))


class TestExpectedValueObjectiveWeights:
    def test_constructor_rejects_non_finite_weights(self):
        with pytest.raises(ValueError, match=r"weights\[1\]"):
            ExpectedValueObjective(weights=(1.0, float("nan")))

    def test_with_weights_rejects_non_finite_weights(self):
        with pytest.raises(ValueError, match=r"weights\[0\]"):
            ExpectedValueObjective().with_weights((float("inf"), 1.0))

    def test_all_zero_weights_are_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ExpectedValueObjective(weights=(0.0, 0.0))

    def test_reduction_no_longer_emits_silent_nan(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        reduced = ExpectedValueObjective(weights=(1.0, 3.0)).reduce(values)
        assert np.all(np.isfinite(reduced))
        assert np.array_equal(reduced, np.array([2.5, 3.5]))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=repr)
@pytest.mark.parametrize("axis", SHIPPED_AXES, ids=lambda axis: axis.name)
class TestConditionValueFiniteness:
    """Non-finite condition values are rejected at the axis, naming it.

    ``DeviceLoadFactor(inf)`` used to pass validation and surface as
    divide-by-zero warnings plus a misleading placement-index error, NaN
    values failed only deep in search, and ``LinkBandwidthScale(inf)`` /
    ``LinkLatencyScale(inf)`` were accepted silently.
    """

    def test_apply_rejects_the_value(self, axis, value):
        with pytest.raises(ValueError, match=f"{axis.name} value must be finite, got {value!r}"):
            axis.apply(edge_cluster_platform(), value)

    def test_fused_grid_build_rejects_the_value(self, axis, value):
        grid = ScenarioGrid((Scenario("calm"), Scenario("bad", settings=((axis, value),))))
        with pytest.raises(ValueError, match=f"{axis.name} value must be finite, got {value!r}"):
            build_tables(table1_chain(loop_size=1), edge_cluster_platform(), scenarios=grid)
