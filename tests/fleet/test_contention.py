"""Multi-tenant contention: load model, fixed points, differential evaluation."""

import numpy as np
import pytest

from repro.devices import SimulatedExecutor, edge_cluster_platform
from repro.devices.grid import execute_placements_grid
from repro.fleet import (
    ContentionModel,
    FleetSpec,
    UniformAxis,
    UserSegment,
    sample_fleet,
    solve_contention,
)
from repro.scenarios import LinkBandwidthScale, LinkLatencyScale
from repro.tasks import figure1_chain


@pytest.fixture(scope="module")
def setup():
    platform = edge_cluster_platform()
    spec = FleetSpec(
        segments=(
            UserSegment(
                "wifi",
                weight=2.0,
                axes=(UniformAxis(LinkBandwidthScale(), 0.8, 1.2),),
            ),
            UserSegment(
                "cell",
                weight=1.0,
                axes=(
                    UniformAxis(LinkBandwidthScale(), 0.2, 0.5),
                    UniformAxis(LinkLatencyScale(), 2.0, 4.0),
                ),
            ),
        )
    )
    fleet = sample_fleet(spec, 9, seed=1)
    executor = SimulatedExecutor(platform, seed=0)
    return executor, figure1_chain(), fleet


class TestContentionModel:
    def test_load_curve(self):
        model = ContentionModel(alpha=0.5, exponent=1.0)
        assert np.array_equal(
            model.load(np.array([0.0, 1.0, 2.0, 3.0])), np.array([1.0, 1.0, 1.5, 2.0])
        )

    def test_superlinear_exponent_models_thrash(self):
        model = ContentionModel(alpha=0.1, exponent=2.0)
        assert np.isclose(model.load(np.array([4.0]))[0], 1.0 + 0.1 * 9.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            ContentionModel(alpha=-0.1)
        with pytest.raises(ValueError, match="alpha"):
            ContentionModel(alpha=float("nan"))
        with pytest.raises(ValueError, match="exponent"):
            ContentionModel(exponent=0.0)

    def test_contended_restricts_to_named_devices(self):
        model = ContentionModel(devices=("E",))
        assert model.contended(("D", "N", "E", "A")) == (False, False, True, False)
        with pytest.raises(ValueError, match="unknown devices"):
            model.contended(("D", "N"))


class TestFixedAssignment:
    def test_shared_placement_converges_in_two_iterations(self, setup):
        executor, chain, fleet = setup
        res = solve_contention(
            executor, chain, fleet, ContentionModel(alpha=0.2), placements="DE"
        )
        # Counts are load-independent under a fixed assignment: iteration 1
        # moves the loads onto the counts, iteration 2 confirms them exactly.
        assert res.converged
        assert res.n_iterations == 2
        assert res.residuals[-1] == 0.0
        assert res.placements == (("D", "E"),) * fleet.n_users
        # Every user is one tenant on each device its placement touches.
        counts = dict(zip(res.aliases, res.counts))
        assert np.isclose(counts["D"], fleet.n_users)
        assert np.isclose(counts["E"], fleet.n_users)
        assert counts["N"] == 0.0 and counts["A"] == 0.0
        loads = dict(zip(res.aliases, res.loads))
        model = ContentionModel(alpha=0.2)
        assert loads["D"] == loads["E"] == model.load(np.array([float(fleet.n_users)]))[0]
        assert loads["N"] == loads["A"] == 1.0

    def test_fixed_point_is_differentially_reproducible(self, setup):
        """Rebuilding the loaded grid and re-evaluating reproduces the result bitwise."""
        executor, chain, fleet = setup
        res = solve_contention(
            executor, chain, fleet, ContentionModel(alpha=0.3), placements="DE"
        )
        tables = executor.grid_cost_tables(chain, res.grid)
        matrix = np.array(
            [[res.aliases.index(alias) for alias in placement] for placement in res.placements]
        )
        direct = execute_placements_grid(tables, matrix).metric_values("time")
        per_user = direct[np.arange(fleet.n_users), np.arange(fleet.n_users)]
        assert np.array_equal(per_user, res.per_user_values)

    def test_per_user_placements_count_tenants_per_device(self, setup):
        executor, chain, fleet = setup
        placements = ["DD" if i % 2 == 0 else "EE" for i in range(fleet.n_users)]
        res = solve_contention(
            executor, chain, fleet, ContentionModel(alpha=0.1), placements=placements
        )
        assert res.converged
        counts = dict(zip(res.aliases, res.counts))
        # Tenant mass is weight-proportional, not a head count: the two halves
        # carry different probability mass but the total is the fleet size.
        assert np.isclose(counts["D"] + counts["E"], fleet.n_users)
        weights = fleet.grid.weights
        share = fleet.n_users * weights / weights.sum()
        assert np.isclose(counts["D"], share[0::2].sum())
        assert np.isclose(counts["E"], share[1::2].sum())

    def test_device_restriction_leaves_excluded_devices_unloaded(self, setup):
        executor, chain, fleet = setup
        res = solve_contention(
            executor,
            chain,
            fleet,
            ContentionModel(alpha=0.5, devices=("E",)),
            placements="DE",
        )
        loads = dict(zip(res.aliases, res.loads))
        assert loads["D"] == 1.0  # used by every placement, but not contended
        assert loads["E"] > 1.0

    def test_zero_alpha_means_no_contention(self, setup):
        executor, chain, fleet = setup
        res = solve_contention(
            executor, chain, fleet, ContentionModel(alpha=0.0), placements="DE"
        )
        assert res.converged and res.n_iterations == 1
        assert np.array_equal(res.loads, np.ones(len(res.aliases)))


class TestBestResponse:
    def test_heterogeneous_menu_converges_with_damping(self, setup):
        executor, chain, fleet = setup
        candidates = ["DD", "NN", "EE", "AA", "DN", "DE"]
        res = solve_contention(
            executor,
            chain,
            fleet,
            ContentionModel(alpha=0.1),
            candidates=candidates,
            damping=0.5,
            max_iterations=60,
        )
        assert res.converged
        assert res.residuals[-1] <= 1e-9
        labels = {"".join(placement) for placement in res.placements}
        assert labels <= set(candidates)
        # At the fixed point no user wants to deviate: re-evaluating the menu
        # under the returned loaded grid reproduces every user's choice.
        tables = executor.grid_cost_tables(chain, res.grid)
        matrix = np.array(
            [[res.aliases.index(alias) for alias in candidate] for candidate in candidates]
        )
        values = execute_placements_grid(tables, matrix).metric_values("time")
        choices = values.argmin(axis=1)
        assert tuple(candidates[c] for c in choices) == tuple(
            "".join(p) for p in res.placements
        )
        assert np.array_equal(values[np.arange(fleet.n_users), choices], res.per_user_values)

    def test_contention_spreads_users_across_devices(self, setup):
        executor, chain, fleet = setup
        res = solve_contention(
            executor,
            chain,
            fleet,
            ContentionModel(alpha=0.1),
            candidates=["DD", "NN", "EE", "AA", "DN", "DE"],
            damping=0.5,
            max_iterations=60,
        )
        uncontended = solve_contention(
            executor,
            chain,
            fleet,
            ContentionModel(alpha=0.0),
            candidates=["DD", "NN", "EE", "AA", "DN", "DE"],
        )
        # Without contention every user picks its personal best; with it the
        # shared devices fill up and the fleet spreads over more placements.
        assert len(set(res.placements)) >= len(set(uncontended.placements))

    def test_non_convergence_is_reported_honestly(self, setup):
        executor, chain, fleet = setup
        res = solve_contention(
            executor,
            chain,
            fleet,
            ContentionModel(alpha=0.5),
            candidates=["DD", "EE"],
            max_iterations=3,
        )
        assert res.n_iterations == 3
        assert len(res.residuals) == 3
        if not res.converged:
            assert res.residuals[-1] > 1e-9

    def test_summary_mentions_convergence_and_loads(self, setup):
        executor, chain, fleet = setup
        res = solve_contention(
            executor, chain, fleet, ContentionModel(alpha=0.2), placements="DE"
        )
        text = res.summary()
        assert "converged" in text
        assert "D=" in text and "E=" in text


class TestValidation:
    def test_exactly_one_mode(self, setup):
        executor, chain, fleet = setup
        with pytest.raises(ValueError, match="exactly one"):
            solve_contention(executor, chain, fleet, ContentionModel())
        with pytest.raises(ValueError, match="exactly one"):
            solve_contention(
                executor, chain, fleet, ContentionModel(), placements="DE", candidates=["DE"]
            )

    def test_loop_parameters(self, setup):
        executor, chain, fleet = setup
        with pytest.raises(ValueError, match="max_iterations"):
            solve_contention(
                executor, chain, fleet, ContentionModel(), placements="DE", max_iterations=0
            )
        for damping in (0.0, 1.5):
            with pytest.raises(ValueError, match="damping"):
                solve_contention(
                    executor, chain, fleet, ContentionModel(), placements="DE", damping=damping
                )

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1.0, -1e-12])
    def test_tol_must_be_finite_and_non_negative(self, setup, tol):
        executor, chain, fleet = setup
        with pytest.raises(ValueError, match="tol"):
            solve_contention(executor, chain, fleet, ContentionModel(), placements="DE", tol=tol)

    def test_zero_tol_is_accepted(self, setup):
        executor, chain, fleet = setup
        res = solve_contention(
            executor, chain, fleet, ContentionModel(alpha=0.2), placements="DE", tol=0.0
        )
        assert res.n_iterations >= 1

    def test_placement_shape_and_aliases(self, setup):
        executor, chain, fleet = setup
        with pytest.raises(ValueError, match="devices for"):
            solve_contention(executor, chain, fleet, ContentionModel(), placements="D")
        with pytest.raises(ValueError, match="unknown device"):
            solve_contention(executor, chain, fleet, ContentionModel(), placements="DX")
        with pytest.raises(ValueError, match="one placement per user"):
            solve_contention(
                executor, chain, fleet, ContentionModel(), placements=[("D", "E"), ("D", "D")]
            )
        with pytest.raises(ValueError, match="non-empty"):
            solve_contention(executor, chain, fleet, ContentionModel(), candidates=[])
