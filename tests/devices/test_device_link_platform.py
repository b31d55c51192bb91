"""Tests for device, link, platform and energy models."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import (
    DeviceSpec,
    EnergyBreakdown,
    LinkSpec,
    Platform,
    cpu_gpu_platform,
    get_platform,
    nvidia_p100,
    nvidia_p100_native,
    raspberry_pi_4,
    smartphone_cloud_platform,
    xeon_8160_core,
)
from repro.tasks import GemmLoopTask, RegularizedLeastSquaresTask


DEVICE_NUMERIC_FIELDS = (
    "peak_gflops",
    "half_saturation_flops",
    "memory_bandwidth_gbs",
    "kernel_launch_overhead_s",
    "task_startup_overhead_s",
    "power_active_w",
    "power_idle_w",
    "cost_per_hour",
)
LINK_NUMERIC_FIELDS = ("bandwidth_gbs", "latency_s", "energy_per_byte_j")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=repr)
@pytest.mark.parametrize(
    "spec, field",
    [(DeviceSpec, name) for name in DEVICE_NUMERIC_FIELDS]
    + [(LinkSpec, name) for name in LINK_NUMERIC_FIELDS],
    ids=lambda item: item if isinstance(item, str) else item.__name__,
)
def test_specs_reject_non_finite_numbers(spec, field, value):
    required = {"bandwidth_gbs": 1.0} if spec is LinkSpec else {}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        spec(name="x", **{**required, field: value})


class TestDeviceSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceSpec(name="")
        with pytest.raises(ValueError):
            DeviceSpec(name="x", peak_gflops=0)
        with pytest.raises(ValueError):
            DeviceSpec(name="x", power_active_w=-1)

    def test_effective_gflops_saturates(self):
        gpu = nvidia_p100()
        small = gpu.effective_gflops(1e4)
        large = gpu.effective_gflops(1e12)
        assert small < large <= gpu.peak_gflops
        assert large == pytest.approx(gpu.peak_gflops, rel=1e-3)
        with pytest.raises(ValueError):
            gpu.effective_gflops(0)

    def test_compute_time_monotone_in_flops(self):
        cpu = xeon_8160_core()
        small = GemmLoopTask(64, iterations=1).cost()
        large = GemmLoopTask(256, iterations=1).cost()
        assert cpu.compute_time(small) < cpu.compute_time(large)

    def test_accelerator_is_slower_on_tiny_kernels_than_cpu(self):
        """The occupancy effect behind Table I: tiny RLS solves do not pay off on the GPU."""
        cpu, gpu = xeon_8160_core(), nvidia_p100()
        tiny = RegularizedLeastSquaresTask(size=50, iterations=10).cost()
        big = GemmLoopTask(2048, iterations=2).cost()
        assert gpu.compute_time(tiny) > cpu.compute_time(tiny)
        assert gpu.compute_time(big) < cpu.compute_time(big)

    def test_native_p100_is_faster_than_framework_view(self):
        big = GemmLoopTask(2048, iterations=2).cost()
        assert nvidia_p100_native().compute_time(big) < nvidia_p100().compute_time(big)

    def test_energy_and_cost_helpers(self):
        gpu = nvidia_p100()
        assert gpu.active_energy(2.0) == pytest.approx(2.0 * gpu.power_active_w)
        assert gpu.idle_energy(3.0) == pytest.approx(3.0 * gpu.power_idle_w)
        assert gpu.operating_cost(3600.0) == pytest.approx(gpu.cost_per_hour)
        with pytest.raises(ValueError):
            gpu.active_energy(-1)
        with pytest.raises(ValueError):
            gpu.operating_cost(-1)

    @given(flops=st.floats(min_value=1e3, max_value=1e13))
    @settings(max_examples=40, deadline=None)
    def test_effective_gflops_bounded_by_peak(self, flops):
        device = raspberry_pi_4()
        assert 0 < device.effective_gflops(flops) <= device.peak_gflops


class TestLinkSpec:
    def test_transfer_time_and_energy(self):
        link = LinkSpec(name="l", bandwidth_gbs=1.0, latency_s=1e-3, energy_per_byte_j=1e-9)
        assert link.transfer_time(0) == 0.0
        assert link.transfer_time(1e9) == pytest.approx(1e-3 + 1.0)
        assert link.transfer_energy(100) == pytest.approx(1e-7)
        with pytest.raises(ValueError):
            link.transfer_time(-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkSpec(name="", bandwidth_gbs=1)
        with pytest.raises(ValueError):
            LinkSpec(name="x", bandwidth_gbs=0)
        with pytest.raises(ValueError):
            LinkSpec(name="x", bandwidth_gbs=1, latency_s=-1)


class TestPlatform:
    def test_cpu_gpu_platform_structure(self):
        platform = cpu_gpu_platform()
        assert platform.host == "D"
        assert platform.aliases == ["D", "A"]
        assert platform.accelerators == ["A"]
        assert platform.device("A").kind == "gpu"
        assert platform.link("D", "A").name == platform.link("A", "D").name

    def test_transfer_helpers(self):
        platform = cpu_gpu_platform()
        assert platform.transfer_time("D", "D", 1e6) == 0.0
        assert platform.transfer_time("D", "A", 1e6) > 0.0
        assert platform.transfer_energy("A", "D", 1e6) > 0.0

    def test_unknown_alias_and_link_errors(self):
        platform = cpu_gpu_platform()
        with pytest.raises(KeyError):
            platform.device("Z")
        with pytest.raises(ValueError):
            platform.link("D", "D")
        with pytest.raises(KeyError):
            platform.validate_aliases(["D", "Z"])

    def test_invalid_construction(self):
        cpu = xeon_8160_core()
        with pytest.raises(ValueError):
            Platform(devices={}, host="D")
        with pytest.raises(ValueError):
            Platform(devices={"X": cpu}, host="D")
        with pytest.raises(ValueError):
            Platform(devices={"D": cpu}, links={("D", "D"): LinkSpec("l", 1.0)}, host="D")
        with pytest.raises(ValueError):
            Platform(devices={"D": cpu}, links={("D", "Z"): LinkSpec("l", 1.0)}, host="D")

    def test_registry(self):
        assert get_platform("cpu-gpu").name == "cpu-gpu"
        with pytest.raises(KeyError):
            get_platform("nope")

    def test_unknown_platform_error_lists_available_names(self):
        with pytest.raises(KeyError, match="available.*cpu-gpu"):
            get_platform("nope")

    def test_register_platform(self):
        from repro.devices import PLATFORMS, register_platform

        def tiny() -> Platform:
            return Platform(devices={"D": xeon_8160_core()}, host="D", name="tiny")

        register_platform("tiny-test", tiny)
        try:
            assert get_platform("tiny-test").name == "tiny"
            # Accidental shadowing is rejected; explicit overwrite works.
            with pytest.raises(ValueError, match="already registered"):
                register_platform("tiny-test", tiny)
            register_platform("tiny-test", tiny, overwrite=True)
            with pytest.raises(TypeError):
                register_platform("junk", "not-callable")
            with pytest.raises(ValueError):
                register_platform("", tiny)
        finally:
            PLATFORMS.pop("tiny-test", None)

    def test_three_device_platform(self):
        platform = smartphone_cloud_platform()
        assert set(platform.aliases) == {"D", "A", "N"}
        assert platform.link("A", "N").name == "lte"


class TestEnergyBreakdown:
    def test_totals_and_device_accessors(self):
        breakdown = EnergyBreakdown(
            active_j={"D": 1.0, "A": 2.0}, idle_j={"D": 0.5, "A": 0.25}, transfer_j=0.25
        )
        assert breakdown.total_j == pytest.approx(4.0)
        assert breakdown.device_total("A") == pytest.approx(2.25)
        assert breakdown.devices == ["A", "D"]

    def test_combined(self):
        a = EnergyBreakdown(active_j={"D": 1.0}, idle_j={"D": 0.0}, transfer_j=0.1)
        b = EnergyBreakdown(active_j={"A": 2.0}, idle_j={"A": 1.0}, transfer_j=0.2)
        combined = a.combined(b)
        assert combined.total_j == pytest.approx(a.total_j + b.total_j)
        assert combined.device_total("D") == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyBreakdown(active_j={"D": -1.0})
        with pytest.raises(ValueError):
            EnergyBreakdown(transfer_j=-0.1)
