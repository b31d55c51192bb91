"""Experiment ``decision_model``: the cost/speed trade-off numbers of Section IV.

The paper argues that whether procuring/operating an accelerator is worth it
depends on the margin of speed-up: for loop size n = 10 the mean execution
time of ``algDDA`` is only ~2 ms better than ``algDDD`` (speed-up ~1.05), and
the speed-up grows with n.  A decision model can then trade the operating cost
of the accelerator against that speed-up.

This experiment sweeps the loop size n, reports the DDA-vs-DDD gap and
speed-up per n, and evaluates the :class:`~repro.selection.decision.DecisionModel`
under a range of operating-cost weights, showing the switch-over from
"offload L3" to "stay on the device" as cost becomes more important.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..core.analyzer import AnalysisResult
from ..devices import BatchExecutionResult, SimulatedExecutor, cpu_gpu_platform
from ..measurement.dataset import MeasurementSet
from ..measurement.noise import default_system_noise
from ..offload import AlgorithmProfile, enumerate_algorithms, profiles_from_batch
from ..reporting import format_table
from ..selection import DecisionModel
from ..tasks import table1_chain
from .base import default_analyzer

__all__ = ["DecisionModelConfig", "SweepPoint", "DecisionModelResult", "run"]


@dataclass(frozen=True)
class DecisionModelConfig:
    """Parameters of the decision-model experiment."""

    #: Loop sizes n to sweep (the paper discusses n = 10 and "when n becomes larger").
    loop_sizes: Sequence[int] = (5, 10, 20, 40)
    #: Operating-cost weights (seconds per cost unit) for the decision model.
    cost_weights: Sequence[float] = (0.0, 100.0, 10_000.0)
    n_measurements: int = 30
    repetitions: int = 60
    seed: int = 0
    noise_level: float = 1.0


@dataclass(frozen=True)
class SweepPoint:
    """DDA-vs-DDD comparison for one loop size n."""

    loop_size: int
    mean_ddd_s: float
    mean_dda_s: float
    speedup: float
    gap_s: float
    measurements: MeasurementSet
    analysis: AnalysisResult
    profiles: Mapping[str, AlgorithmProfile]


@dataclass(frozen=True)
class DecisionModelResult:
    config: DecisionModelConfig
    sweep: tuple[SweepPoint, ...]
    #: label selected by the decision model per (loop size, cost weight).
    decisions: Mapping[tuple[int, float], str]

    def speedups(self) -> dict[int, float]:
        return {point.loop_size: point.speedup for point in self.sweep}

    def gaps_s(self) -> dict[int, float]:
        return {point.loop_size: point.gap_s for point in self.sweep}

    def report(self) -> str:
        rows = [
            (
                point.loop_size,
                f"{point.mean_ddd_s * 1e3:.2f}",
                f"{point.mean_dda_s * 1e3:.2f}",
                f"{point.gap_s * 1e3:.2f}",
                f"{point.speedup:.3f}",
            )
            for point in self.sweep
        ]
        parts = [
            "Decision-model experiment (Section IV): speed-up of algDDA over algDDD vs loop size n",
            format_table(
                ("loop size n", "mean DDD [ms]", "mean DDA [ms]", "gap [ms]", "speed-up"), rows
            ),
            "",
            "Decision-model selections (time + cost_weight * operating cost):",
        ]
        decision_rows = [
            (loop_size, f"{weight:g}", label)
            for (loop_size, weight), label in sorted(self.decisions.items(), key=lambda kv: (kv[0][0], kv[0][1]))
        ]
        parts.append(format_table(("loop size n", "cost weight", "selected algorithm"), decision_rows))
        return "\n".join(parts)


def run(config: DecisionModelConfig | None = None) -> DecisionModelResult:
    """Sweep the loop size and evaluate the cost/speed decision model.

    The measurement phase walks the loop sizes, but the clustering of the
    whole sweep runs as *one* batched campaign through
    :meth:`~repro.core.analyzer.RelativePerformanceAnalyzer.analyze_many`.
    Each campaign entry is analyzed by an independent analyzer copy, which
    matches the previous one-fresh-analyzer-per-loop-size behaviour exactly.
    """
    cfg = config or DecisionModelConfig()
    platform = cpu_gpu_platform()

    campaign: dict[int, MeasurementSet] = {}
    profiles_by_n: dict[int, Mapping[str, AlgorithmProfile]] = {}
    spaces_by_n: dict[int, BatchExecutionResult] = {}
    for loop_size in cfg.loop_sizes:
        if loop_size in campaign:
            continue  # duplicate entries share one measurement + analysis (deterministic)
        executor = SimulatedExecutor(
            platform, noise=default_system_noise(cfg.noise_level), seed=cfg.seed + loop_size
        )
        chain = table1_chain(loop_size=loop_size)
        algorithms = enumerate_algorithms(chain, platform)
        # One batch execution per loop size serves the measurements, the
        # reporting profiles *and* the decisions (bit-for-bit identical to the
        # per-placement loop).
        space = executor.execute_batch(chain, [a.placement.devices for a in algorithms])
        campaign[loop_size] = executor.measure_batch(space, repetitions=cfg.n_measurements)
        profiles_by_n[loop_size] = profiles_from_batch(algorithms, space)
        spaces_by_n[loop_size] = space

    analyzer = default_analyzer(
        seed=cfg.seed, repetitions=cfg.repetitions, n_measurements=cfg.n_measurements
    )
    analyses = analyzer.analyze_many(campaign)

    sweep: list[SweepPoint] = []
    decisions: dict[tuple[int, float], str] = {}
    # Iterate the configured entries (not the deduplicated campaign keys) so a
    # repeated loop size still yields one SweepPoint per entry, as before.
    for loop_size in cfg.loop_sizes:
        measurements = campaign[loop_size]
        analysis = analyses[loop_size]
        profiles = profiles_by_n[loop_size]
        sweep.append(
            SweepPoint(
                loop_size=loop_size,
                mean_ddd_s=measurements.mean("DDD"),
                mean_dda_s=measurements.mean("DDA"),
                speedup=measurements.speedup("DDD", "DDA"),
                gap_s=measurements.mean("DDD") - measurements.mean("DDA"),
                measurements=measurements,
                analysis=analysis,
                profiles=profiles,
            )
        )
        for weight in cfg.cost_weights:
            model = DecisionModel(cost_weight=weight)
            # Decide straight from the batch columns (the streaming-search
            # selection path); identical to model.decide(analysis.final,
            # profiles) since the columns match the profile fields bitwise.
            decision = model.decide_from_batch(analysis.final, spaces_by_n[loop_size])
            decisions[(loop_size, float(weight))] = str(decision.label)

    return DecisionModelResult(config=cfg, sweep=tuple(sweep), decisions=decisions)
