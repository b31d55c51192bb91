"""A committed bitwise digest of the execution and planning entry points' outputs.

One SHA-256 per section, so a mismatch names the entry point that drifted:

* ``execute`` -- ``execute_placements_grid`` and ``execute_placements``:
  every result field (time, per-device busy seconds, FLOPs, bytes, transfer
  energy, energy, cost and the active/idle breakdowns), the ``batch(i)``
  views and ``record(i)``; plain and scenario-grid tables, full spaces and
  small batches, chains, random DAGs and fork-join graphs, and platforms
  with a missing link;
* ``oracles`` -- the scalar references: every field and per-task record of
  uncached ``SimulatedExecutor.execute``/``execute_graph`` and of
  ``BatchExecutionResult.record`` on every placement (missing links raise),
  and ``execute_with_faults``, ``FaultBatchExecutionResult.record`` and
  ``expected_record`` under retries only, a finite timeout with stragglers,
  and one attempt with placements that cannot succeed; plus the bad
  placement entries each rejects;
* ``search_space`` -- ``method=`` auto/planner/stream, constraints, the
  frontier, ``top_k > 1``, index slices and ``retry=``;
* ``search_grid`` -- the robust objectives, streamed and planned regret
  baselines (``baseline_method``), constraints, slices and ``retry=``;
* ``plan_workload`` / ``plan_grid`` -- every method, non-plannable objectives
  and workloads, ``fallback_limit``;
* ``plan_with_fallback`` -- fault-free and fault-aware plans, ``min_success``;
* ``service`` -- :class:`~repro.service.PlacementService` responses: plan,
  placement, value, engine and dispatch reason;
* ``fleet`` -- sampled fleets (names, weights, settings, the grid
  fingerprint and every row's digest), their ``build_tables`` arrays,
  ``slice_stats`` and ``table(i)``/``batch(i)`` views, drifted fleets
  through ``resample_users`` and ``update_grid_tables``, and ``search_grid``
  over p95, SLO and expected value; the specs mix vectorized axes, fault-rate
  axes, a custom axis without the vectorized hook and users without axes;
* ``analyze`` -- the bootstrap comparator: ``win_fraction_matrix`` and
  ``outcome_matrix``, per-pair ``win_fraction`` and a seeded
  ``stochastic=True`` call sequence, on tables of p = 1..30 algorithms at
  N = 1, 2, 7 and 30 and on mixed widths, identical arrays, ties, signed
  zeros, subnormals and pairs at the ``min_relative_difference`` band,
  under five comparator settings; ``analyze_many`` score tables, final
  clusterings and canonical sorts; and the inputs and settings it rejects.

The inputs are fixed-seed random chains and graphs on 2-4 device platforms.
A raised error enters its section by type and message, and so does a
``RuntimeWarning`` (raised as an error, as the test suite does).  Floats are
hashed by their exact bits.  Some values pass through BLAS (the weighted
expectation rounds by chunk width), so a digest is only comparable within one
numpy/BLAS/CPU environment; ``DIGEST.json`` records that environment.

Usage, from the repository root::

    python benchmarks/digest.py              # print the section digests
    python benchmarks/digest.py --write      # rewrite benchmarks/DIGEST.json
    python benchmarks/digest.py --check      # compare with DIGEST.json
    python benchmarks/digest.py --base REV   # compare this tree's src/ with REV's

``--check`` exits 1 on a mismatch when the recorded environment matches this
one, and only warns when it does not.  ``--base`` extracts ``src/`` of the
revision with ``git archive`` into a temporary directory (no worktree is
registered, so an interrupted run leaves nothing behind), digests it in a
subprocess with the same inputs, and compares section by section, also with
error messages and dispatch reasons left out; it lists every reworded one.
It exits 0 when every section matches, 2 when only wording differs, and 1
when any value differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform as platform_module
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST_FILE = Path(__file__).resolve().parent / "DIGEST.json"
SECTIONS = (
    "execute",
    "oracles",
    "search_space",
    "search_grid",
    "plan_workload",
    "plan_grid",
    "plan_with_fallback",
    "service",
    "fleet",
    "analyze",
)


# ----------------------------------------------------------------------------
# Canonical records
# ----------------------------------------------------------------------------

def _canon(value):
    """A JSON-stable form of a result field: floats by their exact bits."""
    import numpy as np

    if isinstance(value, np.ndarray):
        return [_canon(v) for v in value.tolist()]
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"cannot canonicalize {value!r}")


#: Record fields holding prose -- error messages and dispatch reasons.
TEXT_KEYS = ("message", "reason")


class Section:
    """One section's hashes, fed one record per case.

    ``hexdigest`` covers every field; ``values_digest`` leaves out the
    :data:`TEXT_KEYS` fields, so a change that only rewords messages keeps
    it, and ``texts`` keeps those fields per case to name what changed.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self._values = hashlib.sha256()
        self.texts: dict[str, list] = {}
        self.cases = 0

    def case(self, label: str, call) -> None:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                record = call()
        except Exception as exc:  # noqa: BLE001 - errors are part of the output
            record = {"error": type(exc).__name__, "message": str(exc)}
        record = _canon(record)
        values = {k: v for k, v in record.items() if k not in TEXT_KEYS}
        self._hash.update(json.dumps([label, record], sort_keys=True).encode() + b"\n")
        self._values.update(json.dumps([label, values], sort_keys=True).encode() + b"\n")
        self.texts[label] = [record.get(key) for key in TEXT_KEYS]
        self.cases += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()

    def values_digest(self) -> str:
        return self._values.hexdigest()


# ----------------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------------

def _inputs(seed: int, n_devices: int, n_tasks: int, graph: bool):
    import numpy as np
    from factories import random_chain, random_graph, random_platform

    from repro.devices import SimulatedExecutor

    rng = np.random.default_rng([seed, n_devices, n_tasks, int(graph)])
    platform = random_platform(rng, n_devices)
    workload = random_graph(rng, n_tasks) if graph else random_chain(rng, n_tasks)
    return rng, SimulatedExecutor(platform), workload


def _scenarios(rng, n: int):
    from repro.scenarios import DvfsFrequencyScale, LinkBandwidthScale, Scenario

    out = []
    for i in range(n):
        settings = [(LinkBandwidthScale(), float(rng.uniform(0.3, 1.5)))]
        if rng.random() < 0.5:
            settings.append((DvfsFrequencyScale(), float(rng.uniform(0.5, 1.0))))
        out.append(Scenario(name=f"s{i}", settings=tuple(settings), weight=float(rng.uniform(0.5, 2.0))))
    return out


def _faults():
    from repro.faults import DeviceFailure, FaultProfile, LinkDropout, RetryPolicy

    profile = FaultProfile(
        device_failure=DeviceFailure(rate=0.05, rates={"A": 0.2}),
        link_dropout=LinkDropout(rate=0.02),
    )
    return profile, RetryPolicy(max_attempts=2, backoff_base_s=0.001)


#: (seed, n_devices, n_tasks, graph) of every input workload.
CASES = tuple(
    (seed, 2 + seed % 3, 2 + (seed * 5) % 4, seed % 4 == 3) for seed in range(12)
)


def _selection(top):
    return {
        name: {"indices": sel.indices, "values": sel.values, "labels": list(sel.labels)}
        for name, sel in top.items()
    }


# ----------------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------------

#: Every array field of an execution result, read in this order.
RESULT_FIELDS = (
    "total_time_s",
    "busy_by_device",
    "flops_by_device",
    "transferred_bytes",
    "transfer_energy_j",
    "energy_total_j",
    "operating_cost",
    "active_j",
    "idle_j",
)


def _result(result) -> dict:
    return {name: getattr(result, name) for name in RESULT_FIELDS}


def _record(record) -> dict:
    """Every field of a scalar :class:`~repro.devices.simulator.ExecutionRecord`."""
    return {
        "placement": list(record.placement),
        "tasks": [
            [t.task_name, t.device, t.busy_time_s, t.transfer_time_s, t.transferred_bytes, t.flops]
            for t in record.tasks
        ],
        "time": record.total_time_s,
        "busy": dict(record.busy_time_by_device),
        "flops": dict(record.flops_by_device),
        "bytes": record.transferred_bytes,
        "active": dict(record.energy.active_j),
        "idle": dict(record.energy.idle_j),
        "transfer": record.energy.transfer_j,
        "energy": record.energy.total_j,
        "cost": record.operating_cost,
    }


def _batch(batch) -> dict:
    """A batch's fields plus the records of its first, middle and last rows."""
    n = len(batch)
    return {**_result(batch), "records": [_record(batch.record(i)) for i in sorted({0, n // 2, n - 1})]}


def _without_link(platform):
    """The platform minus its link between the second and third device."""
    from repro.devices import Platform

    a, b = platform.aliases[1], platform.aliases[2]
    links = {pair: link for pair, link in platform.links.items() if set(pair) != {a, b}}
    return Platform(devices=platform.devices, links=links, host=platform.host, name="partial")


def _linked_rows(matrix, preds, pair):
    """Rows of a placement matrix whose hops never join the two devices of ``pair``."""
    import numpy as np

    a, b = pair
    safe = np.ones(matrix.shape[0], dtype=bool)
    for t, sources in enumerate(preds):
        for p in sources:
            src, dst = matrix[:, p], matrix[:, t]
            safe &= ~(((src == a) & (dst == b)) | ((src == b) & (dst == a)))
    return matrix[safe]


def digest_execute(section: Section) -> None:
    import numpy as np

    from repro.devices import SimulatedExecutor, execute_placements, execute_placements_grid
    from repro.offload import placement_matrix
    from repro.scenarios import ScenarioGrid
    from repro.tasks.workloads import fork_join_graph
    from factories import random_platform

    def grid_record(result):
        return {
            **_result(result),
            "batches": [_batch(result.batch(i)) for i in range(result.n_scenarios)],
        }

    def run(label, executor, workload, scenarios, rng, linked=None):
        plain = executor.cost_tables(workload)
        grid = executor.grid_cost_tables(workload, ScenarioGrid(scenarios))
        full = placement_matrix(plain.n_tasks, plain.n_devices)
        if linked is not None:
            full = _linked_rows(full, plain.pred_positions, linked)
        # Single rows and a three-row sample run the kernels' small-batch
        # branches; the full space runs their subset folds.
        batches = {
            "full": full,
            "last": full[-1:],
            "sample": full[np.sort(rng.choice(full.shape[0], min(3, full.shape[0]), replace=False))],
        }
        for name, matrix in batches.items():
            section.case(f"{label}/plain/{name}", lambda: _batch(execute_placements(plain, matrix)))
            section.case(f"{label}/grid/{name}", lambda: grid_record(execute_placements_grid(grid, matrix)))
        if linked is not None:
            every = placement_matrix(plain.n_tasks, plain.n_devices)
            section.case(f"{label}/plain/unlinked", lambda: _batch(execute_placements(plain, every)))
            section.case(f"{label}/grid/unlinked", lambda: _result(execute_placements_grid(grid, every)))

    for seed, n_devices, n_tasks, graph in CASES:
        rng, executor, workload = _inputs(seed, n_devices, n_tasks, graph)
        scenarios = _scenarios(rng, 1 + seed % 3)
        run(f"{seed}", executor, workload, scenarios, rng)
        if n_devices >= 3:
            partial = SimulatedExecutor(_without_link(executor.platform))
            run(f"{seed}/partial", partial, workload, scenarios, rng, linked=(1, 2))
    for n_devices in (3, 4):
        rng = np.random.default_rng([99, n_devices])
        executor = SimulatedExecutor(random_platform(rng, n_devices))
        run(f"fork-join/{n_devices}", executor, fork_join_graph(), _scenarios(rng, 2), rng)


def _fault_record(record) -> dict:
    """Every field of an :class:`~repro.faults.engine.ExpectedFaultRecord`."""
    return {
        "placement": list(record.placement),
        "tasks": [
            [t.task_name, t.device, t.success_probability, t.expected_attempts, t.expected_time_s]
            for t in record.tasks
        ],
        "success": record.success_probability,
        "attempts": record.expected_attempts,
        "time": record.total_time_s,
        "busy": dict(record.busy_time_by_device),
        "flops": dict(record.flops_by_device),
        "bytes": record.transferred_bytes,
        "active": dict(record.energy.active_j),
        "idle": dict(record.energy.idle_j),
        "transfer": record.energy.transfer_j,
        "energy": record.energy_total_j,
        "cost": record.operating_cost,
    }


def _fault_regimes(tables) -> dict:
    """``name -> (faults, retry, timeout)`` of the three fault regimes.

    The timeout is the 90th percentile of the plain tables' nominal task
    durations (host I/O included, hops left out), so some tasks overrun it:
    with stragglers some are killed only when they straggle, and with one
    attempt some placements cannot succeed at all.
    """
    import numpy as np

    from repro.faults import FaultProfile, RetryPolicy, StragglerModel, TimeoutPolicy

    profile, retry = _faults()
    durations = tables.busy[0] + tables.hostio_time[0]
    timeout = TimeoutPolicy(float(np.nanquantile(durations, 0.9)))
    stragglers = FaultProfile(
        device_failure=profile.device_failure,
        link_dropout=profile.link_dropout,
        straggler=StragglerModel(probability=0.2, slowdown=4.0),
    )
    return {
        "retry": (profile, retry, None),
        "timeout-stragglers": (stragglers, retry, timeout),
        "one-attempt": (profile, RetryPolicy(max_attempts=1), timeout),
    }


def digest_oracles(section: Section) -> None:
    import numpy as np

    from repro.devices import SimulatedExecutor
    from repro.faults import expected_record
    from repro.offload import placement_matrix
    from repro.tasks import TaskGraph
    from repro.tasks.workloads import fork_join_graph
    from factories import random_platform

    def run(label, platform, workload, linked=None):
        executor = SimulatedExecutor(platform, cache_executions=False)
        plain = executor.cost_tables(workload)
        aliases = plain.aliases
        full = placement_matrix(plain.n_tasks, plain.n_devices)
        graph = isinstance(workload, TaskGraph)
        execute = executor.execute_graph if graph else executor.execute
        linked_rows = full if linked is None else _linked_rows(full, plain.pred_positions, linked)
        batch = executor.execute_batch(workload, linked_rows)
        for row in full.tolist():
            placement = tuple(aliases[d] for d in row)
            section.case(f"{label}/execute/{''.join(placement)}", lambda: _record(execute(workload, placement)))
        for i in range(len(batch)):
            section.case(f"{label}/record/{batch.label(i)}", lambda: _record(batch.record(i)))
        if graph:
            names = workload.task_names
            section.case(
                f"{label}/mapping",
                lambda: _record(executor.execute_graph(workload, dict(zip(names, reversed(batch.placement(0)))))),
            )
            section.case(f"{label}/routed", lambda: _record(executor.execute(workload, batch.placement(0))))
        section.case(f"{label}/execute/short", lambda: _record(execute(workload, batch.placement(0)[1:])))
        section.case(f"{label}/execute/unknown", lambda: _record(execute(workload, ("Z",) * plain.n_tasks)))
        for name, (faults, retry, timeout) in _fault_regimes(plain).items():
            kwargs = dict(faults=faults, retry=retry, timeout=timeout)
            tables = executor.cost_tables(workload, **kwargs)
            for row in full.tolist():
                placement = tuple(aliases[d] for d in row)
                section.case(
                    f"{label}/{name}/{''.join(placement)}",
                    lambda: _fault_record(executor.execute_with_faults(workload, placement, **kwargs)),
                )
            fault_batch = executor.execute_batch(workload, batch.placements, **kwargs)
            section.case(
                f"{label}/{name}/batch",
                lambda: {
                    **_result(fault_batch),
                    "success": fault_batch.success_probability,
                    "attempts": fault_batch.expected_attempts,
                    "records": [
                        _fault_record(fault_batch.record(i))
                        for i in sorted({0, len(fault_batch) // 2, len(fault_batch) - 1})
                    ],
                },
            )
            first = batch.placements[0]
            bad = {
                "unknown": ("Z",) * plain.n_tasks,
                "float": [float(first[0]), *first[1:]],
                "bool": [True, *first[1:]],
                "short": first[1:],
                "long": [*first, 0],
                "range": [plain.n_devices, *first[1:]],
                "negative": [-1, *first[1:]],
                "numpy": [np.int64(first[0]), *first[1:]],
            }
            for kind, entries in bad.items():
                section.case(f"{label}/{name}/bad/{kind}", lambda: _fault_record(expected_record(tables, entries)))

    for seed, n_devices, n_tasks, graph in CASES:
        _, executor, workload = _inputs(seed, n_devices, n_tasks, graph)
        run(f"{seed}", executor.platform, workload)
        if n_devices >= 3:
            run(f"{seed}/partial", _without_link(executor.platform), workload, linked=(1, 2))
    for n_devices in (3, 4):
        platform = random_platform(np.random.default_rng([99, n_devices]), n_devices)
        run(f"fork-join/{n_devices}", platform, fork_join_graph())
        run(f"fork-join/{n_devices}/partial", _without_link(platform), fork_join_graph(), linked=(1, 2))


def digest_search_space(section: Section) -> None:
    from repro.search import (
        DeadlineConstraint,
        DecisionObjective,
        SuccessProbabilityConstraint,
        WeightedSumObjective,
        search_space,
    )
    from repro.selection import DecisionModel

    def record(result):
        frontier = result.frontier
        return {
            "n": [result.n_evaluated, result.n_feasible],
            "top": _selection(result.top),
            "frontier": None
            if frontier is None
            else {"indices": frontier.indices, "values": frontier.values, "labels": list(frontier.labels)},
        }

    profile, retry = _faults()
    for seed, n_devices, n_tasks, graph in CASES:
        rng, executor, workload = _inputs(seed, n_devices, n_tasks, graph)
        total = n_devices**n_tasks
        deadline = DeadlineConstraint(float(executor.execute_batch(workload).total_time_s.min()) * 1.5)
        variants = {
            "top1": dict(objectives=("time", "energy", "cost"), top_k=1, frontier=None),
            "weighted": dict(objectives=(WeightedSumObjective(1.0, 0.5, 2.0),), top_k=1, frontier=None),
            "decision": dict(
                objectives=(DecisionObjective(DecisionModel(cost_weight=0.5)),), top_k=1, frontier=None
            ),
            "topk": dict(objectives=("time", "energy"), top_k=3, frontier=None),
            "frontier": dict(objectives=("time",), top_k=1),
            "constrained": dict(objectives=("time",), top_k=2, frontier=None, constraints=(deadline,)),
            "slice": dict(objectives=("time",), top_k=1, frontier=None, start=1, stop=max(2, total // 2)),
            "retry": dict(
                objectives=("time", "energy"), top_k=2, frontier=None, faults=profile, retry=retry
            ),
            "retry-success": dict(
                objectives=("time",), top_k=1, frontier=None, faults=profile, retry=retry,
                constraints=(SuccessProbabilityConstraint(0.9),),
            ),
        }
        for name, kwargs in variants.items():
            for method in ("auto", "planner", "stream"):
                section.case(
                    f"{seed}/{name}/{method}",
                    lambda: record(search_space(executor, workload, method=method, batch_size=7, **kwargs)),
                )


def digest_search_grid(section: Section) -> None:
    from repro.search import (
        DeadlineConstraint,
        ExpectedValueObjective,
        QuantileObjective,
        RegretObjective,
        SLOObjective,
        WorstCaseObjective,
        search_grid,
    )

    def record(result):
        return {
            "n": [result.n_evaluated, result.n_feasible],
            "top": _selection(result.top),
            "best": {
                name: {"indices": best.indices, "values": best.values, "labels": list(best.labels)}
                for name, best in result.scenario_best.items()
            },
            "baselines": dict(result.baselines),
        }

    profile, retry = _faults()
    for seed, n_devices, n_tasks, graph in CASES[:8]:
        rng, executor, workload = _inputs(seed, n_devices, n_tasks, graph)
        scenarios = _scenarios(rng, 1 + seed % 3)
        total = n_devices**n_tasks
        robust = (
            WorstCaseObjective(),
            ExpectedValueObjective(base="energy"),
            QuantileObjective(q=0.5),
            SLOObjective(budget=0.01),
        )
        regret = (RegretObjective(), RegretObjective(base="cost"))
        deadline = DeadlineConstraint(1e3)
        variants = {
            "robust": dict(objectives=robust, top_k=2),
            "regret": dict(objectives=regret, top_k=1),
            "regret-topk": dict(objectives=regret, top_k=3),
            "regret-constrained": dict(objectives=regret, top_k=1, constraints=(deadline,)),
            "regret-slice": dict(objectives=regret, top_k=1, start=0, stop=max(1, total - 1)),
            "regret-retry": dict(objectives=regret, top_k=1, faults=profile, retry=retry),
            "robust-retry": dict(objectives=robust[:2], top_k=1, faults=profile, retry=retry),
        }
        for name, kwargs in variants.items():
            for baseline_method in ("auto", "planner", "stream"):
                section.case(
                    f"{seed}/{name}/{baseline_method}",
                    lambda: record(
                        search_grid(
                            executor, workload, scenarios, baseline_method=baseline_method,
                            batch_size=5, **kwargs,
                        )
                    ),
                )


def digest_plan_workload(section: Section) -> None:
    from repro.search import DecisionObjective, WeightedSumObjective, plan_workload
    from repro.selection import DecisionModel
    from repro.tasks.workloads import fork_join_graph

    def record(plan):
        return {
            "plan": [plan.objective, list(plan.placement), plan.label, plan.method, plan.exact],
            "values": [plan.value, plan.dp_value],
            "reason": plan.fallback_reason,
            "n_states": plan.n_states,
        }

    objectives = (
        "time", "energy", "cost", WeightedSumObjective(1.0, 0.25, 3.0),
        DecisionObjective(DecisionModel(cost_weight=0.5)),
    )
    for seed, n_devices, n_tasks, graph in CASES:
        _, executor, workload = _inputs(seed, n_devices, n_tasks, graph)
        for index, objective in enumerate(objectives):
            for method in ("auto", "dp", "enumerate"):
                section.case(
                    f"{seed}/{index}/{method}",
                    lambda: record(plan_workload(executor, workload, objective, method=method)),
                )
        section.case(
            f"{seed}/limit",
            lambda: record(
                plan_workload(executor, workload, objectives[4], fallback_limit=n_devices)
            ),
        )
    _, executor, _ = _inputs(0, 3, 2, False)
    for states in (2, 1024):
        section.case(
            f"fork-join/{states}",
            lambda: record(plan_workload(executor, fork_join_graph(), "time", max_level_states=states)),
        )


def digest_plan_grid(section: Section) -> None:
    from repro.search import (
        DecisionObjective,
        ExpectedValueObjective,
        QuantileObjective,
        RegretObjective,
        WorstCaseObjective,
        plan_grid,
    )
    from repro.selection import DecisionModel

    def record(plan):
        return {
            "plan": [plan.objective, plan.base, list(plan.placement), plan.label, plan.method],
            "values": [plan.value, plan.dp_value],
            "scenario_values": plan.scenario_values,
            "baselines": plan.baselines,
            "n_labels": plan.n_labels,
        }

    objectives = (
        "time",
        WorstCaseObjective(base="energy"),
        ExpectedValueObjective(),
        RegretObjective(),
        RegretObjective(base="cost"),
        QuantileObjective(q=0.5),
        WorstCaseObjective(base=DecisionObjective(DecisionModel(cost_weight=0.5))),
    )
    for seed, n_devices, n_tasks, graph in CASES:
        rng, executor, workload = _inputs(seed, n_devices, n_tasks, graph)
        scenarios = _scenarios(rng, 1 + seed % 3)
        for index, objective in enumerate(objectives):
            section.case(
                f"{seed}/{index}",
                lambda: record(plan_grid(executor, workload, scenarios, objective)),
            )
        section.case(
            f"{seed}/labels",
            lambda: record(plan_grid(executor, workload, scenarios, RegretObjective(), max_labels=1)),
        )


def digest_plan_with_fallback(section: Section) -> None:
    from repro.faults import plan_with_fallback

    def record(plan):
        def component(p):
            return [list(p.placement), p.label, p.value, list(p.aliases), p.method, p.success_probability]

        return {
            "primary": component(plan.primary),
            "backups": {alias: component(p) for alias, p in plan.backups.items()},
            "reason": plan.dispatch_reason,
        }

    profile, retry = _faults()
    for seed, n_devices, n_tasks, graph in CASES:
        if n_devices < 3:
            continue
        _, executor, workload = _inputs(seed, n_devices, n_tasks, graph)
        variants = {
            "plain": dict(),
            "energy": dict(objective="energy"),
            "enumerate": dict(method="enumerate"),
            "retry": dict(retry=retry, faults=profile),
            "retry-cost": dict(objective="cost", retry=retry, faults=profile),
            "retry-success": dict(retry=retry, faults=profile, min_success=0.9),
            "retry-unreachable": dict(retry=retry, faults=profile, min_success=1.0),
            "retry-dp": dict(retry=retry, method="dp"),
            "retry-limit": dict(retry=retry, fallback_limit=2),
        }
        for name, kwargs in variants.items():
            section.case(
                f"{seed}/{name}", lambda: record(plan_with_fallback(executor, workload, **kwargs))
            )


def digest_service(section: Section) -> None:
    from repro.search import (
        DeadlineConstraint,
        DecisionObjective,
        ExpectedValueObjective,
        MaxOffloadedConstraint,
        QuantileObjective,
        RegretObjective,
        WeightedSumObjective,
    )
    from repro.scenarios import ScenarioGrid
    from repro.selection import DecisionModel
    from repro.service import PlacementRequest, PlacementService

    service = PlacementService()
    profile, retry = _faults()

    def record(response):
        return {
            "plan": [response.plan, list(response.placement), response.objective],
            "value": response.value,
            "engine": response.engine,
            "reason": response.dispatch_reason,
        }

    for seed, n_devices, n_tasks, graph in CASES:
        rng, executor, workload = _inputs(seed, n_devices, n_tasks, graph)
        platform = executor.platform
        grid = ScenarioGrid(_scenarios(rng, 1 + seed % 3))
        plain = {
            "time": dict(),
            "energy": dict(objective="energy"),
            "weighted": dict(objective=WeightedSumObjective(1.0, 0.5, 2.0)),
            "decision": dict(objective=DecisionObjective(DecisionModel(cost_weight=0.5))),
            "constrained": dict(constraints=(MaxOffloadedConstraint(max_offloaded=1),)),
            "retry": dict(retry=retry, faults=profile),
        }
        gridded = {
            "worst": dict(),
            "expected": dict(objective=ExpectedValueObjective()),
            "regret": dict(objective=RegretObjective(base="energy")),
            "quantile": dict(objective=QuantileObjective(q=0.5)),
            "constrained": dict(objective=ExpectedValueObjective(), constraints=(DeadlineConstraint(1e3),)),
            "retry": dict(retry=retry, faults=profile),
        }
        for kind, variants in (("plain", plain), ("grid", gridded)):
            extra = dict(scenario_grid=grid) if kind == "grid" else {}
            for name, kwargs in variants.items():
                for method in ("auto", "planner", "stream"):
                    section.case(
                        f"{seed}/{kind}/{name}/{method}",
                        lambda: record(
                            service.submit(
                                PlacementRequest(
                                    workload=workload, platform=platform, method=method,
                                    **extra, **kwargs,
                                )
                            )
                        ),
                    )


#: Every array of a grid cost table, read in this order.
TABLE_FIELDS = (
    "busy",
    "hostio_time",
    "energy_in",
    "energy_out",
    "penalty_time",
    "penalty_energy",
    "first_penalty_time",
    "first_penalty_energy",
    "power_active",
    "power_idle",
    "cost_per_hour",
    "extra_idle_power",
    "hostio_bytes",
    "task_flops",
    "penalty_bytes",
    "first_penalty_bytes",
)


def _host_slowdown_axis():
    """A custom condition axis with ``apply`` only: grids pinning it build
    through the materializing path."""
    from dataclasses import dataclass, replace

    from repro.scenarios import ConditionAxis

    @dataclass(frozen=True)
    class HostSlowdown(ConditionAxis):
        name: str = "host-slowdown"

        def apply(self, platform, value):
            if not value >= 1:
                raise ValueError(f"{self.name} must be >= 1, got {value!r}")
            spec = platform.device(platform.host)
            return platform.with_devices({platform.host: replace(spec, peak_gflops=spec.peak_gflops / value)})

    return HostSlowdown()


def _fleet_specs() -> dict:
    from repro.fleet import ChoiceAxis, FleetSpec, NormalAxis, UniformAxis, UserSegment
    from repro.scenarios import (
        DeviceFailureRate,
        DeviceLoadFactor,
        DvfsFrequencyScale,
        EnergyPriceScale,
        LinkBandwidthScale,
        LinkDropoutRate,
        LinkLatencyScale,
    )

    wifi = UserSegment(
        "wifi",
        weight=5.0,
        axes=(UniformAxis(LinkBandwidthScale(), 0.6, 1.4), UniformAxis(LinkLatencyScale(), 0.8, 2.0)),
    )
    cell = UserSegment(
        "cell",
        weight=3.0,
        axes=(
            NormalAxis(DvfsFrequencyScale(devices=("A",)), mean=0.8, std=0.15, low=0.3, high=1.0),
            ChoiceAxis(EnergyPriceScale(), values=(0.5, 1.0, 2.0), probs=(1, 2, 1)),
            UniformAxis(LinkBandwidthScale(), 0.1, 0.5),
        ),
    )
    loaded = UserSegment(
        "loaded",
        weight=1.0,
        axes=(NormalAxis(DeviceLoadFactor(devices=("D",)), mean=1.5, std=0.4, low=1.0),),
    )
    idle = UserSegment("idle", weight=0.5)
    faulty = UserSegment(
        "faulty",
        weight=2.0,
        axes=(
            UniformAxis(LinkBandwidthScale(), 0.5, 1.0),
            UniformAxis(DeviceFailureRate(devices=("A",)), 0.0, 0.2),
            ChoiceAxis(LinkDropoutRate(), values=(0.0, 0.05)),
        ),
    )
    custom = UserSegment(
        "custom", weight=1.0, axes=(UniformAxis(_host_slowdown_axis(), 1.0, 3.0),)
    )
    # Out-of-domain draws: the first bad value a build names depends on the
    # order in which it applies the (settings position, axis) groups.
    bad = (
        UserSegment(
            "bad-late",
            axes=(UniformAxis(LinkLatencyScale(), 0.5, 1.5), UniformAxis(DeviceLoadFactor(), 0.5, 2.0)),
        ),
        UserSegment("bad-early", axes=(UniformAxis(DeviceLoadFactor(), 0.2, 1.5),)),
        UserSegment("bad-dvfs", axes=(UniformAxis(DvfsFrequencyScale(), 0.8, 1.2),)),
    )
    return {
        "vectorized": FleetSpec((wifi, cell, loaded, idle)),
        "faults": FleetSpec((wifi, faulty)),
        "custom": FleetSpec((wifi, custom, idle)),
        "bad": FleetSpec(bad),
    }


def digest_fleet(section: Section) -> None:
    import numpy as np

    from repro.cache import fingerprint
    from repro.devices import SimulatedExecutor, execute_placements_grid
    from repro.devices.tables import build_tables
    from repro.fleet import sample_fleet
    from repro.offload import placement_matrix
    from repro.search import ExpectedValueObjective, QuantileObjective, SLOObjective, search_grid
    from factories import random_chain, random_platform

    def grid_record(grid):
        return {
            "names": list(grid.names),
            "weights": grid.weights,
            "settings": [
                [[type(axis).__name__, axis.name, value] for axis, value in scenario.settings]
                for scenario in grid
            ],
            "lookup": [
                [value for _, value in grid.scenario(name).settings]
                for name in grid.names[:: max(1, len(grid) // 4)]
            ],
            "fingerprint": fingerprint(grid),
            "parts": [fingerprint(scenario) for scenario in grid],
        }

    def tables_record(tables):
        return {
            "arrays": {name: getattr(tables, name) for name in TABLE_FIELDS},
            "stats": [tables.slice_stats.served, tables.slice_stats.built],
            "fingerprint": tables.fingerprint,
            "rows": [
                {name: getattr(tables.table(i), name) for name in TABLE_FIELDS[:4]}
                for i in sorted({0, tables.n_scenarios - 1})
            ],
        }

    def views_record(tables):
        result = execute_placements_grid(tables, placement_matrix(tables.n_tasks, tables.n_devices))
        return {
            "time": result.total_time_s,
            "batches": [_result(result.batch(i)) for i in sorted({0, result.n_scenarios // 2, -1})],
        }

    def search_record(executor, workload, grid, **kwargs):
        tables = build_tables(workload, executor.platform, scenarios=grid)
        times = execute_placements_grid(tables, placement_matrix(tables.n_tasks, tables.n_devices))
        budget = float(np.median(times.total_time_s))
        objectives = (QuantileObjective(q=0.95), SLOObjective(budget=budget), ExpectedValueObjective())
        result = search_grid(executor, workload, grid, objectives=objectives, top_k=2, **kwargs)
        return {
            "n": [result.n_evaluated, result.n_feasible],
            "names": list(result.scenario_names),
            "top": _selection(result.top),
        }

    _, retry = _faults()
    specs = _fleet_specs()
    for seed in range(4):
        rng = np.random.default_rng([seed, 28])
        platform = random_platform(rng, 3 + seed % 2)
        workload = random_chain(rng, 2 + seed % 2)
        for name, spec in specs.items():
            for n_users in (1, 9, 40, 160):
                label = f"{seed}/{name}/{n_users}"
                executor = SimulatedExecutor(platform)
                fleet = sample_fleet(spec, n_users, seed=seed)
                section.case(f"{label}/grid", lambda: {**grid_record(fleet.grid), "segments": list(fleet.segment_of_user)})
                section.case(f"{label}/tables", lambda: tables_record(build_tables(workload, platform, scenarios=fleet.grid)))
                section.case(f"{label}/views", lambda: views_record(build_tables(workload, platform, scenarios=fleet.grid)))
                section.case(f"{label}/search", lambda: search_record(executor, workload, fleet.grid))
                if name == "faults":
                    section.case(f"{label}/retry", lambda: search_record(executor, workload, fleet.grid, retry=retry))
                users = sorted({0, n_users // 3, n_users - 1})
                drifted, replacements = fleet.resample_users(users, seed=seed + 100)
                section.case(
                    f"{label}/drift",
                    lambda: {
                        **grid_record(drifted.grid),
                        "replaced": {i: [s.name, s.weight, [v for _, v in s.settings]] for i, s in replacements.items()},
                    },
                )
                section.case(
                    f"{label}/drift-tables",
                    lambda: tables_record(build_tables(workload, platform, scenarios=drifted.grid)),
                )
                section.case(
                    f"{label}/update",
                    lambda: tables_record(
                        executor.update_grid_tables(executor.grid_cost_tables(workload, fleet.grid), replacements)
                    ),
                )
                section.case(
                    f"{label}/drift-cached",
                    lambda: tables_record(executor.grid_cost_tables(workload, drifted.grid)),
                )
                section.case(f"{label}/drift-search", lambda: search_record(executor, workload, drifted.grid))
                section.case(f"{label}/out-of-range", lambda: fleet.resample_users([n_users], seed=1))


def _analyze_tables(rng) -> dict:
    """Measurement tables of the comparator cases: p = 1..30 at N = 1, 2, 7
    and 30, mixed widths, identical
    arrays, ties, signed zeros, subnormals and constant pairs whose median
    difference sits exactly at the ``min_relative_difference`` band."""
    import numpy as np

    tables = {}
    for p in range(1, 31):
        n = (1, 2, 7, 30)[p % 4]
        tables[f"p{p}/n{n}"] = [np.round(np.abs(rng.normal(2.0 + 0.03 * i, 0.3, size=n)), 2) for i in range(p)]
    tables["mixed"] = [
        np.round(np.abs(rng.normal(2.0 + 0.05 * i, 0.3, size=n)), 1) for i, n in enumerate((1, 2, 7, 30, 5, 30, 2, 12))
    ]
    base = np.round(rng.uniform(1.0, 2.0, size=9), 2)
    tables["identical"] = [base, base.copy(), base + 0.5, base.copy(), base[::-1].copy()]
    tables["ties"] = [rng.choice([1.0, 1.5, 2.0, 2.5], size=9) for _ in range(6)]
    tables["signed-zeros"] = [rng.choice([0.0, -0.0, 0.1, -0.1, 0.2], size=8) for _ in range(6)]
    tables["subnormals"] = [5e-324 * rng.integers(-3, 4, size=10).astype(float) for _ in range(5)]
    # c and 3c: with min_relative_difference=1 the median gap equals the band
    # up to rounding; one ulp on both medians turns some ties into wins and
    # some wins into ties.
    tables["band"] = [np.full(3, c * k) for c in (1.5, 1.75, 0.375, 0.035, 0.055) for k in (1.0, 3.0)]
    return tables


#: Comparator settings of the ``analyze`` section (seeds included).
ANALYZE_CONFIGS = {
    "default": dict(seed=0),
    "ends": dict(quantiles=(0.0, 0.5, 1.0), n_resamples=150, min_relative_difference=0.01, seed=3),
    "narrow": dict(
        quantiles=(0.05, 0.3, 0.7, 0.95), confidence=0.8, n_resamples=37,
        equivalence_margin=0.05, min_relative_difference=0.05, seed=11,
    ),
    "one": dict(quantiles=(1.0,), n_resamples=1, confidence=0.5, equivalence_margin=0.0, seed=5),
    "band": dict(n_resamples=20, min_relative_difference=1.0, seed=7),
}


def digest_analyze(section: Section) -> None:
    import numpy as np

    from repro.core import BootstrapComparator, RelativePerformanceAnalyzer

    def matrix_record(comparator, arrays):
        return {
            "fractions": comparator.win_fraction_matrix(arrays),
            "outcomes": [[o.name for o in row] for row in comparator.outcome_matrix(arrays)],
        }

    def pairs_record(comparator, arrays, pairs):
        return {"fractions": [comparator.win_fraction(arrays[i], arrays[j]) for i, j in pairs]}

    def analysis_record(results):
        return {
            str(key): {
                "scores": [list(row) for row in result.score_table.to_rows()],
                "final": result.final.as_dict(),
                "canonical": [list(result.canonical_sort.sequence), list(result.canonical_sort.ranks)],
            }
            for key, result in results.items()
        }

    tables = _analyze_tables(np.random.default_rng(30))
    names = list(ANALYZE_CONFIGS)
    for k, (label, arrays) in enumerate(tables.items()):
        special = not label.startswith("p")
        for name in names if special else [names[k % 3]]:
            config = ANALYZE_CONFIGS[name]
            comparator = BootstrapComparator(**config)
            p = len(arrays)
            pairs = [(i, j) for i in range(p) for j in range(p)] if p <= 4 or special else [
                (0, p - 1), (p - 1, 0), (p // 2, 0), (1, 2)
            ]
            section.case(f"{label}/{name}/matrix", lambda: matrix_record(comparator, arrays))
            section.case(f"{label}/{name}/pairs", lambda: pairs_record(comparator, arrays, pairs))
            stochastic = BootstrapComparator(stochastic=True, **config)
            sequence = [(i % p, (i + 1) % p) for i in range(min(p, 6))] * 2
            section.case(f"{label}/{name}/stochastic", lambda: pairs_record(stochastic, arrays, sequence))
            section.case(f"{label}/{name}/stochastic-matrix", lambda: matrix_record(stochastic, arrays))

    campaigns = {
        label: {f"alg{i}": values for i, values in enumerate(tables[label])}
        for label in ("p6/n7", "p9/n2", "p15/n30", "mixed", "ties", "identical", "signed-zeros")
    }
    for name, config in ANALYZE_CONFIGS.items():
        for stochastic in (False, True):
            analyzer = RelativePerformanceAnalyzer(
                comparator=BootstrapComparator(stochastic=stochastic, **config),
                repetitions=4 if stochastic else 12,
                seed=config["seed"],
            )
            # Stochastic sorts bootstrap per comparison: they skip the p = 15 table.
            chosen = {key: table for key, table in campaigns.items() if not (stochastic and key == "p15/n30")}
            section.case(f"analyze_many/{name}/{stochastic}", lambda: analysis_record(analyzer.analyze_many(chosen)))

    bad_inputs = {
        "empty": [np.arange(3.0), np.array([])],
        "nan": [np.arange(3.0), np.array([1.0, np.nan])],
        "inf": [np.array([np.inf]), np.arange(3.0)],
    }
    for label, arrays in bad_inputs.items():
        comparator = BootstrapComparator()
        section.case(f"bad/{label}/matrix", lambda: matrix_record(comparator, arrays))
        section.case(f"bad/{label}/pair", lambda: pairs_record(comparator, arrays, [(0, 1)]))
    bad_configs = {
        "level": dict(quantiles=(0.5, 1.5)),
        "nan-level": dict(quantiles=(float("nan"),)),
        "no-levels": dict(quantiles=()),
        "resamples": dict(n_resamples=0),
        "confidence": dict(confidence=1.0),
        "margin": dict(equivalence_margin=0.5),
        "difference": dict(min_relative_difference=-0.1),
        "nan-difference": dict(min_relative_difference=float("nan")),
    }
    for label, config in bad_configs.items():
        section.case(f"bad-config/{label}", lambda: {"repr": repr(BootstrapComparator(**config))})
    section.case(
        "bad/analyze_many",
        lambda: analysis_record(RelativePerformanceAnalyzer(repetitions=2).analyze_many({})),
    )


DIGESTERS = {
    "execute": digest_execute,
    "oracles": digest_oracles,
    "search_space": digest_search_space,
    "search_grid": digest_search_grid,
    "plan_workload": digest_plan_workload,
    "plan_grid": digest_plan_grid,
    "plan_with_fallback": digest_plan_with_fallback,
    "service": digest_service,
    "fleet": digest_fleet,
    "analyze": digest_analyze,
}


# ----------------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------------

def environment() -> dict:
    """The numpy/BLAS/CPU environment a digest is comparable within."""
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    cpu = platform_module.processor() or platform_module.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu": cpu,
        "machine": platform_module.machine(),
        "simd": config.get("SIMD Extensions", {}).get("found", []),
    }


def compute(src: Path) -> dict:
    """Every section digest of the ``repro`` package under ``src``."""
    sys.path[:0] = [str(src), str(ROOT / "tests")]
    out = {"sections": {}, "values": {}, "cases": {}, "texts": {}}
    for name in SECTIONS:
        section = Section()
        DIGESTERS[name](section)
        out["sections"][name] = section.hexdigest()
        out["values"][name] = section.values_digest()
        out["cases"][name] = section.cases
        out["texts"][name] = section.texts
    return {**out, "env": environment()}


def _compare(expected: dict, actual: dict) -> list[str]:
    return [name for name in SECTIONS if expected.get(name) != actual.get(name)]


def _changed_texts(base: dict, current: dict) -> dict:
    """``(section, old text, new text) -> cases`` for every reworded field."""
    changed: dict = {}
    for name in SECTIONS:
        for label, texts in current["texts"][name].items():
            for old, new in zip(base["texts"][name].get(label, ()), texts):
                if old != new:
                    changed[(name, old, new)] = changed.get((name, old, new), 0) + 1
    return changed


def _run_base(rev: str) -> dict:
    with tempfile.TemporaryDirectory(prefix="digest-base-") as tmp:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
            check=True, capture_output=True,
        ).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--src", str(Path(tmp) / "src"), "--json"],
            check=True, capture_output=True, text=True,
        ).stdout
    return json.loads(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true", help="rewrite benchmarks/DIGEST.json")
    mode.add_argument("--check", action="store_true", help="compare with benchmarks/DIGEST.json")
    mode.add_argument("--base", metavar="REV", help="compare with the src/ of a git revision")
    mode.add_argument("--json", action="store_true", help="print the digests as JSON")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    current = compute(args.src)
    if args.json:
        print(json.dumps(current))
        return 0
    elapsed = time.perf_counter() - started
    for name in SECTIONS:
        print(f"{name:<20} {current['sections'][name]}  ({current['cases'][name]} cases)")
    print(f"computed in {elapsed:.1f} s")

    if args.write:
        DIGEST_FILE.write_text(
            json.dumps({key: current[key] for key in ("env", "sections", "values")}, indent=2)
            + "\n"
        )
        print(f"wrote {DIGEST_FILE.relative_to(ROOT)}")
        return 0
    if args.check:
        committed = json.loads(DIGEST_FILE.read_text())
        mismatched = _compare(committed["sections"], current["sections"])
        if not mismatched:
            print("digest check: every section matches")
            return 0
        same_env = committed["env"] == current["env"]
        drifted = _compare(committed["values"], current["values"])
        print(f"digest check: mismatched sections: {', '.join(mismatched)}")
        print(f"  of which values differ in: {', '.join(drifted) or 'none (wording only)'}")
        if not same_env:
            print(
                "warning: DIGEST.json was recorded in another environment "
                f"({committed['env']}); not failing"
            )
            return 0
        return 1
    if args.base:
        base = _run_base(args.base)
        mismatched = _compare(base["sections"], current["sections"])
        drifted = _compare(base["values"], current["values"])
        for name in SECTIONS:
            status = "matches"
            if name in drifted:
                status = "DIFFERS"
            elif name in mismatched:
                status = "values match; messages or reasons reworded"
            print(f"{name:<20} base {base['sections'][name][:16]}... {status}")
        for (name, old, new), count in _changed_texts(base, current).items():
            print(f"\n[{name}] {count} case(s):\n  - {old}\n  + {new}")
        return 1 if drifted else 2 if mismatched else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
