"""Planning entry points fetch their tables from the table cache once per plan.

``plan_workload``'s enumeration fallback and every fault-aware component of
``plan_with_fallback`` sweep the tables they fetched, rather than handing the
workload to ``search_space``, which would fetch them again and count a second
lookup (a hit that inflates the cache's hit ratio).
"""

from __future__ import annotations

import numpy as np

from repro.devices import SimulatedExecutor
from repro.faults import RetryPolicy, plan_with_fallback
from repro.search import DecisionObjective, plan_workload
from repro.selection import DecisionModel

from factories import random_chain, random_platform


def lookups(executor: SimulatedExecutor) -> int:
    stats = executor.table_cache.stats()
    return stats.hits + stats.misses


def test_an_enumeration_fallback_plan_makes_one_lookup():
    rng = np.random.default_rng(31)
    executor = SimulatedExecutor(random_platform(rng, 3))
    chain = random_chain(rng, 4)
    plan = plan_workload(executor, chain, DecisionObjective(DecisionModel(cost_weight=0.5)))
    assert plan.method == "enumeration"
    assert lookups(executor) == 1


def test_a_fault_aware_fallback_plan_makes_one_lookup_per_component():
    rng = np.random.default_rng(32)
    executor = SimulatedExecutor(random_platform(rng, 3))
    chain = random_chain(rng, 4)
    plan = plan_with_fallback(executor, chain, retry=RetryPolicy(max_attempts=2))
    assert len(plan.backups) == 2  # a primary plus two backups: three components
    assert plan.primary.method == "fault-stream"
    assert lookups(executor) == 3
