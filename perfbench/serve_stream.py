"""``serve``: a seeded request stream against one long-lived placement service.

Five request classes, in equal shares: every run of five operations holds
each class once, in a seeded order.

* ``plain``: a 6-15 task chain under a time, energy or cost objective (the
  service dispatches it to the exact planner);
* ``constrained``: a 4-6 task chain under ``MaxOffloadedConstraint``
  (streaming enumerator);
* ``grid-worst``: a 4-8 task chain planned for the worst case over a
  ``link_degradation_grid`` of 3-7 points (robust planner);
* ``grid-expected``: a 3-5 task chain, the expected value over such a grid
  plus a ``MaxOffloadedConstraint`` (streaming robust sweep);
* ``faults``: a 4-6 task chain under a fault profile with a
  ``RetryPolicy`` (streaming enumerator over expected costs).

About 70% of the operations resubmit an earlier request of their class as a
structurally equal copy built from new objects; the copy is drawn with a Zipf
skew (exponent 1.5) towards the class's early requests, so the distinct
requests outgrow the response cache (1,024 entries) and the table cache (256)
while popular ones stay hot.  An operation is ``fresh`` when the response
cache missed and ``repeat`` when it served the answer.  These two settings
hold the hit share near 65% for runs of 5,000 to 40,000 operations: with 60%
copies it sinks through 50% as distinct requests pile up, and the median
latency would jump between the hit and the miss latencies with the length of
a run.

The chain length and grid size of a class's ``j``-th distinct request step
through their ranges with ``j``, and only the task sizes, objectives and
rates are drawn from the seed.  The few requests that most copies resubmit
are the class's first ones, so drawing their shapes too would move the
repeat latency from seed to seed: a hit costs a fingerprint of the request,
whose time grows with its tasks and grid points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devices import edge_cluster_platform, lte, wifi_ac
from repro.devices.simulator import SimulatedExecutor
from repro.faults import DeviceFailure, FaultProfile, LinkDropout, RetryPolicy
from repro.scenarios import link_degradation_grid
from repro.search import (
    ExpectedValueObjective,
    MaxOffloadedConstraint,
    as_objective,
    search_grid,
    search_space,
)
from repro.service import PlacementRequest, PlacementService
from repro.tasks import RegularizedLeastSquaresTask, TaskChain

from .harness import Op, Workload, digest

RADIO = (("D", "E"), ("D", "A"), ("N", "E"), ("N", "A"), ("E", "A"))
CLASSES = ("plain", "constrained", "grid-worst", "grid-expected", "faults")
N_DEVICES = 4

#: Operations generated per seed; a pass that reaches the end stops there.
MAX_OPS = 400_000
#: Share of operations that resubmit an earlier request.
REPEAT_SHARE = 0.7
#: Zipf exponent of the popularity of earlier requests among the copies.
POPULARITY_SKEW = 1.5
#: Share of fresh stream-dispatched answers checked against a direct search.
DIRECT_CHECK_SHARE = 0.05
#: Distinct requests whose parameters enter the input digest.
DIGEST_REQUESTS = 256


@dataclass(frozen=True)
class ServeSizes:
    plain_tasks: tuple[int, int] = (6, 15)
    constrained_tasks: tuple[int, int] = (4, 6)
    grid_worst_tasks: tuple[int, int] = (4, 8)
    grid_expected_tasks: tuple[int, int] = (3, 5)
    fault_tasks: tuple[int, int] = (4, 6)
    grid_points: tuple[int, int] = (3, 7)


TINY = ServeSizes(
    plain_tasks=(3, 4),
    constrained_tasks=(2, 3),
    grid_worst_tasks=(2, 3),
    grid_expected_tasks=(2, 3),
    fault_tasks=(2, 3),
    grid_points=(2, 3),
)


def _request_params(seed: int, request_id: int, sizes: ServeSizes) -> tuple:
    """Parameters of one distinct request (a pure function of its id).

    Request ``request_id`` is the ``request_id // len(CLASSES)``-th distinct
    request of class ``request_id % len(CLASSES)``.
    """
    j, cls = divmod(request_id, len(CLASSES))
    rng = np.random.default_rng([seed, 3, request_id])
    span = {
        "plain": sizes.plain_tasks,
        "constrained": sizes.constrained_tasks,
        "grid-worst": sizes.grid_worst_tasks,
        "grid-expected": sizes.grid_expected_tasks,
        "faults": sizes.fault_tasks,
    }[CLASSES[cls]]
    lengths = span[1] - span[0] + 1
    k = span[0] + j % lengths
    points = sizes.grid_points[0] + (j // lengths) % (sizes.grid_points[1] - sizes.grid_points[0] + 1)
    tasks = (
        tuple(int(v) for v in rng.integers(40, 301, size=k)),
        tuple(int(v) for v in rng.integers(4, 13, size=k)),
        tuple(bool(v) for v in rng.integers(0, 2, size=k)),
    )
    extra = (
        int(rng.integers(0, 3)),  # objective of a plain request
        int(rng.integers(1, 4)),  # max offloaded tasks
        points,
        float(rng.uniform(0.01, 0.1)),  # device failure rate
        float(rng.uniform(0.01, 0.05)),  # link dropout rate
        int(rng.integers(2, 4)),  # retry attempts
    )
    direct_check = bool(rng.random() < DIRECT_CHECK_SHARE)
    return (CLASSES[cls], tasks, extra, direct_check)


def _build_request(params: tuple, name: str) -> tuple[PlacementRequest, int]:
    """A request built from new objects, and the pairs a streaming answer enumerates."""
    cls, (task_sizes, iterations, on_host), extra, _ = params
    objective_index, max_offloaded, points, failure, dropout, attempts = extra
    chain = TaskChain(
        [
            RegularizedLeastSquaresTask(size=s, iterations=n, name=f"L{i + 1}", generate_on_host=h)
            for i, (s, n, h) in enumerate(zip(task_sizes, iterations, on_host))
        ],
        name=name,
    )
    placements = N_DEVICES ** len(chain)
    if cls == "plain":
        objective = ("time", "energy", "cost")[objective_index]
        return PlacementRequest(workload=chain, platform="edge-cluster", objective=objective), placements
    if cls == "constrained":
        constraint = MaxOffloadedConstraint(max_offloaded=max_offloaded)
        return (
            PlacementRequest(workload=chain, platform="edge-cluster", constraints=(constraint,)),
            placements,
        )
    if cls == "faults":
        faults = FaultProfile(
            device_failure=DeviceFailure(rate=failure), link_dropout=LinkDropout(rate=dropout)
        )
        retry = RetryPolicy(max_attempts=attempts, backoff_base_s=0.001)
        return (
            PlacementRequest(workload=chain, platform="edge-cluster", faults=faults, retry=retry),
            placements,
        )
    grid = link_degradation_grid(RADIO, start=wifi_ac(), end=lte(), n_points=points)
    if cls == "grid-worst":
        return PlacementRequest(workload=chain, platform="edge-cluster", scenario_grid=grid), placements * points
    constraint = MaxOffloadedConstraint(max_offloaded=max_offloaded)
    request = PlacementRequest(
        workload=chain,
        platform="edge-cluster",
        scenario_grid=grid,
        objective=ExpectedValueObjective(base="time"),
        constraints=(constraint,),
    )
    return request, placements * points


class ServeWorkload(Workload):
    name = "serve"
    Sizes = ServeSizes
    cycle = len(CLASSES)

    def setup(self) -> None:
        self.platform = edge_cluster_platform()
        rng = np.random.default_rng([self.seed, 2])
        n_classes = len(CLASSES)
        rounds = -(-MAX_OPS // n_classes)
        self.classes = rng.permuted(np.tile(np.arange(n_classes), (rounds, 1)), axis=1).ravel()[:MAX_OPS]
        is_new = rng.random(MAX_OPS) >= REPEAT_SHARE
        u = rng.random(MAX_OPS)
        self.request_ids = np.empty(MAX_OPS, dtype=np.int64)
        for cls in range(n_classes):
            ops = np.flatnonzero(self.classes == cls)
            new = is_new[ops]
            new[0] = True
            created = np.cumsum(new) - new  # distinct requests of the class before each op
            # Inverse CDF of a Zipf(POPULARITY_SKEW) density over ids [0, created).
            exponent = 1.0 - POPULARITY_SKEW
            x = (1.0 - u[ops] * (1.0 - (created + 1.0) ** exponent)) ** (1.0 / exponent)
            earlier = np.clip(np.floor(x).astype(np.int64) - 1, 0, np.maximum(created - 1, 0))
            self.request_ids[ops] = np.where(new, created, earlier) * n_classes + cls
        self._params: dict[int, tuple] = {}
        self.input_digest = digest(
            self.sizes,
            self.request_ids,
            [self._request_params(i) for i in range(DIGEST_REQUESTS)],
        )
        warm = PlacementService()
        for cls in range(n_classes):
            # Ids past the stream never occur in it.
            params = _request_params(self.seed, MAX_OPS * n_classes + cls, self.sizes)
            warm.submit(_build_request(params, "warm-up")[0])

    def _request_params(self, request_id: int) -> tuple:
        params = self._params.get(request_id)
        if params is None:
            params = self._params[request_id] = _request_params(self.seed, request_id, self.sizes)
        return params

    def reset(self, tracer) -> None:
        self.tracer = tracer
        self.service = PlacementService()
        self.checker = SimulatedExecutor(self.platform)
        self._answers: dict[int, tuple] = {}

    def table_caches(self) -> list:
        return [self.service.table_cache]

    def op(self, index: int) -> Op:
        if index >= MAX_OPS:
            raise IndexError(f"the serve stream holds {MAX_OPS} operations")
        request_id = int(self.request_ids[index])
        request, pairs = _build_request(self._request_params(request_id), f"req-{request_id}")
        response, seconds = self.timed(self.service.submit, request)
        fresh = not response.cache_info.response_hit
        return Op(
            "fresh" if fresh else "repeat",
            seconds,
            pairs=pairs if fresh and response.engine == "stream" else 0,
            ok=self._check(request_id, request, response),
        )

    def _check(self, request_id: int, request: PlacementRequest, response) -> bool:
        answer = (response.plan, response.value.hex(), response.engine)
        first = self._answers.setdefault(request_id, answer)
        if first != answer:
            return False
        if first is not answer or response.engine != "stream" or not self._params[request_id][3]:
            return True
        if request.is_grid:
            objective = request.objective
            result = search_grid(
                self.checker,
                request.workload,
                request.scenario_grid,
                objectives=(objective,),
                top_k=1,
                constraints=request.constraints,
            )
        else:
            objective = as_objective(request.objective)
            result = search_space(
                self.checker,
                request.workload,
                objectives=(objective,),
                top_k=1,
                frontier=None,
                constraints=request.constraints,
                method="stream",
                faults=request.faults,
                retry=request.retry,
            )
        top = result.top[objective.name]
        return top.best == response.plan and float(top.values[0]).hex() == response.value.hex()
