"""``select``: the paper's selection pipeline, one job at a time.

A job sweeps every placement of a seeded workload on the four-device edge
cluster and keeps the best ``top_k`` by time, executes and measures those
candidates ``n_measurements`` times for time and for energy under the
default system noise, clusters both measurement tables into performance
classes with the bootstrap comparator (``repetitions`` shuffled sorts), and
picks the member of time cluster 1 with the lowest mean energy.

Jobs come in rounds: one RLS chain of each length in ``chain_lengths`` plus
``dags_per_round`` fork-join DAGs, in seeded order, then a structurally equal
copy of each of those jobs (new objects, same content, fresh measurement
noise) in another seeded order.  The copies are the ``repeat`` operations:
the only reuse open to them is the executor's table cache.  Rounds stratify
the mix, so a pass always holds whole sets of job sizes.  A 9-task sweep
costs about as much as two 6-task jobs.  With two of them and five DAGs
(about as cheap as a 6-task job) among ten jobs, 70% of the jobs share one
cost level, so the median stays inside it when the machine slows down for
part of a run, and the 9-task jobs (20%) hold the tail sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.analyzer import RelativePerformanceAnalyzer
from repro.core.comparison import BootstrapComparator
from repro.devices import edge_cluster_platform
from repro.devices.simulator import SimulatedExecutor
from repro.measurement.noise import default_system_noise
from repro.search import plan_workload, search_space
from repro.tasks import RegularizedLeastSquaresTask, TaskChain
from repro.tasks.workloads import fork_join_graph

from .harness import Op, Workload, digest

#: Rounds whose parameters enter the input digest.
DIGEST_ROUNDS = 64


@dataclass(frozen=True)
class SelectSizes:
    chain_lengths: tuple[int, ...] = (6, 7, 8, 9, 9)
    dags_per_round: int = 5
    dag_branches: tuple[int, ...] = (3, 4)
    top_k: int = 16
    n_measurements: int = 30
    repetitions: int = 100


TINY = SelectSizes(
    chain_lengths=(3, 4), dags_per_round=1, dag_branches=(2,), top_k=4, n_measurements=5, repetitions=3
)


def _job_params(seed: int, round_index: int, sizes: SelectSizes) -> list[tuple]:
    """The jobs of one round, in the order they are first submitted."""
    rng = np.random.default_rng([seed, 1, round_index])
    jobs: list[tuple] = []
    for length in sizes.chain_lengths:
        jobs.append(
            (
                "chain",
                tuple(int(v) for v in rng.integers(40, 301, size=length)),
                tuple(int(v) for v in rng.integers(4, 13, size=length)),
                tuple(bool(v) for v in rng.integers(0, 2, size=length)),
            )
        )
    for _ in range(sizes.dags_per_round):
        jobs.append(
            (
                "dag",
                int(rng.choice(sizes.dag_branches)),
                tuple(int(v) for v in rng.integers(60, 301, size=3)),
                int(rng.integers(6, 15)),
            )
        )
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order] + [jobs[i] for i in rng.permutation(len(jobs))]


def _build(params: tuple, name: str):
    """A new workload object from job parameters (equal params, equal content)."""
    if params[0] == "chain":
        _, task_sizes, iterations, on_host = params
        tasks = [
            RegularizedLeastSquaresTask(size=s, iterations=n, name=f"L{i + 1}", generate_on_host=h)
            for i, (s, n, h) in enumerate(zip(task_sizes, iterations, on_host))
        ]
        return TaskChain(tasks, name=name)
    _, branches, (prepare, branch, reduce), iterations = params
    return fork_join_graph(
        branches=branches,
        prepare_size=prepare,
        branch_size=branch,
        reduce_size=reduce,
        iterations=iterations,
    )


class SelectWorkload(Workload):
    name = "select"
    Sizes = SelectSizes

    @property
    def cycle(self) -> int:
        return 2 * (len(self.sizes.chain_lengths) + self.sizes.dags_per_round)

    def setup(self) -> None:
        self.platform = edge_cluster_platform()
        self._rounds: dict[int, list[tuple]] = {}
        self.input_digest = digest(
            self.sizes, [_job_params(self.seed, r, self.sizes) for r in range(DIGEST_ROUNDS)]
        )
        warm = SimulatedExecutor(self.platform, noise=default_system_noise(), seed=self.seed)
        small = _build(("chain", (80, 120, 160), (6, 6, 6), (True, False, True)), "warm-up")
        self._select(warm, small)

    def reset(self, tracer) -> None:
        self.tracer = tracer
        self.executor = SimulatedExecutor(
            self.platform, noise=default_system_noise(), seed=self.seed
        )
        self.checker = SimulatedExecutor(self.platform)
        self._first_sweeps: dict[tuple, tuple[bytes, bytes]] = {}

    def table_caches(self) -> list:
        return [self.executor.table_cache]

    def _round(self, index: int) -> list[tuple]:
        jobs = self._rounds.get(index)
        if jobs is None:
            jobs = self._rounds[index] = _job_params(self.seed, index, self.sizes)
        return jobs

    def _select(self, executor: SimulatedExecutor, workload):
        sizes = self.sizes
        sweep = search_space(
            executor, workload, objectives=("time",), top_k=sizes.top_k, frontier=None
        )
        batch = executor.execute_batch(workload, list(sweep.top["time"].labels))
        times = executor.measure_batch(batch, sizes.n_measurements, "time")
        energies = executor.measure_batch(batch, sizes.n_measurements, "energy")
        analyzer = RelativePerformanceAnalyzer(
            BootstrapComparator(seed=self.seed), repetitions=sizes.repetitions, seed=self.seed
        )
        analyses = analyzer.analyze_many({"time": times, "energy": energies})
        with self.span("selection"):
            fastest = analyses["time"].final.best_cluster()
            energy = energies.as_dict()
            pick = min(fastest, key=lambda label: float(np.mean(energy[label])))
        return sweep, analyses, energies, pick

    def op(self, index: int) -> Op:
        round_index, position = divmod(index, self.cycle)
        params = self._round(round_index)[position]
        kind = "fresh" if position < self.cycle // 2 else "repeat"
        workload = _build(params, f"job-{round_index}")
        (sweep, analyses, energies, pick), seconds = self.timed(
            self._select, self.executor, workload
        )
        ok = self._check(params, workload, sweep, analyses, energies, pick)
        return Op(kind, seconds, pairs=sweep.n_evaluated, ok=ok)

    def _check(self, params, workload, sweep, analyses, energies, pick) -> bool:
        top = sweep.top["time"]
        plan = plan_workload(self.checker, workload, "time")
        if np.float64(top.values[0]).tobytes() != np.float64(plan.value).tobytes():
            return False
        fastest = analyses["time"].final.best_cluster()
        means = {label: float(np.mean(energies.as_dict()[label])) for label in fastest}
        if pick not in fastest or means[pick] != min(means.values()):
            return False
        # A repeat sweeps the same space: its top-k must equal the first one's.
        first = self._first_sweeps.setdefault(params, (top.indices.tobytes(), top.values.tobytes()))
        return first == (top.indices.tobytes(), top.values.tobytes())
