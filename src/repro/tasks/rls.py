"""Regularised Least Squares loop task (Procedure 6 of the paper).

The Table I experiment runs a scientific code of three ``MathTask`` calls with
sizes 50, 75 and 300.  Each MathTask solves, in a loop, the Tikhonov-regularised
least-squares problem

.. math::

    Z = (A^T A + \\lambda I)^{-1} A^T B, \\qquad \\lambda' = \\lVert A Z - B \\rVert^2

where the penalty :math:`\\lambda` produced by one iteration regularises the
next one, and the penalty of the last iteration is passed to the next MathTask
(so the tasks cannot run concurrently).

Following the HPC guide's advice to prefer structured solvers over generic
inverses, the implementation factorises the SPD Gram matrix with Cholesky
(:func:`scipy.linalg.cho_factor` / :func:`scipy.linalg.cho_solve`) instead of
forming an explicit inverse.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .flops import regularized_least_squares_flops
from .task import FLOAT64_BYTES, MathTask, TaskCost

__all__ = ["RegularizedLeastSquaresTask"]

#: One iteration's FLOPs per matrix size, memoized: the formula is pure, and a
#: request key over new task objects calls ``cost()`` once per task.  Invalid
#: sizes still raise on every call, since exceptions are not cached.
_iteration_flops = lru_cache(maxsize=1024)(regularized_least_squares_flops)


class RegularizedLeastSquaresTask(MathTask):
    """A loop of ``iterations`` Regularised Least Squares solves with ``size x size`` data.

    Parameters
    ----------
    size:
        Matrix dimension of ``A`` and ``B`` (the paper uses 50, 75 and 300).
    iterations:
        Loop length ``n`` of Procedure 6 (the paper discusses ``n = 10``).
    name:
        Task label (``"L1"``, ``"L2"``, ``"L3"``).
    generate_on_host:
        Whether the random input matrices originate on the host/edge device and
        therefore have to cross the interconnect when the task is offloaded.
    """

    def __init__(
        self,
        size: int,
        iterations: int = 10,
        name: str = "rls",
        generate_on_host: bool = True,
    ) -> None:
        super().__init__(name)
        if size <= 0:
            raise ValueError("size must be positive")
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        self.size = int(size)
        self.iterations = int(iterations)
        self.generate_on_host = generate_on_host

    def cost(self) -> TaskCost:
        n = self.size
        matrix_bytes = n * n * FLOAT64_BYTES
        input_bytes = (
            2.0 * matrix_bytes * self.iterations if self.generate_on_host else FLOAT64_BYTES
        )
        return TaskCost(
            flops=_iteration_flops(n) * self.iterations,
            input_bytes=input_bytes,
            output_bytes=float(FLOAT64_BYTES),  # only the scalar penalty returns
            working_set_bytes=5.0 * matrix_bytes,  # A, B, Gram, RHS, Z
            # One iteration issues roughly 6 kernels: syrk, shift, gemm, potrf,
            # trsm-solve, gemm + norm fused estimate.
            kernel_calls=6 * self.iterations,
        )

    def run(self, penalty: float = 0.0, rng: np.random.Generator | None = None) -> float:
        from scipy import linalg  # deferred: only running the task needs it
        generator = rng if rng is not None else np.random.default_rng()
        n = self.size
        for _ in range(self.iterations):
            a = generator.standard_normal((n, n))
            b = generator.standard_normal((n, n))
            gram = a.T @ a
            # Regularisation keeps the Gram matrix SPD even for tiny penalties.
            gram.flat[:: n + 1] += abs(penalty) + 1e-8
            rhs = a.T @ b
            factor = linalg.cho_factor(gram, lower=True, check_finite=False)
            z = linalg.cho_solve(factor, rhs, check_finite=False)
            residual = a @ z - b
            penalty = float(np.sum(residual * residual))
        return penalty
