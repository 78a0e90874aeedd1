"""Fixed-parameter ADMM on the saddle-point KKT system.

For a fixed penalty beta > 0 the three update steps (local solve, global
solve, multiplier update) are linear, so the sweep is the affine
fixed-point map u -> G(beta) u + b(beta) with G = P^{-1} (P - M), and one
sweep is exactly u + P^{-1} (r - M u).  The sweep therefore applies the
preconditioner through :func:`admmgmres.precond.apply_inverse`, which
reuses the Cholesky factorizations of D + beta A'A and B'B computed once
per (problem, beta) pair; varying beta mid-run is deliberately
unsupported.
"""

from dataclasses import dataclass

import numpy as np

from .core import NumericalError, check_beta, check_max_iter, kkt_matvec
from .precond import apply_inverse

__all__ = [
    "AdmmEngine",
    "IterationTrace",
    "make_engine",
    "admm_step",
    "admm_solve",
]


@dataclass
class AdmmEngine:
    """Per-beta state: the problem, beta, and the two Cholesky factors.

    ``local_factor`` is the lower Cholesky factor of D + beta A'A,
    ``global_factor`` the one of B'B.  Immutable once built; one engine can
    serve any number of steps and concurrent solves.
    """

    problem: object
    beta: float
    local_factor: np.ndarray
    global_factor: np.ndarray


@dataclass
class IterationTrace:
    """KKT residual history of one solve.

    ``residuals[k]`` is the true residual norm ||M u_k - r|| at iterate k,
    starting with the initial point, so its length is ``iterations + 1``.
    ``converged`` records the relative-to-initial residual test at the
    tolerance ``epsilon`` (see :func:`admm_solve`).
    """

    residuals: np.ndarray
    iterations: int
    converged: bool
    epsilon: float
    method_tag: str
    beta: float


def make_engine(problem, beta):
    """Factor the two sub-solve operators for a fixed beta > 0."""
    beta = check_beta(beta)
    A, B, D = problem.A, problem.B, problem.D
    try:
        local = np.linalg.cholesky(D + beta * (A.T @ A))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"Cholesky factorization of the local block D + beta A'A failed "
            f"at beta={beta}"
        ) from exc
    try:
        glob = np.linalg.cholesky(B.T @ B)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "Cholesky factorization of the global block B'B failed"
        ) from exc
    return AdmmEngine(problem, beta, local, glob)


def admm_step(engine, u):
    """One ADMM sweep u + P^{-1} (r - M u) of the stacked vector ``u``; b = P^{-1} r from 0."""
    p = engine.problem
    return u + apply_inverse(engine, p.rhs() - kkt_matvec(p, u))


class _Run:
    """Checked start and true-residual history of one solve, kept for either solver.

    ``u0`` is a stacked (dim,) vector, zeros by default, and is never
    written to; ``s0 = r - M u0`` is its residual.  Convergence is relative
    to the initial residual, with a floor of epsilon * ||r|| so that a warm
    start at (or numerically at) the solution stops at once instead of
    chasing roundoff; from zero both references coincide.  A non-finite
    residual, initial or later, raises :class:`NumericalError`; at the
    start eps * max(inf, inf) would otherwise pass at once.
    """

    def __init__(self, problem, u0, epsilon, max_iter):
        if not 0 < epsilon < 1:
            raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
        self.max_iter = check_max_iter(max_iter)
        self.epsilon = epsilon
        self.u0 = np.zeros(problem.dim) if u0 is None else u0
        self.r = problem.rhs()
        self.s0 = self.r - kkt_matvec(problem, self.u0)
        self.residuals, self.threshold = [], 0.0  # set once ||s0|| is known
        self.add(self.s0)
        self.threshold = epsilon * max(self.residuals[0], float(np.linalg.norm(self.r)))

    @property
    def iterations(self):
        return len(self.residuals) - 1

    @property
    def converged(self):
        return bool(self.residuals[-1] <= self.threshold)

    def add(self, s):
        """Record ||s|| as the next iterate's residual; True once it meets the threshold."""
        res = float(np.linalg.norm(s))
        if not res < np.inf:  # a norm is >= 0, so this is inf or nan
            k = len(self.residuals)
            if k == 0:
                raise NumericalError(
                    f"non-finite initial KKT residual {res}; the starting iterate is not finite"
                )
            raise NumericalError(
                f"non-finite KKT residual at iteration {k}; "
                f"last finite iteration was {k - 1} with residual {self.residuals[-1]:.3e}"
            )
        self.residuals.append(res)
        return self.converged

    def trace(self, method_tag, beta):
        return IterationTrace(np.asarray(self.residuals), self.iterations, self.converged,
                              self.epsilon, method_tag, beta)


def admm_solve(engine, u0=None, epsilon=1e-6, max_iter=100_000):
    """Run ADMM sweeps from the stacked ``u0`` (zeros by default).

    The loop stops once the KKT residual is at most ``epsilon`` in (0, 1)
    times the larger of the initial residual and ||r||, or after
    ``max_iter`` sweeps, an integer of at least 1.  It keeps one residual
    s = r - M u per iterate: its norm is the recorded true residual
    ||M u_k - r|| (u0 included) and the next sweep is u + P^{-1} s, so
    monitoring costs no extra mat-vec.
    """
    problem = engine.problem
    run = _Run(problem, u0, epsilon, max_iter)
    u, s = run.u0, run.s0
    while not run.converged and run.iterations < run.max_iter:
        u = u + apply_inverse(engine, s)
        s = run.r - kkt_matvec(problem, u)
        run.add(s)
    return run.trace("admm", engine.beta)
