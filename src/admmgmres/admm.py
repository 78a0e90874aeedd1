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

from .core import NumericalError, check_beta, kkt_matvec
from .precond import apply_inverse

__all__ = [
    "AdmmEngine",
    "IterationTrace",
    "make_engine",
    "admm_step",
    "affine_offset",
    "admm_solve",
    "convergence_threshold",
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
    tolerance ``epsilon`` (see :func:`convergence_threshold`).
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
    """One ADMM sweep of the Iterate ``u``: u + P^{-1} (r - M u)."""
    p = engine.problem
    v = u.vector()
    return p.split_vector(v + apply_inverse(engine, p.rhs() - kkt_matvec(p, v)))


def affine_offset(engine):
    """Constant part b(beta) of the affine update, i.e. one step from zero."""
    return admm_step(engine, engine.problem.zero_iterate())


def convergence_threshold(initial_residual, epsilon, rhs_norm):
    """Residual level that counts as converged.

    The test is relative to the initial residual, with an absolute floor of
    epsilon * ||r|| so that a warm start at (or numerically at) the solution
    terminates immediately instead of chasing roundoff.  For the standard
    zero initial iterate both references coincide (||M*0 - r|| = ||r||).
    A non-finite initial residual raises :class:`NumericalError`: the test
    eps * max(inf, inf) would otherwise pass at once.
    """
    if not np.isfinite(initial_residual):
        raise NumericalError(
            f"non-finite initial KKT residual {initial_residual}; "
            "the starting iterate is not finite"
        )
    return epsilon * max(initial_residual, rhs_norm)


def admm_solve(engine, u0=None, epsilon=1e-6, max_iter=100_000):
    """Iterate ADMM until the KKT residual drops by epsilon, or max_iter.

    The loop runs on stacked vectors and keeps one residual s = r - M u per
    iterate: its norm is the recorded true residual ||M u_k - r|| (u0
    included) and the next sweep is u + P^{-1} s, so monitoring costs no
    extra mat-vec.
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    problem = engine.problem
    u0 = problem.zero_iterate() if u0 is None else u0
    r = problem.rhs()

    s = r - kkt_matvec(problem, u0)
    u = u0.vector()
    res = float(np.linalg.norm(s))
    threshold = convergence_threshold(res, epsilon, float(np.linalg.norm(r)))
    residuals = [res]
    converged = res <= threshold
    k = 0
    while not converged and k < max_iter:
        u = u + apply_inverse(engine, s)
        s = r - kkt_matvec(problem, u)
        res = float(np.linalg.norm(s))
        if not np.isfinite(res):
            raise NumericalError(
                f"non-finite KKT residual at iteration {k + 1}; "
                f"last finite iteration was {k} with residual {residuals[-1]:.3e}"
            )
        residuals.append(res)
        k += 1
        converged = res <= threshold
    return IterationTrace(
        residuals=np.asarray(residuals),
        iterations=k,
        converged=bool(converged),
        epsilon=epsilon,
        method_tag="admm",
        beta=engine.beta,
    )
