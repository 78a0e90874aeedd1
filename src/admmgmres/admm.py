"""Fixed-parameter ADMM on the saddle-point KKT system.

For a fixed penalty beta > 0 the three update steps (local solve, global
solve, multiplier update) are linear, so the sweep is the affine
fixed-point map u -> G(beta) u + b(beta) with G = P^{-1} (P - M), and one
sweep is exactly u + P^{-1} (r - M u).  :func:`admm_solve` forms P^{-1}
once per solve, through :func:`admmgmres.precond.apply_inverse` on the
identity with the Cholesky factorizations of D + beta A'A and B'B that the
engine computed once per (problem, beta) pair, so each sweep is two dense
mat-vecs; varying beta mid-run is deliberately unsupported.
"""

from dataclasses import dataclass

import numpy as np

from .core import NumericalError, assemble_kkt, check_beta, check_max_iter, kkt_matvec
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
    """KKT residual history and final iterate of one solve.

    ``residuals[k]`` is the KKT residual norm ||M u_k - r|| at iterate k,
    starting with the initial point, so its length is ``iterations + 1``.
    ADMM records the true residual of every sweep.  GMRES records the
    residual it reads from the Arnoldi images, which equals the true one
    up to roundoff, and replaces it with a fresh ||M u_k - r|| whenever it
    meets the threshold and as the last entry (see
    :func:`admmgmres.gmres.admm_gmres_solve`).  ``converged`` records the
    relative-to-initial residual test at the tolerance ``epsilon`` (see
    :func:`admm_solve`).  ``solution`` is the final stacked iterate u_k,
    the one whose fresh residual is ``residuals[-1]``.
    """

    residuals: np.ndarray
    iterations: int
    converged: bool
    epsilon: float
    method_tag: str
    beta: float
    solution: np.ndarray


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
    """Checked start, residual history and solution of one solve, kept for either solver.

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
        self.add(self.s0, self.u0)
        self.threshold = epsilon * max(self.residuals[0], float(np.linalg.norm(self.r)))

    @property
    def iterations(self):
        return len(self.residuals) - 1

    @property
    def converged(self):
        return bool(self.residuals[-1] <= self.threshold)

    def add(self, s, u=None):
        """Record ||s|| as the next iterate's residual; True once it meets the threshold.

        ``u`` marks ``s`` as the fresh residual r - M u of that iterate, which
        becomes the solution; without it the entry is an estimate and
        ``solution`` is None until :meth:`settle` replaces it.
        """
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
        self.solution = u
        return self.converged

    def settle(self, s, u):
        """Replace the last entry by the fresh residual s = r - M u of the iterate ``u``."""
        self.residuals.pop()
        self.add(s, u)

    def trace(self, method_tag, beta):
        # copied: after zero iterations the solution is the caller's u0
        return IterationTrace(np.asarray(self.residuals), self.iterations, self.converged,
                              self.epsilon, method_tag, beta, np.array(self.solution, dtype=float))


def admm_solve(engine, u0=None, epsilon=1e-6, max_iter=100_000):
    """Run ADMM sweeps from the stacked ``u0`` (zeros by default).

    The loop stops once the KKT residual is at most ``epsilon`` in (0, 1)
    times the larger of the initial residual and ||r||, or after
    ``max_iter`` sweeps, an integer of at least 1.  It keeps one residual
    s = r - M u per iterate: its norm is the recorded true residual
    ||M u_k - r|| (u0 included) and the next sweep is u + P^{-1} s, so
    monitoring costs no extra mat-vec.  (GMRES instead records the residual
    it reads from its Arnoldi images and takes a fresh one only at the stop
    and as the last entry; see :func:`admmgmres.gmres.admm_gmres_solve`.)

    Unless ``u0`` already meets the threshold, the solve forms P^{-1} once,
    as :func:`admmgmres.precond.apply_inverse` of the identity, and M once,
    so a sweep is two dense mat-vecs.  Both matrices take 2 dim^2 doubles
    (2.4 MB at dimension 390).  The trace's ``solution`` is the last iterate.
    """
    problem = engine.problem
    run = _Run(problem, u0, epsilon, max_iter)
    if not run.converged:
        Pinv, M = apply_inverse(engine, np.eye(problem.dim)), assemble_kkt(problem)
        u, s = run.u0, run.s0
        while not run.converged and run.iterations < run.max_iter:
            u = u + Pinv @ s
            s = run.r - M @ u
            run.add(s, u)
    return run.trace("admm", engine.beta)
