"""Fixed-parameter ADMM on the saddle-point KKT system.

For a fixed penalty beta > 0 the three update steps (local solve, global
solve, multiplier update) are linear, so the sweep is the affine
fixed-point map u -> G(beta) u + b(beta) with G = P^{-1} (P - M), and one
sweep is exactly u + P^{-1} (r - M u).  The x columns of G are zero, so the
next iterate depends only on the z and y parts of the last one.
:func:`admm_solve` stacks the nonzero columns of G, b and their M-images
into one matrix of 2 dim (nz + ny + 1) doubles (1.19 MB at dimension 390),
formed once per solve by one block
:func:`admmgmres.precond.apply_inverse` with the Cholesky factorizations of
D + beta A'A and B'B that the engine computed once per (problem, beta)
pair; each sweep is then one mat-vec with it.  Varying beta mid-run is
deliberately unsupported.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .core import NumericalError, check_beta, check_epsilon, check_max_iter, kkt_matvec
from .precond import apply_inverse, sweep_columns

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
    ``global_factor`` the one of B'B, both stored in Fortran order so that
    LAPACK reads them in place instead of copying them on every solve.
    Immutable once built; one engine can serve any number of steps and
    concurrent solves.
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
    Both solvers record the residual they read from products they already
    form (ADMM from its stacked sweep matrix, GMRES from the Arnoldi
    images), which equals the true one up to roundoff, and replace it with
    a fresh ||M u_k - r|| whenever it meets the threshold and as the last
    entry; only a fresh value stops a run (see :func:`admm_solve` and
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
    return AdmmEngine(problem, beta, np.asfortranarray(local), np.asfortranarray(glob))


def admm_step(engine, u):
    """One ADMM sweep u + P^{-1} (r - M u) of the stacked vector ``u``; b = P^{-1} r from 0."""
    p = engine.problem
    return u + apply_inverse(engine, p.rhs() - kkt_matvec(p, u))


@contextmanager
def _naming(method_tag, beta):
    """Prefix any :class:`NumericalError` raised inside with the solver and its penalty."""
    try:
        yield
    except NumericalError as exc:
        raise NumericalError(f"{method_tag} at beta={beta}: {exc}") from exc


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
        self.epsilon = check_epsilon(epsilon)
        self.max_iter = check_max_iter(max_iter)
        self.problem = problem
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
        ``solution`` is None until :meth:`confirm` replaces it.
        """
        res = math.sqrt(s @ s)  # the bits of np.linalg.norm on a contiguous vector
        if not math.isfinite(res):
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
        return res <= self.threshold

    def confirm(self, u):
        """Replace the last entry by the fresh residual r - M u of ``u``; True once converged."""
        self.residuals.pop()
        return self.add(self.r - kkt_matvec(self.problem, u), u)

    def trace(self, method_tag, beta):
        # copied: after zero iterations the solution is the caller's u0
        return IterationTrace(np.asarray(self.residuals), self.iterations, self.converged,
                              self.epsilon, method_tag, beta, np.array(self.solution, dtype=float))


def admm_solve(engine, u0=None, epsilon=1e-6, max_iter=100_000):
    """Run ADMM sweeps from the stacked ``u0`` (zeros by default).

    The loop stops once the KKT residual is at most ``epsilon`` in (0, 1)
    times the larger of the initial residual and ||r||, or after
    ``max_iter`` sweeps, an integer of at least 1.

    Unless ``u0`` already meets the threshold, the solve applies P^{-1}
    once, by one block :func:`admmgmres.precond.apply_inverse`, to the
    columns (P - M)[:, nx:] and to r.  That gives the nonzero columns G' of
    G and b = P^{-1} r, which it stacks over their residual images:

        T = [   G'        b    ]
            [ -M G'   r - M b  ]

    A sweep is then the one mat-vec w = T [z_k; y_k; 1]: its upper half is
    u_{k+1} = G u_k + b and its lower half is r - M u_{k+1}.  T takes
    2 dim (nz + ny + 1) doubles, 1.19 MB at dimension 390.

    The trace records the residual read from that product, which equals
    the true one up to roundoff.  Whenever it meets the threshold a fresh
    r - M u_{k+1} replaces it, and only that fresh value stops the run; a
    run that ends unconverged also ends on a fresh value, as in
    :func:`admmgmres.gmres.admm_gmres_solve`.  The trace's ``solution`` is
    that confirmed or final iterate.  A non-finite residual raises
    :class:`NumericalError` naming the method and beta.
    """
    problem = engine.problem
    with _naming("admm", engine.beta):
        run = _Run(problem, u0, epsilon, max_iter)
        if run.converged:
            return run.trace("admm", engine.beta)
        dim, nx, r = problem.dim, problem.nx, run.r
        X = apply_inverse(engine, np.column_stack((sweep_columns(engine), r)))  # [G' b]
        T = np.concatenate((X, -kkt_matvec(problem, X, block=True)))
        T[dim:, -1] += r
        v = np.append(run.u0[nx:], 1.0)  # [z_k; y_k; 1]
        for _ in range(run.max_iter):
            w = T @ v
            v[:-1] = w[nx:dim]
            if run.add(w[dim:]) and run.confirm(w[:dim]):
                break
        if run.solution is None:
            run.confirm(w[:dim])
        return run.trace("admm", engine.beta)
