"""Fixed-parameter ADMM on the saddle-point KKT system, and the record every solver returns.

The sweep is the affine map of :mod:`admmgmres.precond`, run by
:func:`admm_solve`; both it and :func:`admmgmres.gmres.admm_gmres_solve`
return an :class:`IterationTrace`.  Varying beta mid-run is deliberately
unsupported.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .core import NumericalError, check_epsilon, check_max_iter, kkt_matvec
from .precond import AdmmEngine, apply_inverse, make_engine, sweep_columns  # engine re-exported

__all__ = [
    "AdmmEngine",
    "IterationTrace",
    "make_engine",
    "admm_step",
    "admm_solve",
]


@dataclass
class IterationTrace:
    """KKT residual history and final iterate of one solve.

    ``residuals[k]`` is the KKT residual norm ||M u_k - r|| at iterate k,
    starting with the initial point, so its length is ``iterations + 1``.
    Each solver reads the entry from a product it already forms, which
    equals the true residual up to roundoff (how each does so is told in
    :func:`admm_solve` and :func:`admmgmres.gmres.admm_gmres_solve`).  A
    fresh ||M u_k - r|| replaces it whenever it meets the threshold and as
    the last entry, and only a fresh value stops a run.  The threshold is
    ``epsilon`` times the larger of the initial residual and ||r||: relative
    to the start, with a floor so that a warm start at (or numerically at)
    the solution stops at once instead of chasing roundoff; from zero both
    references coincide.  ``converged`` records that test on the last
    entry, and ``solution`` is the final stacked iterate u_k, the one whose
    fresh residual is ``residuals[-1]``.  A non-finite residual raises
    :class:`NumericalError` naming the method and beta.
    """

    residuals: np.ndarray
    iterations: int
    converged: bool
    epsilon: float
    method_tag: str
    beta: float
    solution: np.ndarray


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
    """Checked start, residual record and end of one solve, kept for either solver.

    ``u0`` is a stacked (dim,) vector, zeros by default, and is never
    written to; ``s0 = r - M u0`` is its residual.  The record is the one
    :class:`IterationTrace` describes; at the start a non-finite residual
    must raise, since eps * max(inf, inf) would otherwise pass at once.
    """

    def __init__(self, problem, u0, epsilon, max_iter, method_tag, beta):
        self.epsilon = check_epsilon(epsilon)
        self.max_iter = check_max_iter(max_iter)
        self.problem, self.method_tag, self.beta = problem, method_tag, beta
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

    def finish(self, final):
        """The trace of the solve, confirming ``final()`` first if the last entry is an estimate.

        ``final`` is called only then, so a solve whose last entry is fresh
        pays for no last iterate.
        """
        if self.solution is None:
            self.confirm(final())
        # copied: after zero iterations the solution is the caller's u0
        return IterationTrace(np.asarray(self.residuals), self.iterations, self.converged,
                              self.epsilon, self.method_tag, self.beta,
                              np.array(self.solution, dtype=float))


def admm_solve(engine, u0=None, epsilon=1e-6, max_iter=100_000):
    """Run ADMM sweeps from the stacked ``u0`` (zeros by default).

    The loop stops once the residual meets the threshold of
    :class:`IterationTrace` at ``epsilon`` in (0, 1), or after ``max_iter``
    sweeps, an integer of at least 1.

    Unless ``u0`` already meets the threshold, the solve applies P^{-1}
    once, by one block :func:`admmgmres.precond.apply_inverse`, to the
    columns (P - M)[:, nx:] and to r.  That gives the nonzero columns G' of
    G and b = P^{-1} r, which it stacks over their residual images:

        T = [   G'        b    ]
            [ -M G'   r - M b  ]

    A sweep is then the one mat-vec w = T [z_k; y_k; 1]: its upper half is
    u_{k+1} = G u_k + b and its lower half is r - M u_{k+1}, the recorded
    estimate.  T takes 2 dim (nz + ny + 1) doubles, 1.19 MB at dimension
    390, small enough to stay in a 2 MB L2 cache.
    """
    problem = engine.problem
    with _naming("admm", engine.beta):
        run = _Run(problem, u0, epsilon, max_iter, "admm", engine.beta)
        if run.converged:
            return run.finish(None)
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
        return run.finish(lambda: w[:dim])
