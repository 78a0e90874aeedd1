"""Fixed-parameter ADMM on the saddle-point KKT system, and the record every solver returns.

The sweep is the affine map of :mod:`admmgmres.precond`, run by
:func:`admm_solve`.  It and :func:`admmgmres.gmres.admm_gmres_solve` are one
solve, :func:`_kernel_solve`, with different inner runs, and both return an
:class:`IterationTrace`.  Varying beta mid-run is deliberately unsupported.
"""

import math
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

# Sweeps per block of admm_solve.  One matmul by N' gives a block's residual
# estimates, and a run that stops inside a block has paid for the rest of it.
# On the first 12 ADMM solves of the benchmark's `large` workload (dimension
# 390; one BLAS thread, OpenBLAS 0.3.31, 2-core Xeon; fastest of 5) blocks of
# 8, 16 and 32 took 123, 107 and 101 ms, against 172 ms sweep by sweep.
_BLOCK = 16

# Inner runs per solve, the first included: each later one is a correction
# cycle of iterative refinement (Carson & Higham, SIAM J. Sci. Comput. 39, 2017).
_CYCLES = 4


@dataclass
class IterationTrace:
    """KKT residual history and final iterate of one solve.

    ``residuals[k]`` is the KKT residual norm ||M u_k - r|| at iterate k,
    starting with the initial point, so its length is ``iterations + 1``.
    Each solver reads the entry from a product it already forms, which
    equals the true residual up to roundoff (:func:`_kernel_solve` and its
    inner runs tell how).  A fresh ||M u_k - r|| replaces it whenever it
    meets the threshold and as the last entry, and only a fresh value stops
    a run.  The threshold is ``epsilon`` times the larger of the initial
    residual and ||r||: relative to the start, with a floor so that a warm
    start at (or numerically at) the solution stops at once instead of
    chasing roundoff; from zero both references coincide.  ``converged``
    records that test on the last entry, and ``solution`` is the final
    stacked iterate u_k, the one whose fresh residual is ``residuals[-1]``.
    A non-finite residual raises :class:`NumericalError` naming the method
    and beta.
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
        self.s0 = self.fresh = self.r - kkt_matvec(problem, self.u0)
        self.residuals, self.solution = [], self.u0
        self._append(math.sqrt(self.s0 @ self.s0))
        self.threshold = epsilon * max(self.residuals[0], float(np.linalg.norm(self.r)))

    @property
    def iterations(self):
        return len(self.residuals) - 1

    @property
    def converged(self):
        return bool(self.residuals[-1] <= self.threshold)

    def add(self, res):
        """Record the estimate ``res``, with no solution; True once it meets the threshold."""
        self._append(res)
        self.solution = None
        return res <= self.threshold

    def _append(self, res):
        """Append ``res`` to the history, raising on a non-finite value."""
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

    def confirm(self, u):
        """Replace the last entry by the fresh residual r - M u of ``u``; True once converged."""
        self.residuals.pop()
        self.fresh = self.r - kkt_matvec(self.problem, u)
        self._append(math.sqrt(self.fresh @ self.fresh))  # the bits of np.linalg.norm
        self.solution = u
        return self.converged

    def finish(self):
        """The trace of the solve; its last entry is the fresh residual of ``solution``."""
        # copied: after zero iterations the solution is the caller's u0
        return IterationTrace(np.asarray(self.residuals), self.iterations, self.converged,
                              self.epsilon, self.method_tag, self.beta,
                              np.array(self.solution, dtype=float))


def _kernel_solve(engine, u0, epsilon, max_iter, tag, inner):
    """The solve of every method: the checked start, iterate 1, the inner runs and the end.

    Unless ``u0`` already meets the threshold, P^{-1} applied to
    s0 = r - M u0 gives the first correction b = u_1 - u_0.  Since
    P u_{k+1} = P u_k + r - M u_k, the residual of an iterate is fixed by its
    change (Boyd et al. 2011, section 3.3):

        r - M u_{k+1} = (P - M)(u_{k+1} - u_k) = [-beta A'B dz; 0; -dy / beta],

    so iterate 1 records ||(P - M) b||.  Otherwise the kernel coordinate of
    :class:`AdmmEngine` gives the recurrence t_k = CU t_{k-1} + c from
    t_0 = 0, c = C b_zy, and ``inner(run, engine, c, iterate)`` records the
    next iterates and returns the t of its last one (None if it recorded
    none).  ``iterate(t)`` is the stacked iterate
    u_0 + P^{-1} ((P - M)[0; U t + b_zy] + s0) whose sweep read t, one more
    P^{-1} formed only for a confirmation and at the end.

    An inner run that ends above the threshold before ``max_iter`` (ADMM's
    at a failed confirmation, GMRES's after ny steps) is followed by a
    correction cycle from its last iterate u, with its fresh residual
    r - M u in place of s0 and the same engine, up to ``_CYCLES`` runs in
    all, so every method can cycle.  A :class:`NumericalError` is renamed
    ``<tag> at beta=...``.
    """
    try:
        run = _Run(engine.problem, u0, epsilon, max_iter, tag, engine.beta)
        if run.converged:
            return run.finish()
        nx = engine.problem.nx
        cols = sweep_columns(engine)  # (P - M)[:, nx:]
        u, s = run.u0, run.s0
        for _ in range(_CYCLES):
            b = apply_inverse(engine, s)
            e = cols @ b[nx:]  # (P - M) b, the residual of the run's first iterate u + b
            done = run.add(math.sqrt(e @ e)) and run.confirm(u + b)
            t = None
            if not done and run.iterations < run.max_iter:
                def iterate(t):
                    return u + apply_inverse(engine, cols @ (engine.lift(t) + b[nx:]) + s)

                t = inner(run, engine, engine.offset(b), iterate)
            if run.solution is None:  # the last entry is an estimate
                run.confirm(u + b if t is None else iterate(t))
            if run.converged or run.iterations == run.max_iter:
                break
            u, s = run.solution, run.fresh
        return run.finish()
    except NumericalError as exc:
        raise NumericalError(f"{tag} at beta={engine.beta}: {exc}") from exc


def _sweep_blocks(run, engine, c, iterate):
    """ADMM's inner run: the sweeps t_k = CU t_{k-1} + c, in blocks, up to one confirmation.

    The loop carries the differences d_k = t_k - t_{k-1} instead of t:
    d_1 = c and d_{k+1} = CU d_k, which cannot grow since ||CU|| <= 1.
    Iterate k + 1 records the estimate ||N d_k||, the norm of r - M u_{k+1}.
    Sweeps run in blocks of up to ``_BLOCK``: one ny x ny gemv per sweep
    fills the block's differences, one matmul by N' gives all their
    residual images, and the block's entries are recorded in order.

    The run ends at the cap or at the first estimate that meets the
    threshold, confirmed or not.  The estimate is a recursively computed
    residual, which differs from the fresh r - M u by the rounding errors of
    the recurrence and of forming u: once r - M u reaches that attainable
    accuracy, the estimate keeps falling while r - M u stalls (Greenbaum,
    SIAM J. Matrix Anal. Appl. 18, 1997).  A correction cycle from the
    confirmed iterate starts again from its fresh residual.
    """
    # copies in the layouts BLAS reads fastest: at ny = 140 a gemv by a
    # column-major CU took 4.0 us against 5.1, and the block's matmul by
    # a row-major N' 24 us against 44 for the view N.T
    CU = np.asfortranarray(engine.CU)
    NT = np.ascontiguousarray(engine.N.T)
    D = np.empty((_BLOCK, len(c)))  # D[j] = d_{k+j} for a block from iterate k + 1
    D[0] = c  # d_1
    t = np.zeros(len(c))  # t_{k-1}, read by the block's first sweep
    while True:
        p = min(_BLOCK, run.max_iter - run.iterations)
        for j in range(p - 1):
            np.dot(CU, D[j], out=D[j + 1])
        E = D[:p] @ NT
        for j, res in enumerate(np.sqrt(np.einsum("ij,ij->i", E, E)).tolist()):
            if run.add(res):  # confirmed only now, and the end of the run either way
                t += D[:j].sum(0)
                run.confirm(iterate(t))
                return t
        if run.iterations == run.max_iter:
            return t + D[: p - 1].sum(0)
        t += D[:p].sum(0)
        np.dot(CU, D[p - 1], out=D[0])  # a block that is not the last is full


def admm_solve(engine, u0=None, epsilon=1e-6, max_iter=100_000):
    """Run ADMM sweeps from the stacked ``u0`` (zeros by default).

    The loop stops once the residual meets the threshold of
    :class:`IterationTrace` at ``epsilon`` in (0, 1), or after ``max_iter``
    sweeps, an integer of at least 1.  At a fixed penalty ADMM is
    Douglas-Rachford splitting on the dual (Gabay 1983; Eckstein & Bertsekas
    1992), so after the start of :func:`_kernel_solve` the sweeps run on one
    ny-vector, the kernel coordinate of :class:`AdmmEngine`, in blocks
    (:func:`_sweep_blocks`).
    """
    return _kernel_solve(engine, u0, epsilon, max_iter, "admm", _sweep_blocks)
