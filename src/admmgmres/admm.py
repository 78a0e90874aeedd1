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

# Sweeps per gemv block of admm_solve; its power blocks hold twice as many.
# A run that stops inside a block has paid for the rest of it, so the gemv
# blocks, where short runs end, stay at 16: at the balanced penalty of the
# benchmark's `large` workload (dimension 390, 30 to 63 sweeps; one BLAS
# thread, OpenBLAS 0.3.31, 2-core Xeon) blocks of 32 took 2.62 and 2.64 ms
# per solve against 2.53 and 2.57 for 16.  Past the switch, 2048 sweeps at
# ny = 140 took 1.5 us each in blocks of 32 against 1.8 in blocks of 16: one
# (32 x ny)(ny x ny) gemm took about 20 us against 2 x 11 for two of 16
# rows, and a block's norms, record call and sum come once per 32 sweeps.
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
    inner runs tell how).  A run records estimates up to the first that
    meets the threshold, if not before; a fresh ||M u_k - r|| then replaces
    its last entry, and only a fresh value stops the solve.  The threshold
    is ``epsilon`` times the larger of the initial residual and ||r||:
    relative to the start, with a floor so that a warm start at (or
    numerically at) the solution stops at once instead of chasing roundoff;
    from zero both references coincide.  ``converged`` records that test on
    the last entry, and ``solution`` is the final stacked iterate u_k, the
    one whose fresh residual is ``residuals[-1]``.  A non-finite residual
    raises :class:`NumericalError` naming the method and beta.
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

    ``solution`` starts as the stacked (dim,) ``u0``, zeros by default, and
    ``fresh = r - M u0`` is its residual; each confirmation replaces both.
    The record is the one :class:`IterationTrace` describes; at the start a
    non-finite residual must raise, since eps * max(inf, inf) would
    otherwise pass at once.

    Norms are ``math.sqrt(w @ w)``, whose square under- or overflows for
    entries beyond about 2^-511 or 2^511.  The squares a run must resolve
    span s = max(|r|^2, |r - M u0|^2) down to eps^2 s; when that span
    leaves [2^-900, 2^900], the run works on r, u0 and everything after
    them times 2^``scale``, the power of two that brings the largest entry
    of r and of r - M u0 into [1/2, 1), and :meth:`finish` scales the
    record and the solution back.  Scaling by a power of two is exact, so
    away from the subnormal range every value keeps its bits; the
    threshold test compares two scaled values alike.
    """

    def __init__(self, problem, u0, epsilon, max_iter, method_tag, beta):
        self.epsilon = check_epsilon(epsilon)
        self.max_iter = check_max_iter(max_iter)
        self.problem, self.method_tag, self.beta = problem, method_tag, beta
        u = np.zeros(problem.dim) if u0 is None else np.asarray(u0, dtype=float)
        r = problem.rhs()
        fresh = r - kkt_matvec(problem, u)
        rr, ff = r @ r, fresh @ fresh
        self.scale = 0
        # also taken for a square that is nan
        if not (2.0**-900 <= self.epsilon**2 * max(rr, ff) and max(rr, ff) <= 2.0**900):
            # frexp gives exponent 0 for 0, inf and nan, so those keep scale 0
            self.scale = -math.frexp(float(max(np.abs(r).max(), np.abs(fresh).max())))[1]
            u, r, fresh = (np.ldexp(a, self.scale) for a in (u, r, fresh))
            rr, ff = r @ r, fresh @ fresh
        self.solution, self.r, self.fresh = u, r, fresh
        self.residuals = []
        self._append(math.sqrt(ff))
        self.threshold = self.epsilon * max(self.residuals[0], math.sqrt(rr))

    @property
    def iterations(self):
        return len(self.residuals) - 1

    @property
    def converged(self):
        return bool(self.residuals[-1] <= self.threshold)

    def add(self, res):
        """Record the estimate ``res``; True once it meets the threshold."""
        self._append(res)
        return res <= self.threshold

    def extend(self, res):
        """Record the array of estimates ``res`` as :meth:`add` does, in order, up to the first
        that meets the threshold; return its index, or None if none does."""
        stop = np.flatnonzero(~np.isfinite(res) | (res <= self.threshold))
        j = stop[0] if len(stop) else len(res)
        self.residuals.extend(res[:j].tolist())
        if j == len(res):
            return None
        self._append(float(res[j]))  # raises on a non-finite estimate
        return j

    def _append(self, res):
        """Append ``res`` to the history, raising on a non-finite value."""
        if not math.isfinite(res):
            k = len(self.residuals)
            if k == 0:
                raise NumericalError(
                    f"non-finite initial KKT residual {res}; the starting iterate is not finite"
                )
            last = math.ldexp(self.residuals[-1], -self.scale)
            raise NumericalError(
                f"non-finite KKT residual at iteration {k}; "
                f"last finite iteration was {k - 1} with residual {last:.3e}"
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
        """The trace of the solve at the scale of r; its last entry is the fresh residual of
        ``solution``."""
        return IterationTrace(np.ldexp(self.residuals, -self.scale), self.iterations,
                              self.converged, self.epsilon, self.method_tag, self.beta,
                              np.ldexp(self.solution, -self.scale))


def _kernel_solve(engine, u0, epsilon, max_iter, tag, inner):
    """The solve of every method: the checked start, iterate 1, the inner runs and the end.

    Unless ``u0`` already meets the threshold, P^{-1} applied to
    s0 = r - M u0 gives the first correction b = u_1 - u_0.  Since
    P u_{k+1} = P u_k + r - M u_k, the residual of an iterate is fixed by its
    change (Boyd et al. 2011, section 3.3):

        r - M u_{k+1} = (P - M)(u_{k+1} - u_k) = [-beta A'B dz; 0; -dy / beta],

    so iterate 1 records the estimate ||(P - M) b||.  Unless it meets the
    threshold, the kernel coordinate of :class:`AdmmEngine` gives the
    recurrence t_k = CU t_{k-1} + c from t_0 = 0, c = F' C b_zy, and
    ``inner(run, engine, c)`` records estimates of the next iterates, up to
    the first that meets the threshold or the cap, and returns the t of its
    last one (None if it recorded none).

    Only here is an estimate confirmed, by one rule for iterate 1 and every
    run: the iterate behind the last entry, u_0 + b or else
    u(t) = u_0 + P^{-1} ((P - M)[0; U F t + b_zy] + s0), whose sweep read t
    (one more P^{-1}), gets one fresh residual r - M u in place of its
    estimate.  Each estimate is a recursively computed residual, which
    differs from the fresh r - M u by the rounding errors of the recurrence
    and of forming u: once r - M u reaches that attainable accuracy, the
    estimate keeps falling while r - M u stalls (Greenbaum, SIAM J. Matrix
    Anal. Appl. 18, 1997).  So a fresh residual above the threshold before
    ``max_iter``, whichever way the run ended, starts a correction cycle
    from u, with r - M u in place of s0 and the same engine, up to
    ``_CYCLES`` runs in all.  A :class:`NumericalError` is renamed
    ``<tag> at beta=...``.
    """
    try:
        run = _Run(engine.problem, u0, epsilon, max_iter, tag, engine.beta)
        if run.converged:
            return run.finish()
        nx = engine.problem.nx
        cols = sweep_columns(engine)  # (P - M)[:, nx:]
        for _ in range(_CYCLES):
            u, s = run.solution, run.fresh
            b = apply_inverse(engine, s)
            e = cols @ b[nx:]  # (P - M) b, the residual of the run's first iterate u + b
            if not run.add(math.sqrt(e @ e)) and run.iterations < run.max_iter:
                t = inner(run, engine, engine.offset(b))
                if t is not None:  # the correction of u(t)
                    b = apply_inverse(engine, cols @ (engine.lift(t) + b[nx:]) + s)
            run.confirm(u + b)
            if run.converged or run.iterations == run.max_iter:
                break
        return run.finish()
    except NumericalError as exc:
        raise NumericalError(f"{tag} at beta={engine.beta}: {exc}") from exc


def _sweep_blocks(run, engine, c):
    """ADMM's inner run: the sweeps t_k = CU t_{k-1} + c, in blocks; the t of its last iterate.

    The loop carries the differences d_k = t_k - t_{k-1} instead of t:
    d_1 = c and d_{k+1} = CU d_k, which cannot grow since ||CU|| <= 1.
    Iterate k + 1 records the estimate ||N d_k||, the norm of r - M u_{k+1},
    read as ||beta R_a d_Q||^2 + ||d_P||^2 through the nz x nz block of N
    (about 8 times fewer flops than N d at (nz, ny) = (50, 140)).  Sweeps
    run in blocks: one product with (beta R_a)' gives all of a block's
    residual images, and one record call takes its entries in order.  For
    the run's first ny sweeps or so one ny x ny gemv per sweep fills a
    block of ``_BLOCK`` differences.  The run then forms P = (CU')^_BLOCK
    once, by repeated squaring, fills the next block as [D P; D P^2], and
    each later one from the last as D <- D P^2, one gemm per 2 _BLOCK
    sweeps.  The five squarings cost as much as 0.3 to 1.2 ny gemv sweeps
    (ny = 20 to 700, one BLAS thread), and the cheaper blocks repay them
    within 0.5 to 2.3 ny further sweeps.  Switching once the gemv sweeps
    have cost about as much as the power is the rent-or-buy rule: a run of
    any length pays at most about twice what the better of the two routes
    would have cost it, and a run that ends before the switch sweeps by
    gemvs alone.  The power rounds apart from the chain: over 31 runs
    of 1400 to 5047 sweeps the estimates stayed within 3.2e-12 relative of
    an 80-bit chain (the gemv chain within 1.9e-13).

    The run ends at the cap or at the first estimate that meets the
    threshold, and :func:`_kernel_solve` confirms it.
    """
    # copies in the layouts BLAS reads fastest: at ny = 140 a gemv by a
    # column-major CU took 4.0 us against 5.1, and a block's product with a
    # row-major (CU')^16 12 us against 23 for the view (CU^16)'
    CU = np.asfortranarray(engine.CU)
    nz = engine.problem.nz
    RT = np.ascontiguousarray(engine.N[:nz, :nz].T)  # (beta R_a)'
    D = np.empty((_BLOCK, len(c)))  # D[j] = d_{k+j} for a block from iterate k + 1
    D[0] = c  # d_1
    E = np.empty((2 * _BLOCK, len(c)))  # E[j] = N d_{k+j}
    t = np.zeros(len(c))  # t_{k-1}, read by the block's first sweep
    power, start = None, run.iterations  # (CU')^(2 _BLOCK) once formed
    while True:
        p = min(len(D), run.max_iter - run.iterations)
        if power is None:
            for j in range(p - 1):
                np.dot(CU, D[j], out=D[j + 1])
        np.matmul(D[:p, :nz], RT, out=E[:p, :nz])
        E[:p, nz:] = D[:p, nz:]
        j = run.extend(np.sqrt(np.einsum("ij,ij->i", E[:p], E[:p])))
        if j is not None or run.iterations == run.max_iter:  # entry j, or the block's last
            return t + D[: p - 1 if j is None else j].sum(0)
        t += D[:p].sum(0)
        if power is not None:
            D = D @ power
        elif run.iterations - start >= len(c):
            power = np.linalg.matrix_power(CU.T, _BLOCK)
            D = D @ power
            D = np.vstack((D, D @ power))
            power = power @ power
        else:
            np.dot(CU, D[p - 1], out=D[0])  # a block that is not the last is full


def admm_solve(engine, u0=None, epsilon=1e-6, max_iter=100_000):
    """Run ADMM sweeps from the stacked ``u0`` (zeros by default).

    The loop stops once the residual meets the threshold of
    :class:`IterationTrace` at ``epsilon`` in (0, 1), or after ``max_iter``
    sweeps, an integer of at least 1.  At a fixed penalty ADMM is
    Douglas-Rachford splitting on the dual (Gabay 1983; Eckstein & Bertsekas
    1992), so after the start of :func:`_kernel_solve` the sweeps run on one
    ny-vector, the kernel coordinate of :class:`AdmmEngine`, in blocks
    (:func:`_sweep_blocks`): one gemv per sweep at first, and one gemm by
    CU^32 per block of 32 sweeps once a run has swept about ny times, as
    runs far from the balanced penalty do.
    """
    return _kernel_solve(engine, u0, epsilon, max_iter, "admm", _sweep_blocks)
