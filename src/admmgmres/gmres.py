"""Full (non-restarted) GMRES and the two ADMM-preconditioned drivers.

:func:`gmres` works on an abstract linear operator from a zero start;
:func:`admm_gmres_solve` runs it on the KKT system with the preconditioner
of :mod:`admmgmres.precond` on either side.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .admm import _naming, _Run
from .core import NumericalError, check_max_iter, kkt_matvec
from .precond import apply_inverse, make_engine

__all__ = ["LinearOperator", "GmresResult", "gmres", "admm_gmres_solve"]

# A new Arnoldi direction below this fraction of its column is a happy breakdown.
_BREAKDOWN_RTOL = float(100.0 * np.finfo(float).eps)


@dataclass
class LinearOperator:
    """A square operator given by its dimension and a matvec callable."""

    dim: int
    apply: Callable

    def __call__(self, v):
        return self.apply(v)


@dataclass
class GmresResult:
    """Solution plus the per-iteration residual norms of the solved system.

    ``inner_residuals[k]`` is the residual of the system actually handed to
    GMRES after k iterations (index 0 is the starting residual); it is
    non-increasing by the minimal-residual property.  ``breakdown`` marks a
    happy breakdown: the Krylov space became invariant, so the iterate is
    the best it holds (the exact solution when the operator is nonsingular).
    """

    solution: np.ndarray
    inner_residuals: np.ndarray
    iterations: int
    breakdown: bool


def gmres(op, rhs, tol=1e-8, max_iter=None, callback=None):
    """Full GMRES on ``op @ x = rhs`` from the zero start.

    Parameters
    ----------
    op : LinearOperator (or anything with ``dim`` and vector call).
    rhs : right-hand side, which is also the starting residual.  To start
        from some x0, solve for the correction: pass ``rhs - op(x0)`` and
        add x0 to the solution.
    tol : stop when the relative residual of the handed system drops below
        this value; 0 leaves the stop to ``callback`` and ``max_iter``.
    max_iter : cap on iterations, an integer of at least 1 (None: ``op.dim``);
        clamped to ``op.dim`` since full GMRES terminates exactly by then.
    callback : optional ``callback(k, y, basis) -> bool``; called after
        every iteration with the least-squares coefficients ``y`` (length k)
        of the current iterate x_k = basis @ y of this system (a correction
        when the caller solves for one), where ``basis`` is the (dim, k)
        Krylov basis; may return True to request an early stop (used for
        true-residual monitoring).

    Each Arnoldi step orthogonalizes the new vector with two classical
    Gram-Schmidt passes, which keep the basis orthogonal to working
    precision (Giraud, Langou & Rozloznik 2005: "twice is enough"), and
    updates the least-squares problem with Givens rotations.  A happy
    breakdown stops the run; so does a finite column whose norm overflows.
    A non-finite new vector or column entry raises :class:`NumericalError`
    naming the step.

    Past the operator and the BLAS calls a step does little: its norms are
    ``math.sqrt(w @ w)``, the bits of ``np.linalg.norm`` on the contiguous
    vectors operators return, and the Givens rotations run on a Python-float
    copy of the new column, which is written back once (Python floats and
    numpy scalars round the same IEEE operations alike, and ``np.hypot`` is
    kept).  The rotations leave exact zeros below the diagonal, so R is read
    in place and solved by one LAPACK ``dtrtrs`` call, falling back to a
    least-squares solve when a diagonal entry is exactly zero.  On every
    solve of the benchmark's ``sweep`` and ``large`` workloads (seeds 1234
    and 99) and of the extreme-penalty study of :func:`admm_gmres_solve`
    its bits equal those of the LU solve ``np.linalg.solve``, which takes
    10-27 us per call for k up to 50 where ``dtrtrs`` takes 2-4 us (one
    BLAS thread).
    """
    n = op.dim
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (n,):
        raise ValueError(f"rhs must have length {n}, got shape {rhs.shape}")
    m = n if max_iter is None else min(check_max_iter(max_iter), n)

    beta0 = float(np.linalg.norm(rhs))
    if not math.isfinite(beta0):
        raise NumericalError("non-finite initial residual in GMRES")
    if beta0 == 0.0:
        return GmresResult(np.zeros(n), np.array([0.0]), 0, False)

    V = np.zeros((n, m + 1))
    H = np.zeros((m + 1, m))  # rotated in place: upper triangular, exact zeros below
    cs, sn, g = [], [], [beta0]
    V[:, 0] = rhs / beta0
    inner = [beta0]

    def coefficients(k):
        R = H[:k, :k]
        y, info = dtrtrs(R, g[:k])
        if info > 0:  # an exactly zero diagonal entry: R is singular
            return np.linalg.lstsq(R, g[:k], rcond=None)[0]
        return y

    breakdown = False
    k = 0
    for j in range(m):
        basis = V[:, : j + 1]
        w = op(V[:, j])
        # Classical Gram-Schmidt, twice ("twice is enough").
        for _ in range(2):
            c = basis.T @ w
            H[: j + 1, j] += c
            w -= basis @ c
        hnext = math.sqrt(w @ w)
        H[j + 1, j] = hnext
        h = H[: j + 2, j].copy()
        hnorm = math.sqrt(h @ h)
        # a finite column whose norm overflows is a breakdown, not an error
        if not math.isfinite(hnorm) and not np.all(np.isfinite(h)):
            raise NumericalError(f"non-finite Arnoldi entries at iteration {j + 1}")

        # Happy breakdown: the new direction vanished relative to the column.
        if hnext > _BREAKDOWN_RTOL * hnorm:
            V[:, j + 1] = w / hnext
        else:
            breakdown = True

        col = h.tolist()
        for i in range(j):
            ci, si = cs[i], sn[i]
            hi = ci * col[i] + si * col[i + 1]
            col[i + 1] = -si * col[i] + ci * col[i + 1]
            col[i] = hi
        denom = float(np.hypot(col[j], col[j + 1]))
        # a vanished column rotates by (0, 1), so that |g_j| stays the residual
        cj, sj = (0.0, 1.0) if denom == 0.0 else (col[j] / denom, col[j + 1] / denom)
        cs.append(cj)
        sn.append(sj)
        col[j] = cj * col[j] + sj * col[j + 1]
        col[j + 1] = 0.0
        H[: j + 2, j] = col
        g.append(-sj * g[j])
        g[j] = cj * g[j]

        k = j + 1
        inner.append(abs(g[k]))
        stop = inner[-1] <= tol * beta0 or breakdown
        if callback is not None:
            stop = bool(callback(k, coefficients(k), V[:, :k])) or stop
        if stop:
            break

    x = V[:, :k] @ coefficients(k)
    return GmresResult(x, np.asarray(inner), k, breakdown)


def admm_gmres_solve(problem, beta, side, u0=None, epsilon=1e-6, max_iter=None):
    """GMRES on the ADMM-preconditioned KKT system, solved for a correction.

    From the stacked start ``u0`` (zeros by default) and its residual
    s0 = r - M u0, the right side solves M P^{-1} d = s0 and recovers
    u = u0 + P^{-1} d; the left side solves P^{-1} M d = P^{-1} s0 and
    recovers u = u0 + d.  ``u0``, ``epsilon`` and ``max_iter`` (None means
    the dimension, where full GMRES ends) are checked as in
    :func:`admmgmres.admm.admm_solve`, and the trace is the record of
    :class:`~admmgmres.admm.IterationTrace`; a non-finite value inside
    :func:`gmres` raises in the same way.

    Each Arnoldi step keeps the product its operator already forms, the
    image w_j = M P^{-1} v_j on the right and w_j = M v_j on the left, so
    the recorded estimate for the iterate with coefficients y_k is
    r - M u_k = s0 - W_k y_k (Paige, Rozloznik & Strakos 2006), one mat-vec
    per step.  GMRES's own tolerance is zero, so only the record stops the
    loop.  The images take dim * min(max_iter, dim) doubles beside GMRES's
    basis of the same size, so at most 2 dim^2 doubles (2.4 MB at
    dimension 390).

    On the right side the true residual is the one GMRES minimizes over a
    Krylov space that holds the plain ADMM iterate, so it stays at or
    below the sweep's residual up to roundoff that grows with kappa(P).
    The left side minimizes the preconditioned residual, which can run
    ahead of the true one by up to kappa(P).  At extreme penalties the
    left side is the more robust one.  Over 400 random problems per span
    (shapes up to 12, beta log-uniform over [m / span, span * ell],
    eps = 1e-6) left and right failed to converge 0 and 0 times at span
    1e2, 0 and 1 at 1e4, and 4 and 60 at 1e6; at 1e4 one right run that
    converged trailed ADMM by 4.8e-3 ||r||, with kappa(P) = 1.9e10.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    engine = make_engine(problem, beta)
    tag = f"admm-gmres-{side}"
    with _naming(tag, engine.beta):
        run = _Run(problem, u0, epsilon, problem.dim if max_iter is None else max_iter,
                   tag, engine.beta)
        if run.converged:
            return run.finish(None)

        dim = problem.dim
        W = np.empty((dim, min(run.max_iter, dim)))  # W[:, j] = w_j, in call order
        calls = itertools.count()

        def keep(image):
            W[:, next(calls)] = image
            return image

        if side == "left":
            op = LinearOperator(dim, lambda v: apply_inverse(engine, keep(kkt_matvec(problem, v))))
            rhs, recover = apply_inverse(engine, run.s0), lambda d: d
        else:
            op = LinearOperator(dim, lambda v: keep(kkt_matvec(problem, apply_inverse(engine, v))))
            rhs, recover = run.s0, lambda d: apply_inverse(engine, d)

        def monitor(k, y, basis):
            return run.add(run.s0 - W[:, :k] @ y) and run.confirm(run.u0 + recover(basis @ y))

        result = gmres(op, rhs, tol=0.0, max_iter=run.max_iter, callback=monitor)
        return run.finish(lambda: run.u0 + recover(result.solution))
