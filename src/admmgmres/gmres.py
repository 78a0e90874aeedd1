"""Full (non-restarted) GMRES and the ADMM-preconditioned solver.

:func:`gmres` works on an abstract linear operator from a zero start;
:func:`admm_gmres_solve` runs it on the ADMM iteration in the ny-long
kernel coordinate of :func:`admmgmres.precond.kernel_sweep`.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .admm import _kernel_solve
from .core import NumericalError, check_max_iter
from .precond import make_engine

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


def _triangular_solve(R, g):
    """y with R y = g for upper triangular R, by least squares if R is singular."""
    y, info = dtrtrs(R, g)
    if info > 0:  # an exactly zero diagonal entry: R is singular
        return np.linalg.lstsq(R, g, rcond=None)[0]
    return y


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
        return _triangular_solve(H[:k, :k], g[:k])

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


def _kernel_run(run, kernel, c, iterate, side):
    """One GMRES run on (I - CU) t = c from t = 0; the last iterate's t, or None.

    ``kernel.step`` is [CU; N (CU - I)], so one mat-vec gives the Arnoldi
    image of v_j and the residual image z_j = N (CU - I) v_j that step j
    keeps.  The iterate t = V_k y then has the true residual norm
    ||N (c - (I - CU) t)|| = ||N c + Z_k y||, which is recorded.  The left
    side takes y from GMRES's own least-squares problem; the right side
    minimizes ||N c + Z_k y|| through a QR of Z_k that grows by one column
    per step, orthogonalized by two classical Gram-Schmidt passes.  None
    means c = 0, so the run took no step.
    """
    ny = len(c)
    f = kernel.N @ c  # N rho(0)
    cap = min(ny, run.max_iter - run.iterations)
    Z = np.empty((len(f), cap))  # Z[:, j] = z_j, in call order
    Q, R, h = np.zeros_like(Z), np.zeros((cap, cap)), np.zeros(cap)  # Z_k = Q_k R_k; h = -Q'f
    calls = itertools.count()
    last = None

    def image(v):
        w = kernel.step @ v  # [CU v; N (CU - I) v]
        Z[:, next(calls)] = w[ny:]
        return v - w[:ny]

    def right_coefficients(k):
        j = k - 1
        z = Z[:, j].copy()
        for _ in range(2):
            d = Q[:, :j].T @ z
            R[:j, j] += d
            z -= Q[:, :j] @ d
        R[j, j] = norm = math.sqrt(z @ z)
        if norm > 0.0:
            Q[:, j] = z / norm
            h[j] = -(Q[:, j] @ f)
        return _triangular_solve(R[:k, :k], h[:k])

    def monitor(k, y, basis):
        nonlocal last
        if side == "right":
            y = right_coefficients(k)
        last = basis @ y
        return run.add(f + Z[:, :k] @ y) and run.confirm(iterate(last))

    gmres(LinearOperator(ny, image), c, tol=0.0, max_iter=cap, callback=monitor)
    return last


def admm_gmres_solve(problem, beta, side, u0=None, epsilon=1e-6, max_iter=None):
    """GMRES on the ADMM iteration, in the ny-long coordinate of the paper's bounds.

    ``side`` is ``"left"`` or ``"right"``.  ``u0``, ``epsilon`` and
    ``max_iter`` are checked as in :func:`admmgmres.admm.admm_solve`;
    ``max_iter`` counts every recorded iterate, and None means the
    dimension.  The trace is the record of
    :class:`~admmgmres.admm.IterationTrace`, and a non-finite value inside
    :func:`gmres` raises in the same way.

    The solve is that of :func:`~admmgmres.admm.admm_solve`, with one full
    GMRES run on the ny x ny system (I - CU) t = c of the ADMM recurrence
    (:func:`_kernel_run`) in place of its sweeps; the k-step iterate of the
    first run is iterate k + 1, and no step applies P^{-1} or M.

    ``side`` picks only the least-squares norm.  The left side minimizes
    ||c - (I - CU) t||, the kernel image of ADMM's own step.  The right side
    minimizes the true residual ||r - M u(t)||; its Krylov space K_k(CU, c)
    holds ADMM's t_{k-1}, so at every index its residual is at or below the
    sweep's, up to roundoff.

    A Krylov run ends after min(ny, iterates left) steps, in a happy
    breakdown, or when its inner residual underflows to 0; if it ends above
    the threshold, the shared correction cycles follow.  Over 400 random
    problems per span (shapes up to 12, beta log-uniform over
    [m / span, span * ell], eps = 1e-6) no run of either side ended unconverged at span 1e2, 1e4 or
    1e6, and none needed a second cycle; left and right took 1826/1822,
    1779/1769 and 1751/1727 steps in all.  Over 96 problems of dimension
    390 (ny = 140, beta at m / 100, sqrt(m ell) and 100 ell) each side
    converged on every run, 5 of them with a second cycle, all at 100 ell
    and kappa of at least 1.3e7.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return _kernel_solve(make_engine(problem, beta), u0, epsilon,
                         problem.dim if max_iter is None else max_iter,
                         f"admm-gmres-{side}", functools.partial(_kernel_run, side=side))
