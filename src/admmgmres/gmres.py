"""Full (non-restarted) GMRES on one Arnoldi loop, and the ADMM-preconditioned solver.

:func:`gmres` runs the loop unweighted on an abstract linear operator from
a zero start; :func:`admm_gmres_solve` runs it on the ADMM iteration in the
ny-long kernel coordinate of :class:`admmgmres.precond.AdmmEngine`,
unweighted for the left side and weighted by N for the right.
"""

import functools
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


class _Arnoldi:
    """Full GMRES on ``apply(x) = rhs`` from x = 0, in the N'N seminorm for a ``weight`` N.

    Iterating runs up to ``steps`` Arnoldi steps and yields (k, |g_k|) after
    step k, the least-squares residual of x_k = ``solution(k)``.  Since
    rhs - apply(V_k y) = V_{k+1} (beta0 e_1 - Hbar_k y), the weighted x_k
    minimizes ||R_W (beta0 e_1 - Hbar_k y)|| for a QR of W = N V_{k+1}
    (Essai, Numer. Algorithms 18, 1998; Saad 2003, section 6.5).  R_W Hbar_k
    is upper Hessenberg with fixed earlier columns, so a step grows the QR
    by one column and rotates R_W h_j in place of the new column h_j, from
    beta0 R_W[0, 0] e_1; unweighted, R_W = I.  Both bases take two classical
    Gram-Schmidt passes per column ("twice is enough": Giraud, Langou &
    Rozloznik 2005).  A happy breakdown ends the loop after its step, as
    does a finite column whose norm overflows; a non-finite new vector or
    column entry raises :class:`NumericalError` naming the step.

    Norms are ``math.sqrt(w @ w)``, the bits of ``np.linalg.norm`` on
    contiguous vectors, and the Givens rotations run on a Python-float copy
    of the new column, written back once into ``H`` (``np.hypot`` is kept).
    They leave exact zeros below the diagonal, so R is solved in place by
    one LAPACK ``dtrtrs`` (2-4 us for k up to 50, against 10-27 us for the
    LU solve ``np.linalg.solve``), or by least squares if a diagonal entry
    is exactly zero.
    """

    def __init__(self, apply, rhs, steps, weight=None):
        self.beta0 = float(np.linalg.norm(rhs))
        if not math.isfinite(self.beta0):
            raise NumericalError("non-finite initial residual in GMRES")
        self.apply, self.steps, self.weight = apply, steps, weight
        self.V = np.zeros((len(rhs), steps + 1))
        self.H = np.zeros((steps + 1, steps))  # rotated in place: exact zeros below
        self.g, self.q, self.breakdown = [self.beta0], np.zeros(steps + 1), False
        self.q[0] = 1.0
        if self.beta0 > 0.0:
            self.V[:, 0] = rhs / self.beta0

    def coefficients(self, k):
        """y of the iterate x_k = V_k y after step k."""
        R, g = self.H[:k, :k], self.g[:k]
        y, info = dtrtrs(R, g)
        return np.linalg.lstsq(R, g, rcond=None)[0] if info > 0 else y  # info > 0: singular R

    def solution(self, k):
        """The iterate x_k after step k."""
        return self.V[:, :k] @ self.coefficients(k)

    def residual(self, k):
        """rhs - apply(x_k) = g_k V_{k+1} q_k just after step k, unweighted; q_k is the last
        row of the rotations, which take beta0 e_1 - Hbar_k y_k to g_k e_{k+1}."""
        return self.V[:, : k + 1] @ (self.g[k] * self.q[: k + 1])

    def __iter__(self):
        V, H, g, weight = self.V, self.H, self.g, self.weight
        if self.beta0 == 0.0:
            return
        cs, sn = [], []
        if weight is not None:  # W = N V_{k+1} = Qw Rw, one column per step
            Qw, Rw = np.zeros((len(weight), self.steps + 1)), np.zeros((self.steps + 1,) * 2)

            def grow(j):
                w = weight @ V[:, j]
                Rw[j, j] = norm = _orthogonalize(Qw[:, :j], w, Rw[:j, j])
                if norm > 0.0:
                    Qw[:, j] = w / norm

            grow(0)
            g[0] *= float(Rw[0, 0])
        for j in range(self.steps):
            w = self.apply(V[:, j])
            H[j + 1, j] = hnext = _orthogonalize(V[:, : j + 1], w, H[: j + 1, j])
            h = H[: j + 2, j].copy()
            hnorm = math.sqrt(h @ h)
            # a finite column whose norm overflows is a breakdown, not an error
            if not math.isfinite(hnorm) and not np.all(np.isfinite(h)):
                raise NumericalError(f"non-finite Arnoldi entries at iteration {j + 1}")

            # Happy breakdown: the new direction vanished relative to the column.
            if hnext > _BREAKDOWN_RTOL * hnorm:
                V[:, j + 1] = w / hnext
            else:
                self.breakdown = True
            if weight is not None:
                grow(j + 1)
                h = Rw[: j + 2, : j + 2] @ h

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
            self.q[: j + 1] *= -sj
            self.q[j + 1] = cj

            yield j + 1, abs(g[j + 1])
            if self.breakdown:
                return


def _orthogonalize(basis, w, coefficients):
    """||w|| after two Gram-Schmidt passes on ``basis``, projections added to ``coefficients``."""
    for _ in range(2):
        c = basis.T @ w
        coefficients += c
        w -= basis @ c
    return math.sqrt(w @ w)


def gmres(op, rhs, tol=1e-8, max_iter=None, callback=None):
    """Full GMRES on ``op @ x = rhs`` from the zero start: the unweighted :class:`_Arnoldi`.

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
    """
    n = op.dim
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (n,):
        raise ValueError(f"rhs must have length {n}, got shape {rhs.shape}")
    krylov = _Arnoldi(op, rhs, n if max_iter is None else min(check_max_iter(max_iter), n))
    if krylov.beta0 == 0.0:
        return GmresResult(np.zeros(n), np.array([0.0]), 0, False)
    inner, k = [krylov.beta0], 0
    for k, res in krylov:
        inner.append(res)
        stop = res <= tol * krylov.beta0
        if callback is not None:
            stop = bool(callback(k, krylov.coefficients(k), krylov.V[:, :k])) or stop
        if stop:
            break
    return GmresResult(krylov.solution(k), np.asarray(inner), k, krylov.breakdown)


def _kernel_run(run, engine, c, iterate, side):
    """One GMRES run on (I - CU) t = c from t = 0; the last iterate's t, or None if c = 0.

    Both sides run :class:`_Arnoldi` on v -> v - CU v, the left unweighted
    and the right weighted by N, and record the same estimate: the true
    residual norm ||N (c - (I - CU) t)|| = ||W (beta e_1 - Hbar_k y)|| of
    t = V_k y, for W = N V_{k+1}.  It is the right loop's own residual; the
    left maps its residual through N, one mat-vec per step.  The run ends
    after min(ny, iterates left) steps, at a confirmed iterate that meets
    the threshold, or when the loop's residual vanishes.
    """
    CU, N = engine.CU, engine.N
    krylov = _Arnoldi(lambda v: v - CU @ v, c, min(len(c), run.max_iter - run.iterations),
                      N if side == "right" else None)
    k = 0
    for k, res in krylov:
        estimate = res
        if side == "left":
            e = N @ krylov.residual(k)
            estimate = math.sqrt(e @ e)
        if (run.add(estimate) and run.confirm(iterate(krylov.solution(k)))) or res == 0.0:
            break
    return krylov.solution(k) if k else None


def admm_gmres_solve(problem, beta, side, u0=None, epsilon=1e-6, max_iter=None):
    """GMRES on the ADMM iteration, in the ny-long coordinate of the paper's bounds.

    ``side`` is ``"left"`` or ``"right"``.  ``u0``, ``epsilon`` and
    ``max_iter`` are checked as in :func:`admmgmres.admm.admm_solve`;
    ``max_iter`` counts every recorded iterate, and None means the
    dimension.  The trace is the record of
    :class:`~admmgmres.admm.IterationTrace`, and a non-finite value in the
    Arnoldi loop raises in the same way.

    The solve is that of :func:`~admmgmres.admm.admm_solve`, with one full
    GMRES run on the ny x ny system (I - CU) t = c (:func:`_kernel_run`) in
    place of its sweeps; the k-step iterate of a run is its iterate k + 1,
    and no step applies P^{-1} or M.  ``side`` picks only the norm.  The
    left side minimizes ||c - (I - CU) t||, the kernel image of ADMM's own
    step.  The right side, the same loop weighted by N, minimizes the true
    residual ||r - M u(t)||; K_k(CU, c) holds ADMM's t_{k-1}, so at every
    index its residual is at or below the sweep's, up to roundoff.

    A run that ends above the threshold is followed by the shared
    correction cycles.  Over 400 random problems per span (shapes up to 12,
    beta log-uniform over [m / span, span * ell], eps = 1e-6) every run of
    either side converged without a cycle at span 1e2, 1e4 and 1e6, in
    1826/1822, 1779/1769 and 1751/1727 steps (left/right).  At dimension
    390 (ny = 140; 32 problems at m / 100, sqrt(m ell) and 100 ell each)
    every run converged, 5 per side with a cycle, at 100 ell and kappa of at
    least 1.3e7.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return _kernel_solve(make_engine(problem, beta), u0, epsilon,
                         problem.dim if max_iter is None else max_iter,
                         f"admm-gmres-{side}", functools.partial(_kernel_run, side=side))
