"""Full (non-restarted) GMRES and the two ADMM-preconditioned drivers.

``gmres`` works on an abstract linear operator and uses Arnoldi with
modified Gram-Schmidt plus one reorthogonalization pass, updating the
least-squares problem with Givens rotations.  ``admm_gmres_solve`` wraps it
for the saddle-point system, applying the ADMM preconditioner on the left
(solving P^{-1} M u = P^{-1} r) or on the right (solving M P^{-1} w = r and
recovering u = P^{-1} w).  Either way the returned trace records the true
KKT residual of the reconstructed iterate at every iteration.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .admm import IterationTrace, convergence_threshold, make_engine
from .core import NumericalError, kkt_matvec, kkt_residual
from .precond import apply_forward, apply_inverse

__all__ = ["LinearOperator", "GmresResult", "gmres", "admm_gmres_solve"]


@dataclass
class LinearOperator:
    """A square operator given by its dimension and a matvec callable."""

    dim: int
    apply: Callable

    @classmethod
    def from_matrix(cls, M):
        M = np.asarray(M, dtype=float)
        return cls(M.shape[0], lambda v: M @ v)

    def __call__(self, v):
        return self.apply(v)


@dataclass
class GmresResult:
    """Solution plus the per-iteration residual norms of the solved system.

    ``inner_residuals[k]`` is the residual of the system actually handed to
    GMRES after k iterations (index 0 is the starting residual); it is
    non-increasing by the minimal-residual property.  ``breakdown`` marks a
    happy breakdown, i.e. the exact solution was found inside the Krylov
    space.
    """

    solution: np.ndarray
    inner_residuals: np.ndarray
    iterations: int
    breakdown: bool


def gmres(op, rhs, x0=None, tol=1e-8, max_iter=None, callback=None):
    """Full GMRES on ``op @ x = rhs``.

    Parameters
    ----------
    op : LinearOperator (or anything with ``dim`` and vector call).
    rhs, x0 : right-hand side and starting point (x0 defaults to zero).
    tol : stop when the relative residual of the handed system drops below
        this value.
    max_iter : cap on iterations; clamped to ``op.dim`` since full GMRES
        terminates exactly by then.
    callback : optional ``callback(k, x_k) -> bool``; called with the
        reconstructed iterate after every iteration, may return True to
        request an early stop (used for true-residual monitoring).

    Happy breakdown counts as success.  Non-finite values raise
    :class:`NumericalError`.
    """
    n = op.dim
    rhs = np.asarray(rhs, dtype=float)
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    if rhs.shape != (n,) or x0.shape != (n,):
        raise ValueError(f"rhs and x0 must have length {n}")
    m = n if max_iter is None else max(1, min(int(max_iter), n))

    r0 = rhs - op(x0)
    beta0 = np.linalg.norm(r0)
    if not np.isfinite(beta0):
        raise NumericalError("non-finite initial residual in GMRES")
    if beta0 == 0.0:
        return GmresResult(x0.copy(), np.array([0.0]), 0, False)

    V = np.zeros((n, m + 1))
    H = np.zeros((m + 1, m))
    cs = np.zeros(m)
    sn = np.zeros(m)
    g = np.zeros(m + 1)
    V[:, 0] = r0 / beta0
    g[0] = beta0
    inner = [beta0]

    def reconstruct(k):
        R = np.triu(H[:k, :k])
        try:
            y = np.linalg.solve(R, g[:k])
        except np.linalg.LinAlgError:
            y = np.linalg.lstsq(R, g[:k], rcond=None)[0]
        return x0 + V[:, :k] @ y

    breakdown = False
    k = 0
    for j in range(m):
        w = op(V[:, j])
        # Modified Gram-Schmidt, then one unconditional reorthogonalization.
        for i in range(j + 1):
            H[i, j] = V[:, i] @ w
            w -= H[i, j] * V[:, i]
        for i in range(j + 1):
            c = V[:, i] @ w
            H[i, j] += c
            w -= c * V[:, i]
        hnext = np.linalg.norm(w)
        if not np.isfinite(hnext) or not np.all(np.isfinite(H[: j + 2, j])):
            raise NumericalError(f"non-finite Arnoldi entries at iteration {j + 1}")
        H[j + 1, j] = hnext

        # Happy breakdown: the new direction vanished relative to the column.
        if hnext > 100.0 * np.finfo(float).eps * np.linalg.norm(H[: j + 2, j]):
            V[:, j + 1] = w / hnext
        else:
            breakdown = True

        for i in range(j):
            hi = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
            H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
            H[i, j] = hi
        denom = np.hypot(H[j, j], H[j + 1, j])
        if denom == 0.0:
            cs[j], sn[j] = 1.0, 0.0
        else:
            cs[j], sn[j] = H[j, j] / denom, H[j + 1, j] / denom
        H[j, j] = cs[j] * H[j, j] + sn[j] * H[j + 1, j]
        H[j + 1, j] = 0.0
        g[j + 1] = -sn[j] * g[j]
        g[j] = cs[j] * g[j]

        k = j + 1
        inner.append(abs(g[k]))
        stop = inner[-1] <= tol * beta0 or breakdown
        if callback is not None:
            stop = bool(callback(k, reconstruct(k))) or stop
        if stop:
            break

    x = reconstruct(k)
    return GmresResult(x, np.asarray(inner), k, breakdown)


def admm_gmres_solve(problem, beta, side, u0=None, epsilon=1e-6, max_iter=None):
    """GMRES on the ADMM-preconditioned KKT system.

    ``side`` selects the left-preconditioned system (P^{-1} M u = P^{-1} r)
    or the right-preconditioned one (M P^{-1} w = r, u = P^{-1} w).  The
    returned :class:`IterationTrace` holds the true KKT residual of the
    reconstructed iterate at every GMRES iteration, and convergence is the
    same relative-residual test as in :func:`admmgmres.admm.admm_solve`.

    On the right side the inner residual is the true residual, so the
    inner tolerance epsilon / 10 is a plain backstop below the primary
    test.  On the left side the inner residual is measured in the
    preconditioned metric, which can run ahead of the true one by up to
    the preconditioner's condition number; there the loop relies on the
    true-residual test alone and otherwise runs to exact Krylov
    termination.  Prefer the right side at extreme penalties.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")

    engine = make_engine(problem, beta)
    u0 = problem.zero_iterate() if u0 is None else u0
    u0_vec = u0.vector()
    r = problem.rhs()
    rhs_norm = float(np.linalg.norm(r))

    res0 = kkt_residual(problem, u0)
    threshold = convergence_threshold(res0, epsilon, rhs_norm)
    tag = f"admm-gmres-{side}"
    if res0 <= threshold:
        return IterationTrace(
            residuals=np.array([res0]),
            iterations=0,
            converged=True,
            epsilon=epsilon,
            method_tag=tag,
            beta=engine.beta,
        )

    residuals = [res0]

    if side == "left":
        op = LinearOperator(problem.dim, lambda v: apply_inverse(engine, kkt_matvec(problem, v)))
        rhs = apply_inverse(engine, r)
        start = u0_vec

        def to_iterate(vec):
            return vec

    else:
        op = LinearOperator(problem.dim, lambda v: kkt_matvec(problem, apply_inverse(engine, v)))
        rhs = r
        start = apply_forward(engine, u0_vec)

        def to_iterate(vec):
            return apply_inverse(engine, vec)

    def monitor(k, xk):
        res = float(np.linalg.norm(kkt_matvec(problem, to_iterate(xk)) - r))
        if not np.isfinite(res):
            raise NumericalError(
                f"non-finite KKT residual at GMRES iteration {k}; "
                f"last finite iteration was {k - 1}"
            )
        residuals.append(res)
        return res <= threshold

    # Left side: the preconditioned residual says nothing reliable about the
    # true one, so never stop on it.
    inner_tol = epsilon / 10.0 if side == "right" else 0.0
    result = gmres(
        op,
        rhs,
        x0=start,
        tol=inner_tol,
        max_iter=max_iter,
        callback=monitor,
    )
    return IterationTrace(
        residuals=np.asarray(residuals),
        iterations=result.iterations,
        converged=bool(residuals[-1] <= threshold),
        epsilon=epsilon,
        method_tag=tag,
        beta=engine.beta,
    )
