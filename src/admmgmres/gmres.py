"""Full (non-restarted) GMRES and the two ADMM-preconditioned drivers.

``gmres`` works on an abstract linear operator from a zero start.  Its
Arnoldi step orthogonalizes each new Krylov vector by two passes of
classical Gram-Schmidt (CGS2: two projections onto the whole basis, which
keep the basis orthogonal to working precision) and updates the
least-squares problem with Givens rotations.  ``admm_gmres_solve`` wraps it
for the saddle-point system: from the residual s0 = r - M u0 of the start
u0 it solves for a correction d with the ADMM preconditioner on the right
(M P^{-1} d = s0, u = u0 + P^{-1} d) or on the left
(P^{-1} M d = P^{-1} s0, u = u0 + d).  Either way the returned trace
records the true KKT residual of the recovered iterate at every iteration.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .admm import IterationTrace, convergence_threshold, make_engine
from .core import NumericalError, kkt_matvec
from .precond import apply_inverse

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
    max_iter : cap on iterations; clamped to ``op.dim`` since full GMRES
        terminates exactly by then.
    callback : optional ``callback(k, x_k) -> bool``; called after every
        iteration with the current iterate x_k of this system (a correction
        when the caller solves for one), may return True to request an
        early stop (used for true-residual monitoring).

    Each Arnoldi step orthogonalizes the new vector with two classical
    Gram-Schmidt passes (Giraud, Langou & Rozloznik 2005: "twice is
    enough").  Happy breakdown counts as success.  Non-finite values raise
    :class:`NumericalError`.
    """
    n = op.dim
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (n,):
        raise ValueError(f"rhs must have length {n}, got shape {rhs.shape}")
    m = n if max_iter is None else max(1, min(int(max_iter), n))

    beta0 = np.linalg.norm(rhs)
    if not np.isfinite(beta0):
        raise NumericalError("non-finite initial residual in GMRES")
    if beta0 == 0.0:
        return GmresResult(np.zeros(n), np.array([0.0]), 0, False)

    V = np.zeros((n, m + 1))
    H = np.zeros((m + 1, m))
    cs = np.zeros(m)
    sn = np.zeros(m)
    g = np.zeros(m + 1)
    V[:, 0] = rhs / beta0
    g[0] = beta0
    inner = [beta0]

    def reconstruct(k):
        R = np.triu(H[:k, :k])
        try:
            y = np.linalg.solve(R, g[:k])
        except np.linalg.LinAlgError:
            y = np.linalg.lstsq(R, g[:k], rcond=None)[0]
        return V[:, :k] @ y

    breakdown = False
    k = 0
    for j in range(m):
        w = op(V[:, j])
        # Classical Gram-Schmidt, twice ("twice is enough").
        for _ in range(2):
            c = V[:, : j + 1].T @ w
            H[: j + 1, j] += c
            w -= V[:, : j + 1] @ c
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
    """GMRES on the ADMM-preconditioned KKT system, solved for a correction.

    Both sides start from ``u0`` (zero by default) and its residual
    s0 = r - M u0, which also sets the convergence threshold.  The right
    side solves M P^{-1} d = s0 and recovers u = u0 + P^{-1} d; the left
    side solves P^{-1} M d = P^{-1} s0 and recovers u = u0 + d.  The
    returned :class:`IterationTrace` holds the true KKT residual
    ||M u_k - r|| of the recovered iterate at every GMRES iteration, and
    that test alone stops the loop (the inner tolerance is zero), with the
    same threshold as :func:`admmgmres.admm.admm_solve`.

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
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")

    engine = make_engine(problem, beta)
    u0 = problem.zero_iterate() if u0 is None else u0
    u0_vec = u0.vector()
    r = problem.rhs()

    s0 = r - kkt_matvec(problem, u0_vec)
    residuals = [float(np.linalg.norm(s0))]
    threshold = convergence_threshold(residuals[0], epsilon, float(np.linalg.norm(r)))

    if side == "left":
        op = LinearOperator(problem.dim, lambda v: apply_inverse(engine, kkt_matvec(problem, v)))
        rhs = apply_inverse(engine, s0)
    else:
        op = LinearOperator(problem.dim, lambda v: kkt_matvec(problem, apply_inverse(engine, v)))
        rhs = s0

    def monitor(k, dk):
        u = u0_vec + (dk if side == "left" else apply_inverse(engine, dk))
        res = float(np.linalg.norm(kkt_matvec(problem, u) - r))
        if not np.isfinite(res):
            raise NumericalError(
                f"non-finite KKT residual at GMRES iteration {k}; "
                f"last finite iteration was {k - 1}"
            )
        residuals.append(res)
        return res <= threshold

    iterations = 0
    if residuals[0] > threshold:
        iterations = gmres(op, rhs, tol=0.0, max_iter=max_iter, callback=monitor).iterations
    return IterationTrace(
        residuals=np.asarray(residuals),
        iterations=iterations,
        converged=bool(residuals[-1] <= threshold),
        epsilon=epsilon,
        method_tag=f"admm-gmres-{side}",
        beta=engine.beta,
    )
