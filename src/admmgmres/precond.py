"""The ADMM preconditioner P(beta): the one affine map behind every solver.

At a fixed penalty the three ADMM update steps (local solve, global solve,
multiplier update) are linear, so ADMM is the fixed-point iteration
u -> G u + b with G = I - P^{-1} M = P^{-1} (P - M), and one sweep is
exactly u + P^{-1} (r - M u).  :func:`make_engine` factors P(beta) once per
(problem, beta) pair, and :func:`apply_inverse` is the only code that
applies P^{-1}.  P - M is zero in the x columns, so G is too and a sweep
reads only the z and y parts of u; :func:`sweep_columns` builds the other
columns of P - M from the blocks.

P(beta) factors as a unit upper-triangular augmentation times the block
lower-triangular sweep operator,

    P = [I  0  -beta A']   [D + beta A'A      0          0    ]
        [0  I  -beta B'] * [beta B'A      beta B'B       0    ]
        [0  0      I   ]   [A                 B      -(1/beta) I]

so applying P^{-1} is one augmentation plus one forward sweep, from the
two Cholesky factors and without assembling P.  Each factor solve is one
direct LAPACK ``dpotrs`` call, the routine ``scipy.linalg.cho_solve`` wraps,
so the bits are the same without the wrapper's finiteness scan and
array-API layers: with one right-hand side ``cho_solve`` takes 20-26 us
where ``dpotrs`` takes 2-6 us, for factors of order 10 to 60.  Explicit
assembly of P is provided for verification only and is guarded to small
dimensions.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrs

from .core import NumericalError, assemble_kkt, check_beta, stacked_parts

__all__ = ["AdmmEngine", "make_engine", "apply_inverse", "assemble_precond", "sweep_columns"]

_DENSE_GUARD = 400


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


def make_engine(problem, beta):
    """Factor the two sub-solve operators for a fixed beta > 0."""
    beta = check_beta(beta)
    A, B = problem.A, problem.B
    factors = []
    for failure, block in ((f"local block D + beta A'A failed at beta={beta}",
                            problem.D + beta * (A.T @ A)),
                           ("global block B'B failed", B.T @ B)):
        try:
            factors.append(np.asfortranarray(np.linalg.cholesky(block)))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Cholesky factorization of the {failure}") from exc
    return AdmmEngine(problem, beta, *factors)


def apply_inverse(engine, v):
    """Compute P(beta)^{-1} v factor by factor; ``v`` may be a (dim, k) block.

    First the augmentation factor is inverted (adds +beta A' v3 to the x
    block and +beta B' v3 to the z block), then the block lower factor is
    forward-solved with the engine's factorizations, each by one ``dpotrs``.
    Only the length of ``v`` is checked: a NaN or inf in it propagates into
    the result instead of raising, and the solvers' residual checks report it.
    """
    p, beta = engine.problem, engine.beta
    A, B = p.A, p.B
    v1, v2, v3 = stacked_parts(p, v, block=True)

    w1 = v1 + beta * (A.T @ v3)
    w2 = v2 + beta * (B.T @ v3)

    x = dpotrs(engine.local_factor, w1, lower=1)[0]
    Ax = A @ x
    z = dpotrs(engine.global_factor, w2 / beta - B.T @ Ax, lower=1)[0]
    y = beta * (Ax + B @ z - v3)
    return np.concatenate([x, z, y])


def sweep_columns(engine):
    """The z and y columns (P - M)[:, nx:] of P(beta) - M, built from the blocks.

    Only two blocks are nonzero: -beta A'B in the x rows of the z columns
    and -(1/beta) I in the y rows of the y columns.  :func:`assemble_precond`
    places these two blocks, so the result equals the assembled difference
    bit for bit.  Nothing dim x dim is formed, so no dimension guard applies.
    """
    p, beta = engine.problem, engine.beta
    nx, nz = p.nx, p.nz
    cols = np.zeros((p.dim, nz + p.ny))
    cols[:nx, :nz] = -beta * (p.A.T @ p.B)
    cols[nx + nz :, nz:] = -(1.0 / beta) * np.eye(p.ny)
    return cols


def check_dense(problem):
    """Refuse explicit dense constructions above total dimension 400."""
    if problem.dim > _DENSE_GUARD:
        raise ValueError(
            f"explicit dense constructions are limited to total dimension "
            f"{_DENSE_GUARD}, got {problem.dim}"
        )


def assemble_precond(engine):
    """Explicit dense P(beta), refused above total dimension 400.

    P is M with the two nonzero blocks of :func:`sweep_columns` in place of
    the zero blocks they fill.
    """
    p = engine.problem
    check_dense(p)
    nx, iy = p.nx, p.nx + p.nz  # iy: first y row and column
    P, cols = assemble_kkt(p), sweep_columns(engine)
    P[:nx, nx:iy] = cols[:nx, : p.nz]
    P[iy:, iy:] = cols[iy:, p.nz :]
    return P
