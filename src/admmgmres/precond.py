"""The ADMM preconditioner P(beta): the one affine map behind every solver.

At a fixed penalty ADMM is the fixed-point iteration u -> G u + b with
G = I - P^{-1} M = P^{-1} (P - M), so one sweep is exactly u + P^{-1} (r - M u).
:func:`apply_inverse` is the only code that applies P^{-1}: the ADMM sweep,
both GMRES variants and the spectral module's explicit G all go through it.
Every function here takes an :class:`~admmgmres.admm.AdmmEngine`.

P(beta) factors as a unit upper-triangular augmentation times the block
lower-triangular sweep operator,

    P = [I  0  -beta A']   [D + beta A'A      0          0    ]
        [0  I  -beta B'] * [beta B'A      beta B'B       0    ]
        [0  0      I   ]   [A                 B      -(1/beta) I]

so applying P^{-1} is one augmentation plus one forward sweep.  Explicit
assembly is provided for verification only and is guarded to small
dimensions; the production path is matrix-free.
"""

import numpy as np
import scipy.linalg as sla

from .core import stacked_parts

__all__ = ["apply_inverse", "assemble_precond"]

_DENSE_GUARD = 400


def apply_inverse(engine, v):
    """Compute P(beta)^{-1} v factor by factor; ``v`` may be a (dim, k) block.

    First the augmentation factor is inverted (adds +beta A' v3 to the x
    block and +beta B' v3 to the z block), then the block lower factor is
    forward-solved with the engine's factorizations.
    """
    p, beta = engine.problem, engine.beta
    A, B = p.A, p.B
    v1, v2, v3 = stacked_parts(p, v, block=True)

    w1 = v1 + beta * (A.T @ v3)
    w2 = v2 + beta * (B.T @ v3)

    x = sla.cho_solve((engine.local_factor, True), w1)
    z = sla.cho_solve((engine.global_factor, True), w2 / beta - B.T @ (A @ x))
    y = beta * (A @ x + B @ z - v3)
    return np.concatenate([x, z, y])


def assemble_precond(engine):
    """Explicit dense P(beta), refused above total dimension 400.

    The spectral module's dense constructions all assemble P first, so this
    is the one place that enforces the guard.
    """
    p, beta = engine.problem, engine.beta
    if p.dim > _DENSE_GUARD:
        raise ValueError(
            f"explicit dense constructions are limited to total dimension "
            f"{_DENSE_GUARD}, got {p.dim}"
        )
    A, B, D = p.A, p.B, p.D
    nx, nz, ny = p.nx, p.nz, p.ny
    return np.block(
        [
            [D, -beta * (A.T @ B), A.T],
            [np.zeros((nz, nx)), np.zeros((nz, nz)), B.T],
            [A, B, -(1.0 / beta) * np.eye(ny)],
        ]
    )
