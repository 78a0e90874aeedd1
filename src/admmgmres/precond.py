"""The ADMM preconditioner P(beta): the one affine map behind every solver.

At a fixed penalty the three ADMM update steps (local solve, global solve,
multiplier update) are linear, so ADMM is the fixed-point iteration
u -> G u + b with G = I - P^{-1} M = P^{-1} (P - M), and one sweep is
exactly u + P^{-1} (r - M u).  :func:`make_engine` factors P(beta) once per
(problem, beta) pair, and :func:`apply_inverse` is the only code that
applies P^{-1}.  P - M is zero in the x columns, so G is too and a sweep
reads only the z and y parts of u; :func:`sweep_columns` builds the other
columns of P - M from the blocks.  The engine also writes the same sweep
as a recurrence on one ny-vector, the coordinate in which the paper states
its bounds.

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

A penalty sweep on one problem pays only for the penalty: each piece that
does not depend on beta (A'A, A'B, chol(B'B), the orthonormal basis
Q' = L_B^{-1} B' of range(B), I - QQ', the factor R_a of A'Q, and the
spectral module's eigenvalues of A D^{-1} A', complement of range(B) and
singular values of B) is formed on first use and kept, by weak reference,
for the latest problem.
"""

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dpotrs, dtrtrs

from .core import NumericalError, assemble_kkt, check_beta, stacked_parts

__all__ = ["AdmmEngine", "make_engine", "apply_inverse", "assemble_precond", "sweep_columns"]

_DENSE_GUARD = 400

# (weak reference to a problem, {piece name: value}) for the most recent
# problem.  A miss replaces the whole entry in one assignment and every call
# keeps the dict it read, so concurrent callers never mix two problems; at
# worst two of them form the same piece twice.
_memo = (lambda: None, {})


def _piece(problem, name, compute):
    """The beta-independent piece ``name`` of ``problem``, formed on first use."""
    global _memo
    ref, pieces = _memo
    if ref() is not problem:
        pieces = {}
        _memo = (weakref.ref(problem), pieces)
    if name not in pieces:
        pieces[name] = compute(problem)
    return pieces[name]


def _read_only(array):
    array.flags.writeable = False
    return array


@dataclass
class AdmmEngine:
    """One (problem, beta) pair: its two Cholesky factors and its sweep in the kernel coordinate.

    ``local_factor`` and ``global_factor`` are the lower Cholesky factors of
    D + beta A'A and B'B, read-only and in Fortran order for LAPACK.

    In the kernel coordinate t = C [z; y], ny long, G's (z, y) block factors
    as U C, with C = [-beta T B, I / beta - T] and U = [-(B'B)^{-1} B';
    beta (I - QQ')], for T = A (D + beta A'A)^{-1} A' and Q an orthonormal
    basis of range(B).  Sweep k from u_0 moves (z, y) by U t_{k-1} + b_zy,
    with t_0 = 0 and t_k = CU t_{k-1} + c for b = P^{-1} (r - M u_0) and
    c = C b_zy.  CU = (I + Kt F) / 2 (Kt = 2 beta T - I, F the reflection
    through range(B)) is similar to (I + K(beta)) / 2, the operator of the
    paper's bounds.  P - M is zero in the x columns, so r - M u_{k+1} =
    (P - M)[0; U (t_k - t_{k-1})] has the norm ||N (t_k - t_{k-1})|| for
    N = [beta R_a Q'; I - QQ'], R_a the nz x nz factor of a QR of A'Q.

    ``Qt`` (Q'), ``T`` (beta T), ``CU`` and ``N`` are formed on first read
    and kept read-only, so a solve that ends at iterate 1 forms none of them
    and every solve on the engine reads the same arrays.  Two threads that
    read a field first may both form it, with the same bits.
    """

    problem: object
    beta: float
    local_factor: np.ndarray
    global_factor: np.ndarray

    @cached_property
    def Qt(self):
        """Q' = L_B^{-1} B' for the factor L_B of B'B, kept per problem."""
        Qt = _piece(self.problem, "Q'", lambda p: dtrtrs(self.global_factor, p.B.T, lower=1)[0])
        return _read_only(Qt)

    @cached_property
    def T(self):
        """beta T = beta (L^{-1} A')' (L^{-1} A') from the local factor L: one triangular solve."""
        H = dtrtrs(self.local_factor, self.problem.A.T, lower=1)[0]
        return _read_only(self.beta * (H.T @ H))

    def _complement(self):
        """I - QQ', the projector onto the complement of range(B), kept per problem."""
        return _piece(self.problem, "I - QQ'", lambda p: np.eye(p.ny) - self.Qt.T @ self.Qt)

    @cached_property
    def CU(self):
        return _read_only(self._complement() + 2.0 * (self.T @ self.Qt.T) @ self.Qt - self.T)

    @cached_property
    def N(self):
        Ra = _piece(self.problem, "R_a", lambda p: np.linalg.qr(p.A.T @ self.Qt.T, mode="r"))
        return _read_only(np.concatenate((self.beta * (Ra @ self.Qt), self._complement())))

    def offset(self, b):
        """c = C b_zy for a stacked ``b``."""
        _, bz, by = stacked_parts(self.problem, b)
        return (by - self.T @ by) / self.beta - self.T @ (self.problem.B @ bz)

    def lift(self, t):
        """U t, the stacked (z, y) correction that the kernel coordinate ``t`` stands for."""
        q = self.Qt @ t
        z = dtrtrs(self.global_factor, q, lower=1, trans=1)[0]
        return np.concatenate((-z, self.beta * (t - self.Qt.T @ q)))


def _cholesky(block):
    return _read_only(np.asfortranarray(np.linalg.cholesky(block)))


def make_engine(problem, beta):
    """Factor the two sub-solve operators for a fixed beta > 0."""
    beta = check_beta(beta)
    try:
        failure = f"local block D + beta A'A failed at beta={beta}"
        local = _cholesky(problem.D + beta * _piece(problem, "A'A", lambda p: p.A.T @ p.A))
        failure = "global block B'B failed"
        shared = _piece(problem, "chol(B'B)", lambda p: _cholesky(p.B.T @ p.B))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Cholesky factorization of the {failure}") from exc
    return AdmmEngine(problem, beta, local, shared)


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
    cols[:nx, :nz] = -beta * _piece(p, "A'B", lambda q: q.A.T @ q.B)
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
