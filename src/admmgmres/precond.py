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

B is factored once per problem, by one Householder QR (LAPACK ``dgeqrf``
and ``dorgqr``): its frame F = [Q P] of range(B) and the complement is the
coordinate of the engine's sweep, and R' is the factor of B'B that P^{-1}
reads.  A penalty sweep on one problem pays only for the penalty: each
piece that does not depend on beta (A'A, A'B, that QR with A'F, the factor
R_a of A'Q, and the spectral module's eigenvalues of A D^{-1} A' and
cond(M)) is formed on first use and kept, by weak reference, for the
latest problem.
"""

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgeqrf, dorgqr, dpotrs, dtrtrs

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


def _b_frame(problem):
    """F = [Q P], R' and A'F of the full QR B = F [R; 0], diag(R) > 0, kept per problem."""
    return _piece(problem, "QR of B", _qr_of_b)


def _qr_of_b(problem):
    nz = problem.nz
    qr, tau = dgeqrf(problem.B)[:2]
    F = dorgqr(np.hstack((qr, np.zeros((problem.ny, problem.ny - nz)))), tau)[0]
    signs = np.where(np.diag(qr) < 0.0, -1.0, 1.0)
    F[:, :nz] *= signs
    Rt = np.asfortranarray(np.tril(qr[:nz].T) * signs)  # the lower Cholesky factor of B'B
    return _read_only(F), _read_only(Rt), _read_only(problem.A.T @ F)


@dataclass
class AdmmEngine:
    """One (problem, beta) pair: its two triangular factors and its sweep in the kernel coordinate.

    ``local_factor`` is the lower Cholesky factor of D + beta A'A, and
    ``global_factor`` is R' for the full QR B = F [R; 0] with diag(R) > 0,
    the lower Cholesky factor of B'B = R'R.  Both are read-only and in
    Fortran order for LAPACK.  F = [Q P] is orthogonal: Q spans range(B)
    and P (not P(beta)) its complement.  F, R' and A'F are kept per problem.

    In the kernel coordinate t = F' C [z; y], ny long, G's (z, y) block
    factors as U C with C = [-beta T B, I / beta - T] and U F =
    [-R^{-1} E'; beta P E_P'], for T = A (D + beta A'A)^{-1} A' and E, E_P
    the leading nz and trailing ny - nz columns of I.  Sweep k from u_0
    moves (z, y) by U F t_{k-1} + b_zy, with t_0 = 0 and
    t_k = CU t_{k-1} + c for b = P^{-1} (r - M u_0) and c = F' C b_zy.
    With T_F = beta F' T F,

        CU = F' C U F = [T_F E, E_P - T_F E_P] = (I + J K J) / 2,

    for K = K(beta), the operator of the paper's bounds, and
    J = blkdiag(I_nz, -I).  P - M is zero in the x columns, so
    r - M u_{k+1} = (P - M)[0; U F (t_k - t_{k-1})] has the norm
    ||N (t_k - t_{k-1})|| for N = blkdiag(beta R_a, I), R_a the nz x nz
    factor of a QR of A'Q: for d = [d_Q; d_P], split as F = [Q P],
    ||N d||^2 = ||beta R_a d_Q||^2 + ||d_P||^2, so ADMM reads its residual
    norms through the leading nz x nz block of N alone.

    ``T`` (T_F), ``CU`` and ``N`` are formed on first read and kept
    read-only, so a solve that ends at iterate 1 forms none of them and
    every solve on the engine reads the same arrays.  Two threads that read
    a field first may both form it, with the same bits.
    """

    problem: object
    beta: float
    local_factor: np.ndarray
    global_factor: np.ndarray

    @cached_property
    def T(self):
        """T_F = beta (L^{-1} A'F)' (L^{-1} A'F) from the local factor L: one triangular solve."""
        H = dtrtrs(self.local_factor, _b_frame(self.problem)[2], lower=1)[0]
        return _read_only(self.beta * (H.T @ H))

    @cached_property
    def CU(self):
        T, nz = self.T, self.problem.nz
        return _read_only(np.hstack((T[:, :nz], np.eye(len(T))[:, nz:] - T[:, nz:])))

    @cached_property
    def N(self):
        nz, AF = self.problem.nz, _b_frame(self.problem)[2]
        N = np.eye(self.problem.ny)
        N[:nz, :nz] = self.beta * _piece(self.problem, "R_a",
                                         lambda p: np.triu(dgeqrf(AF[:, :nz])[0][:nz]))
        return _read_only(N)

    def offset(self, b):
        """c = F' C b_zy for a stacked ``b``."""
        _, bz, by = stacked_parts(self.problem, b)
        T, g = self.T, _b_frame(self.problem)[0].T @ by  # F' by, and F' B bz = [R bz; 0]
        return (g - T @ g) / self.beta - T[:, : len(bz)] @ (self.global_factor.T @ bz)

    def lift(self, t):
        """U F t = [-R^{-1} t_Q; beta P t_P], the stacked (z, y) correction ``t`` stands for."""
        nz = self.problem.nz
        z = dtrtrs(self.global_factor, t[:nz], lower=1, trans=1)[0]
        return np.concatenate((-z, self.beta * (_b_frame(self.problem)[0][:, nz:] @ t[nz:])))


def make_engine(problem, beta):
    """Factor the two sub-solve operators for a fixed beta > 0; B's factor is kept per problem."""
    beta = check_beta(beta)
    block = problem.D + beta * _piece(problem, "A'A", lambda p: p.A.T @ p.A)
    try:
        local = _read_only(np.asfortranarray(np.linalg.cholesky(block)))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("Cholesky factorization of the local block D + beta A'A "
                             f"failed at beta={beta}") from exc
    return AdmmEngine(problem, beta, local, _b_frame(problem)[1])


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


def _apply_inverse_transpose(engine, v):
    """Compute P(beta)^{-T} v, the transpose of :func:`apply_inverse`; ``v`` may be a block.

    P^{-T} is the backward block solve with the transposed lower factor
    followed by the transposed augmentation: w3 = -beta v3, then
    w2 = (B'B)^{-1} (v2 / beta + B' v3) and
    w1 = (D + beta A'A)^{-1} (v1 - beta A'B w2 - A' w3), each by one
    ``dpotrs``, and the result is [w1; w2; w3 + beta (A w1 + B w2)].
    """
    p, beta = engine.problem, engine.beta
    A, B = p.A, p.B
    v1, v2, v3 = stacked_parts(p, v, block=True)

    w3 = -beta * v3
    w2 = dpotrs(engine.global_factor, v2 / beta + B.T @ v3, lower=1)[0]
    AB = _piece(p, "A'B", lambda q: q.A.T @ q.B)
    w1 = dpotrs(engine.local_factor, v1 - beta * (AB @ w2) - A.T @ w3, lower=1)[0]
    return np.concatenate([w1, w2, w3 + beta * (A @ w1 + B @ w2)])


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
