"""Dense reference constructions that the tests check the package against.

:func:`schur_pieces` builds the full block-Schur form of G(beta), the dense
reference for the closed-form c1 of a spectral report; the two witness
polynomials attain the min-max bounds of :mod:`admmgmres.bounds`.
"""

from dataclasses import dataclass

import numpy as np

from admmgmres.bounds import cheb
from admmgmres.core import check_beta


@dataclass
class SchurPieces:
    """Orthogonal and scaling factors of the block-Schur form of G(beta).

    Q (ny x nz) and R (nz x nz, upper triangular with nonnegative diagonal)
    are the QR factors of B; P (ny x (ny - nz)) is the orthogonal
    complement, taken from the trailing columns of the full QR factor.
    U is orthogonal of full dimension and S is the invertible block
    scaling such that S (U' G U) S^{-1} is block upper triangular with
    zero leading nx x nx and trailing nz x nz diagonal blocks.
    """

    Q: np.ndarray
    P: np.ndarray
    R: np.ndarray
    U: np.ndarray
    S: np.ndarray


def schur_pieces(problem, beta):
    beta = check_beta(beta)
    nx, nz, ny, dim = problem.nx, problem.nz, problem.ny, problem.dim
    Qfull, Rfull = np.linalg.qr(problem.B, mode="complete")
    signs = np.sign(np.diag(Rfull[:nz, :]))
    signs[signs == 0] = 1.0
    Q, P, R = Qfull[:, :nz] * signs, Qfull[:, nz:], Rfull[:nz, :] * signs[:, None]

    U = np.zeros((dim, dim))
    U[:nx, :nx] = np.eye(nx)
    U[nx : nx + nz, nx : nx + nz] = np.eye(nz)
    U[nx + nz :, nx + nz : nx + nz + (ny - nz)] = P
    U[nx + nz :, nx + nz + (ny - nz) :] = Q

    S = np.zeros((dim, dim))
    S[:nx, :nx] = beta * np.eye(nx)
    S[nx : nx + nz, nx : nx + nz] = beta * R
    S[nx + nz :, nx + nz :] = np.eye(ny)
    return SchurPieces(Q=Q, P=P, R=R, U=U, S=S)


def two_interval_polynomial(c, a, eta, xi):
    """Witness polynomial for :func:`admmgmres.bounds.two_interval_bound`, as a callable.

    p(z) = ((z+c)/(1+c))^eta * T_xi((z-c)/a) / |T_xi((1-c)/a)|; p(1) = 1.
    """
    if a <= 0:
        raise ValueError("witness polynomial needs a > 0")
    denom = abs(cheb(xi, (1.0 - c) / a))

    def p(z):
        z = np.asarray(z, dtype=float)
        return ((z + c) / (1.0 + c)) ** eta * cheb(xi, (z - c) / a) / denom

    return p


def disk_interval_polynomial(a_int, eta, xi):
    """Witness polynomial z^eta * T_xi(z/a_int)/|T_xi(1/a_int)| (complex ok)."""
    if a_int <= 0:
        raise ValueError("witness polynomial needs a_int > 0")
    denom = abs(cheb(xi, 1.0 / a_int))

    def p(z):
        z = np.asarray(z)
        return z**eta * cheb(xi, z / a_int) / denom

    return p
