"""Dense reference constructions that the tests check the package against.

:func:`schur_pieces` builds the full block-Schur form of G(beta), the dense
reference for the closed-form c1 of a spectral report; :func:`reference_kernel`
builds K(beta) from the eigenpairs of A D^{-1} A' and the QR factors of B,
apart from the sweep the package reads K from; :func:`reference_spectrum`
reads K's spectrum, norm and eigenvector conditioning off the dense
nonsymmetric eigensolver, apart from the symmetric route of a report;
:func:`gemv_sweeps` runs ADMM's inner run one gemv per sweep, apart from the
blocked sweeps of :func:`admmgmres.admm._sweep_blocks`; the two witness
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


def qr_pieces(B):
    """Q, its complement P and R of a full QR of B, R with a nonnegative diagonal."""
    nz = B.shape[1]
    Qfull, Rfull = np.linalg.qr(B, mode="complete")
    signs = np.sign(np.diag(Rfull[:nz, :]))
    signs[signs == 0] = 1.0
    return Qfull[:, :nz] * signs, Qfull[:, nz:], Rfull[:nz, :] * signs[:, None]


def reference_kernel(problem, beta):
    """K(beta) = [Q'; -P'] Kt [Q P] from the spectral contrast Kt of A D^{-1} A'.

    Kt = V f(w) V' for the eigenpairs (w, V) of A D^{-1} A', with
    f(w) = (beta w - 1) / (beta w + 1), and Q, P are the :func:`qr_pieces`
    of B.
    """
    beta = check_beta(beta)
    W = problem.A @ np.linalg.solve(problem.D, problem.A.T)
    w, V = np.linalg.eigh(0.5 * (W + W.T))
    Kt = (V * ((beta * w - 1.0) / (beta * w + 1.0))) @ V.T
    Q, P, _ = qr_pieces(problem.B)
    return np.vstack([Q.T, -P.T]) @ (0.5 * (Kt + Kt.T)) @ np.hstack([Q, P])


def reference_spectrum(K, nz):
    """(eigenvalues, ||K||_2, kappa_X) of K from ``eig``, an SVD and ``inv``.

    kappa_X is the least of three condition numbers below 1e12, else None:
    ``eig``'s unit-column eigenvector matrix X, its norm-balanced rescaling,
    and, when J K is symmetric and J K or -J K positive definite for
    J = blkdiag(I_nz, -I), W^{-1} V for W = (+-J K)^{1/2} and the
    eigenvectors V of W K W^{-1}.
    """
    eigs, X = np.linalg.eig(K)
    candidates = []
    try:
        Xi = np.linalg.inv(X)
    except np.linalg.LinAlgError:
        Xi = None
    if Xi is not None:
        candidates.append(np.linalg.cond(X))
        scale = np.sqrt(np.linalg.norm(Xi, axis=1))
        if np.all(np.isfinite(scale) & (scale > 0)):
            candidates.append(np.linalg.cond(X * scale[None, :]))
    H = K.copy()
    H[nz:] *= -1.0
    # W^{-1} V holds eigenvectors of K only when J K is symmetric
    j_symmetric = np.linalg.norm(H - H.T) <= 1e-12 * np.linalg.norm(K)
    H = 0.5 * (H + H.T)
    for sign in (1.0, -1.0) if j_symmetric else ():
        hw, hV = np.linalg.eigh(sign * H)
        if hw[0] > 0:
            W = (hV * np.sqrt(hw)) @ hV.T
            Winv = (hV / np.sqrt(hw)) @ hV.T
            T = W @ K @ Winv
            V = np.linalg.eigh(0.5 * (T + T.T))[1]
            candidates.append(np.linalg.cond(Winv @ V))
            break
    finite = [c for c in candidates if np.isfinite(c) and c <= 1e12]
    return eigs, float(np.linalg.norm(K, 2)), min(finite) if finite else None


def gemv_sweeps(run, engine, c):
    """ADMM's inner run sweep by sweep: pass it to ``admm._kernel_solve`` as ``inner``.

    One gemv d_{k+1} = CU d_k per sweep from d_1 = c, one ``run.add`` of the
    estimate ||N d_k|| of iterate k + 1, and t_{k-1} = d_1 + ... + d_{k-1}
    summed as it goes.  The run ends where the blocked run must, at the cap
    or at the first estimate that meets the threshold, and returns the t of
    that iterate.
    """
    d, t = c, np.zeros(len(c))  # d_k and t_{k-1}, from k = 1
    while not run.add(float(np.linalg.norm(engine.N @ d))) and run.iterations < run.max_iter:
        t, d = t + d, engine.CU @ d
    return t


def schur_pieces(problem, beta):
    beta = check_beta(beta)
    nx, nz, ny, dim = problem.nx, problem.nz, problem.ny, problem.dim
    Q, P, R = qr_pieces(problem.B)

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
