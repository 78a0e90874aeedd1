"""Explicit spectral analysis of the ADMM iteration.

Provides the dense iteration matrix G(beta), its block-Schur pieces, the
ny x ny inner kernel K(beta) whose eigenvalues drive both ADMM and
ADMM-GMRES, eigenvalue-enclosure verification by parameter regime, and the
conditioning factors (c1, kappa_P, kappa_X, kappa_M) used by the
convergence-bound evaluators.

G(beta) = P^{-1} (P - M) comes from the same
:func:`admmgmres.precond.apply_inverse` of
:func:`admmgmres.precond.sweep_columns` that sets up the ADMM sweep.
:func:`classify_and_verify` forms each piece of a report once, with c1 in
closed form from the singular values of B; :func:`conditioning_factors`
returns the factor part of that report.

A penalty sweep on one problem pays only for the penalty: the pieces that
do not depend on beta (the eigenpairs of A D^{-1} A', the QR factors of B
with the singular values of R, and cond(M)) are kept for the most recent
problem that asked for them, each formed on first use.  Only that one
problem is kept, by weak reference, so nothing outlives it.

Everything here is dense and intended for verification at desk scale; the
explicit constructions are guarded to total dimension 400 by
:func:`admmgmres.precond.check_dense`.
"""

import json
import weakref
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dpotrs

from .admm import make_engine
from .core import assemble_kkt, check_beta
from .precond import apply_inverse, assemble_precond, check_dense, sweep_columns

__all__ = [
    "SchurPieces",
    "KernelBlocks",
    "SpectralReport",
    "dtilde_extremes",
    "schur_pieces",
    "build_iteration_matrix",
    "build_k_matrix",
    "classify_and_verify",
    "conditioning_factors",
    "eigvec_condition",
]

# Eigenvalues are treated as purely real below this imaginary-part level;
# dense nonsymmetric eigensolvers return imaginary dust of roughly this size.
_IM_RTOL = 1e-8

# Absolute slack for enclosure membership; interval endpoints suffer
# subtractive cancellation at large condition numbers.
_ENCLOSURE_SLACK = 1e-7


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


def _dtilde_eig(problem):
    """Eigen-decomposition of the symmetrized A D^{-1} A' (W = D-tilde^{-1})."""
    A, D = problem.A, problem.D
    L = np.linalg.cholesky(D)
    W = A @ dpotrs(L, A.T, lower=1)[0]  # A D^{-1} A', as in precond.apply_inverse
    W = 0.5 * (W + W.T)
    w, V = np.linalg.eigh(W)
    return w, V


def dtilde_extremes(problem):
    """Extreme eigenvalues (m, ell) and condition number of (A D^{-1} A')^{-1}.

    m = 1 / lambda_max(A D^{-1} A'), ell = 1 / lambda_min(A D^{-1} A'),
    kappa = ell / m.
    """
    w, _ = _piece(problem, "eig", _dtilde_eig)
    m = 1.0 / w[-1]
    ell = 1.0 / w[0]
    return m, ell, ell / m


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


def _qr_complement(B):
    Qfull, Rfull = np.linalg.qr(B, mode="complete")
    nz = B.shape[1]
    signs = np.sign(np.diag(Rfull[:nz, :]))
    signs[signs == 0] = 1.0
    Qfull = Qfull.copy()
    Qfull[:, :nz] *= signs
    R = Rfull[:nz, :] * signs[:, None]
    return Qfull[:, :nz], Qfull[:, nz:], R


def _b_factors(problem):
    """Q and its complement from the QR factors of B, and the singular values of R."""
    Q, Qc, R = _qr_complement(problem.B)
    return Q, Qc, np.linalg.svd(R, compute_uv=False)


def schur_pieces(problem, beta):
    beta = check_beta(beta)
    nx, nz, ny = problem.nx, problem.nz, problem.ny
    Q, P, R = _qr_complement(problem.B)
    dim = problem.dim

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


def build_iteration_matrix(problem, beta):
    """Explicit dense ADMM iteration matrix G(beta) = P^{-1} (P - M).

    One sweep maps u to G u + b.  P - M is nonzero only in the z and y
    columns, so the x columns of G are exact zeros (the sweep never reads
    x) and, unlike I - P^{-1} M, nothing cancels.  Refused above total
    dimension 400.
    """
    check_dense(problem)
    engine = make_engine(problem, beta)
    G = np.zeros((problem.dim, problem.dim))
    G[:, problem.nx :] = apply_inverse(engine, sweep_columns(engine))
    return G


@dataclass
class KernelBlocks:
    """The inner kernel K(beta) and its J-symmetric blocks.

    K = [[X, Z], [-Z', Y]] with X (nz x nz), Y ((ny-nz) x (ny-nz)) and
    Z (nz x (ny-nz)); J K is symmetric for J = blkdiag(I, -I).  X, Y and
    Z are slices of K, so writing to one writes to K.
    """

    K: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray


def _kernel(beta, w, V, Q, P):
    """K = [Q'; -P'] Kt [Q P] from the eigenpairs (w, V) of A D^{-1} A'.

    Kt is the symmetric contrast (beta^{-1} Dt + I)^{-1} - (beta Dt^{-1} + I)^{-1}
    of Dt = (A D^{-1} A')^{-1}, whose eigenvalues are (beta*w - 1)/(beta*w + 1).
    """
    f = (beta * w - 1.0) / (beta * w + 1.0)
    Kt = (V * f) @ V.T
    Kt = 0.5 * (Kt + Kt.T)
    return np.vstack([Q.T, -P.T]) @ Kt @ np.hstack([Q, P])


def build_k_matrix(problem, beta):
    """Assemble the ny x ny kernel K(beta) and its blocks from the QR pieces of B."""
    beta = check_beta(beta)
    w, V = _piece(problem, "eig", _dtilde_eig)
    Q, P, _ = _piece(problem, "B", _b_factors)
    K = _kernel(beta, w, V, Q, P)
    nz = problem.nz
    return KernelBlocks(K=K, X=K[:nz, :nz], Y=K[nz:, nz:], Z=K[:nz, nz:])


def eigvec_condition(K, nz=None, cutoff=1e12):
    """Condition number of an eigenvector matrix of K, or None.

    The value depends on the column scaling of the eigenvector matrix, so
    the best of several canonical scalings is reported: the unit-column
    basis from the dense eigensolver, a norm-balanced rescaling of it, and,
    when J K (or -J K) is positive definite, the similarity construction
    that symmetrizes K and is provably well conditioned in that regime.
    Returns None when every candidate exceeds ``cutoff``.
    """
    return _eigvec_condition(K, np.linalg.eig(K)[1], nz, cutoff)


def _eigvec_condition(K, X, nz, cutoff=1e12):
    """:func:`eigvec_condition` for the eigenvector matrix X of K."""
    candidates = []
    try:
        Xi = np.linalg.inv(X)
    except np.linalg.LinAlgError:
        Xi = None
    if Xi is not None:
        candidates.append(np.linalg.cond(X))
        scale = np.sqrt(np.linalg.norm(Xi, axis=1))
        good = np.isfinite(scale) & (scale > 0)
        if np.all(good):
            candidates.append(np.linalg.cond(X * scale[None, :]))

    if nz is not None and 0 < nz <= K.shape[0]:
        J = np.diag(np.concatenate([np.ones(nz), -np.ones(K.shape[0] - nz)]))
        H = J @ K
        H = 0.5 * (H + H.T)
        for sign in (1.0, -1.0):
            hw, hV = np.linalg.eigh(sign * H)
            if hw[0] > 0:
                # W = (sign*H)^{1/2}; W K W^{-1} is symmetric, its orthogonal
                # eigenbasis pulls back to X = W^{-1} V with cond(X) =
                # sqrt(cond(H)).
                W = (hV * np.sqrt(hw)) @ hV.T
                Winv = (hV / np.sqrt(hw)) @ hV.T
                T = W @ K @ Winv
                T = 0.5 * (T + T.T)
                _, Vt = np.linalg.eigh(T)
                candidates.append(np.linalg.cond(Winv @ Vt))
                break

    finite = [c for c in candidates if np.isfinite(c)]
    if not finite:
        return None
    best = min(finite)
    return None if best > cutoff else float(best)


@dataclass
class SpectralReport:
    """Spectral summary of K(beta) for one (problem, beta) pair.

    ``regime`` is one of ``disk_and_interval`` (gamma in [sqrt(kappa),
    kappa]), ``single_interval`` (gamma in (kappa, 2 kappa]) and
    ``two_intervals`` (gamma > 2 kappa); ``enclosure_ok`` records whether
    every computed eigenvalue lies in the advertised region for that
    regime.  ``kappa_X`` is None when no acceptably conditioned eigenvector
    matrix was found.
    """

    m: float
    ell: float
    kappa: float
    gamma: float
    k_norm: float
    eigenvalues: np.ndarray
    regime: str
    enclosure_ok: bool
    c1: float
    kappa_P: float
    kappa_X: Optional[float]
    kappa_M: float

    def to_dict(self):
        eigenvalues = [[float(v.real), float(v.imag)] for v in self.eigenvalues]
        return {**asdict(self), "eigenvalues": eigenvalues}

    def to_json(self):
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)


def classify_regime(gamma, kappa):
    if gamma <= kappa * (1.0 + 1e-12):
        return "disk_and_interval"
    if gamma <= 2.0 * kappa * (1.0 + 1e-12):
        return "single_interval"
    return "two_intervals"


def _enclosure_ok(eigs, regime, gamma, kappa, k_norm, nz, ny):
    slack = _ENCLOSURE_SLACK
    im_tol = _IM_RTOL * max(1.0, k_norm)
    is_real = np.abs(eigs.imag) <= im_tol
    hi = (gamma - 1.0) / (gamma + 1.0)

    if regime == "disk_and_interval":
        disk = kappa / (gamma + kappa) - 1.0 / (gamma + 1.0)
        on_interval = is_real & (np.abs(eigs.real) <= k_norm + slack)
        in_disk = np.abs(eigs) <= disk + slack
        return bool(np.all(on_interval | in_disk))

    if regime == "single_interval":
        return bool(np.all(is_real) and np.all(np.abs(eigs) <= hi + slack))

    lo = (gamma - 2.0 * kappa) / (gamma + kappa)
    moduli = np.abs(eigs)
    ok = (
        np.all(is_real)
        and np.all(moduli <= hi + slack)
        and np.all(moduli >= lo - slack)
    )
    if ok and 0 < nz < ny:
        ok = bool(np.any(eigs.real > 0) and np.any(eigs.real < 0))
    return bool(ok)


def classify_and_verify(problem, beta):
    """Full spectral report: extremes, regime, eigenvalue enclosure, factors.

    One pass forms each piece once; the pieces that do not depend on beta
    are reused from an earlier report on the same problem.  c1 =
    ||S|| ||S^{-1}|| ||G||^2 for the Schur scaling S = blkdiag(beta I,
    beta R, I); kappa_P, kappa_M are the condition numbers of P, M; kappa_X
    is the eigenvector conditioning of K (None if numerically singular).
    Guarded to total dimension 400.
    """
    engine = make_engine(problem, beta)
    beta = engine.beta
    P = assemble_precond(engine)
    # The x columns of G are exact zeros; its norm needs only the others.
    G = apply_inverse(engine, sweep_columns(engine))

    w, V = _piece(problem, "eig", _dtilde_eig)
    m, ell = 1.0 / w[-1], 1.0 / w[0]
    kappa = ell / m
    gamma = max(beta / m, ell / beta)
    Q, Qc, sigma = _piece(problem, "B", _b_factors)
    K = _kernel(beta, w, V, Q, Qc)
    k_norm = float(np.linalg.norm(K, 2))
    eigs, X = np.linalg.eig(K)
    regime = classify_regime(gamma, kappa)
    # R has the singular values of B, so ||S|| ||S^{-1}|| has a closed form.
    s_cond = max(beta, beta * sigma[0], 1.0) * max(1.0 / beta, 1.0 / (beta * sigma[-1]), 1.0)
    return SpectralReport(
        m=m,
        ell=ell,
        kappa=kappa,
        gamma=gamma,
        k_norm=k_norm,
        eigenvalues=eigs,
        regime=regime,
        enclosure_ok=_enclosure_ok(eigs, regime, gamma, kappa, k_norm, problem.nz, problem.ny),
        c1=float(s_cond * np.linalg.norm(G, 2) ** 2),
        kappa_P=float(np.linalg.cond(P, 2)),
        kappa_X=_eigvec_condition(K, X, problem.nz),
        kappa_M=_piece(problem, "cond_M", lambda p: float(np.linalg.cond(assemble_kkt(p), 2))),
    )


def conditioning_factors(problem, beta):
    """The factors (c1, kappa_P, kappa_X, kappa_M) of :func:`classify_and_verify`."""
    report = classify_and_verify(problem, beta)
    return report.c1, report.kappa_P, report.kappa_X, report.kappa_M
