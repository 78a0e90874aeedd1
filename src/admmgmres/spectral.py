"""Explicit spectral analysis of the ADMM iteration.

Provides the dense iteration matrix G(beta), the ny x ny inner kernel
K(beta) whose eigenvalues drive both ADMM and ADMM-GMRES,
eigenvalue-enclosure verification by parameter regime, and the
conditioning factors (c1, kappa_P, kappa_X, kappa_M) used by the
convergence-bound evaluators.  K is read off the engine's matrix CU, the
one the solvers iterate: K = J [Q P]' (2 CU - I) [Q P] J, similar to
2 CU - I.  A report factors its (problem, beta) pair once, into one engine.

Everything here is dense and intended for verification at desk scale; the
explicit constructions are guarded to total dimension 400 by
:func:`admmgmres.precond.check_dense`.
"""

import json
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dpotrs

from .core import NumericalError, assemble_kkt
from .precond import (_piece, apply_inverse, assemble_precond, check_dense, make_engine,
                      sweep_columns)

__all__ = [
    "KernelBlocks",
    "SpectralReport",
    "dtilde_extremes",
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

# Eigenvector matrices conditioned worse than this count as numerically singular.
_EIGVEC_CUTOFF = 1e12


def _dtilde_eig(problem):
    """Eigenvalues of the symmetrized A D^{-1} A' (W = D-tilde^{-1})."""
    A, D = problem.A, problem.D
    L = np.linalg.cholesky(D)
    W = A @ dpotrs(L, A.T, lower=1)[0]  # A D^{-1} A', as in precond.apply_inverse
    return np.linalg.eigh(0.5 * (W + W.T))[0]


def dtilde_extremes(problem):
    """Extreme eigenvalues (m, ell) and condition number of (A D^{-1} A')^{-1}.

    m = 1 / lambda_max(A D^{-1} A'), ell = 1 / lambda_min(A D^{-1} A'),
    kappa = ell / m.
    """
    w = _piece(problem, "eig", _dtilde_eig)
    m = 1.0 / w[-1]
    ell = 1.0 / w[0]
    return m, ell, ell / m


def _b_factors(problem):
    """The complement P of range(B) from a full QR of B, and the singular values of R."""
    Qfull, Rfull = np.linalg.qr(problem.B, mode="complete")
    return Qfull[:, problem.nz :], np.linalg.svd(Rfull[: problem.nz], compute_uv=False)


def build_iteration_matrix(problem, beta):
    """Explicit dense ADMM iteration matrix G(beta) = P^{-1} (P - M).

    Its x columns are exact zeros: unlike in I - P^{-1} M, nothing cancels.
    Refused above total dimension 400.
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


def build_k_matrix(problem, beta):
    """The ny x ny kernel K(beta) and its blocks, read off the solvers' sweep.

    K = J [Q P]' (2 CU - I) [Q P] J for the CU and the orthonormal basis Q
    of range(B) of :class:`admmgmres.precond.AdmmEngine`, a complement P of
    Q and J = blkdiag(I, -I); K is similar to 2 CU - I.  Equivalently
    K = [Q'; -P'] Kt [Q P] for the symmetric Kt = 2 beta A (D + beta A'A)^{-1}
    A' - I, whose eigenvalues are (beta*w - 1)/(beta*w + 1) for the
    eigenvalues w of A D^{-1} A'.
    """
    return _kernel_blocks(make_engine(problem, beta))


def _kernel_blocks(engine):
    """:func:`build_k_matrix` for the pair of ``engine``; N is not formed."""
    p, nz = engine.problem, engine.problem.nz
    frame = np.hstack([engine.Qt.T, _piece(p, "B", _b_factors)[0]])
    K = frame.T @ (2.0 * engine.CU - np.eye(p.ny)) @ frame
    K[nz:] *= -1.0  # J K J
    K[:, nz:] *= -1.0
    return KernelBlocks(K=K, X=K[:nz, :nz], Y=K[nz:, nz:], Z=K[:nz, nz:])


def eigvec_condition(K, nz=None):
    """Condition number of an eigenvector matrix of K, or None.

    The value depends on the column scaling of the eigenvector matrix, so
    the best of several canonical scalings is reported: the unit-column
    basis from the dense eigensolver, a norm-balanced rescaling of it, and,
    when J K (or -J K) is positive definite, the similarity construction
    that symmetrizes K and is provably well conditioned in that regime.
    Returns None when every candidate exceeds 1e12.
    """
    return _eigvec_condition(K, np.linalg.eig(K)[1], nz)


def _eigvec_condition(K, X, nz):
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
        H = K.copy()
        H[nz:] *= -1.0  # J K for J = blkdiag(I, -I)
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
    return None if best > _EIGVEC_CUTOFF else float(best)


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
        """The report as JSON; a non-finite field raises :class:`NumericalError` naming it."""
        data = self.to_dict()
        for name, value in data.items():
            if isinstance(value, (float, list)) and not np.all(np.isfinite(value)):
                raise NumericalError(f"spectral report field {name} is not finite")
        return json.dumps(data, indent=1, sort_keys=True)


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

    One pass factors the pair once and forms each piece once; the pieces
    that do not depend on beta are reused from an earlier report on the
    same problem.  c1 = ||S|| ||S^{-1}|| ||G||^2 for the Schur scaling
    S = blkdiag(beta I, beta R, I); kappa_P, kappa_M are the condition
    numbers of P, M; kappa_X is the eigenvector conditioning of K (None if
    numerically singular).  Guarded to total dimension 400.
    """
    engine = make_engine(problem, beta)
    beta = engine.beta
    P = assemble_precond(engine)
    # The x columns of G are exact zeros; its norm needs only the others.
    G = apply_inverse(engine, sweep_columns(engine))

    m, ell, kappa = dtilde_extremes(problem)
    gamma = max(beta / m, ell / beta)
    sigma = _piece(problem, "B", _b_factors)[1]
    K = _kernel_blocks(engine).K
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
