"""Explicit spectral analysis of the ADMM iteration.

Provides the dense iteration matrix G(beta), the ny x ny inner kernel
K(beta) whose eigenvalues drive both ADMM and ADMM-GMRES,
eigenvalue-enclosure verification by parameter regime, and the
conditioning factors (c1, kappa_P, kappa_X, kappa_M) used by the
convergence-bound evaluators.  K is read off the engine's matrix CU, the
one the solvers iterate, by sign flips alone: CU is written in the frame
[Q P] of range(B) and its complement, where K = J (2 CU - I) J.  A report
factors its (problem, beta) pair once, into one engine.
||K|| comes from the symmetric eigensolve of J K; outside [m, ell], where
J K or -J K is positive definite, so do K's spectrum and kappa_X, and
inside it K's eigenpairs come from the dense nonsymmetric eigensolver.
No dense SVD of P, G or M is taken: ||G||_2^2 and kappa_P^2 =
lambda_max(P'P) lambda_max(P^{-1} P^{-T}) come from Lanczos on operator
products (Golub & Kahan, SIAM J. Numer. Anal. 2, 1965), and kappa_M from
the eigenvalues of the symmetric M.

Everything here is dense and intended for verification at desk scale; the
explicit constructions are guarded to total dimension 400 by
:func:`admmgmres.precond.check_dense`.
"""

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np
from scipy.linalg.blas import dnrm2
from scipy.linalg.lapack import dpotrs, dstebz, dstein

from .core import NumericalError, assemble_kkt
from .precond import (_apply_inverse_transpose, _piece, apply_inverse, assemble_precond,
                      check_dense, make_engine, sweep_columns)

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

# Lanczos stops when the top Ritz pair's residual is below this times its Ritz value.
_LANCZOS_TOL = 1e-13

# Eigenvector matrices conditioned worse than this count as numerically singular.
_EIGVEC_CUTOFF = 1e12

# J K counts as symmetric when ||J K - (J K)'||_F is below this times ||K||_F.
_J_SYM_RTOL = 1e-12


def _dtilde_eig(problem):
    """Eigenvalues of the symmetrized A D^{-1} A' (W = D-tilde^{-1}), all finite and positive."""
    A, D = problem.A, problem.D
    L = np.linalg.cholesky(D)
    W = A @ dpotrs(L, A.T, lower=1)[0]  # A D^{-1} A', as in precond.apply_inverse
    if not np.all(np.isfinite(W)):
        raise NumericalError("A D^-1 A' has a non-finite entry")
    w = np.linalg.eigh(0.5 * (W + W.T))[0]
    if not w[0] > 0:
        raise NumericalError(f"A D^-1 A' is numerically singular: eigenvalues from "
                             f"{w[0]:.3e} to {w[-1]:.3e}")
    return w


def dtilde_extremes(problem):
    """Extreme eigenvalues (m, ell) and condition number of (A D^{-1} A')^{-1}.

    m = 1 / lambda_max(A D^{-1} A'), ell = 1 / lambda_min(A D^{-1} A'),
    kappa = ell / m.  Raises :class:`NumericalError` if A D^{-1} A' has a
    non-finite entry or a computed eigenvalue that is not positive, which
    the block checks of :class:`SaddleProblem` do not rule out.
    """
    w = _piece(problem, "eig", _dtilde_eig)
    m = 1.0 / w[-1]
    ell = 1.0 / w[0]
    return m, ell, ell / m


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

    K = J (2 CU - I) J for the CU of :class:`admmgmres.precond.AdmmEngine`,
    which is written in the frame [Q P] of range(B) and its complement, and
    J = blkdiag(I, -I).  Equivalently K = [Q'; -P'] Kt [Q P] for the
    symmetric Kt = 2 beta A (D + beta A'A)^{-1} A' - I, whose eigenvalues
    are (beta*w - 1)/(beta*w + 1) for the eigenvalues w of A D^{-1} A'; J K
    is symmetric to the bit.
    """
    return _kernel_blocks(make_engine(problem, beta))


def _kernel_blocks(engine):
    """:func:`build_k_matrix` for the pair of ``engine``; N is not formed."""
    nz = engine.problem.nz
    K = 2.0 * engine.CU - np.eye(engine.problem.ny)
    K[nz:] *= -1.0  # J K J
    K[:, nz:] *= -1.0
    return KernelBlocks(K=K, X=K[:nz, :nz], Y=K[nz:, nz:], Z=K[:nz, nz:])


def eigvec_condition(K, nz=None):
    """Condition number of an eigenvector matrix of K, or None.

    The value depends on the column scaling of the eigenvector matrix, so
    the best of several canonical scalings is reported: the unit-column
    basis, a norm-balanced rescaling of it, and, when J K (or -J K) is
    positive definite, the similarity construction that symmetrizes K and
    is provably well conditioned in that regime.  That construction needs
    a J-symmetric K (J K symmetric to roundoff for J = blkdiag(I_nz, -I)),
    such as the one :func:`build_k_matrix` returns; any other K, and ``nz``
    None, skip it.  Returns None when every candidate exceeds 1e12.
    """
    return _spectrum(K, nz)[2]


def _spectrum(K, nz):
    """Eigenvalues, ||K||_2 and :func:`eigvec_condition` of K.

    H = sym(J K) has ||H||_2 = ||K||_2, J being orthogonal.  When s H is
    positive definite for a sign s (beta outside [m, ell]), K = s J W^2 for
    W = (s H)^{1/2} is similar to the symmetric s W J W = V diag(eigs) V':
    its eigenvalues are exactly real and ascending, its eigenvectors are
    X = W^{-1} V, and cond(W^{-1}) = sqrt(cond(H)) is the closed-form
    candidate.  Otherwise the eigenpairs come from the dense nonsymmetric
    eigensolver.  With ``nz`` None, or a K whose J K is not symmetric to
    roundoff, there is no H, ||K|| is None and the eigensolver takes K whole.
    """
    k_norm, sign, candidates = None, 0.0, []
    Jd = np.where(np.arange(len(K)) < (nz or 0), 1.0, -1.0)
    H = Jd[:, None] * K
    if 0 < (nz or 0) <= len(K) and np.linalg.norm(H - H.T) <= _J_SYM_RTOL * np.linalg.norm(K):
        hw, hV = np.linalg.eigh(0.5 * (H + H.T))
        k_norm = float(max(-hw[0], hw[-1]))
        sign = 1.0 if hw[0] > 0 else -1.0 if hw[-1] < 0 else 0.0
    if sign:
        root = np.sqrt(sign * hw)
        W = (hV * root) @ hV.T
        eigs, V = np.linalg.eigh(sign * (W * Jd) @ W)
        # X = W^{-1} V loses eps sqrt(cond(H)) near the ends of [m, ell]; its
        # columns are also parallel to those of J W V, which loses most where
        # W^{-1} V loses least, so each column is read off the better of the two.
        A, B = (hV / root) @ (hV.T @ V), Jd[:, None] * (W @ V)
        na, nb = np.linalg.norm(A, axis=0), np.linalg.norm(B, axis=0)
        X = np.where(na * root.min() * root.max() > nb, A / na, B / nb)
        # The columns are J-orthogonal: X^{-1} = (X' J X)^{-1} X' J.
        Xi = (X.T * Jd) / np.einsum("ij,i,ij->j", X, Jd, X)[:, None]
        candidates.append(root.max() / root.min())
    else:
        eigs, X = np.linalg.eig(K)
        try:
            Xi = np.linalg.inv(X)
        except np.linalg.LinAlgError:
            Xi = None
    if Xi is not None:
        candidates.append(np.linalg.cond(X))
        scale = np.sqrt(np.linalg.norm(Xi, axis=1))
        if np.all(np.isfinite(scale) & (scale > 0)):
            candidates.append(np.linalg.cond(X * scale[None, :]))

    finite = [c for c in candidates if np.isfinite(c)]
    best = min(finite) if finite else np.inf
    return eigs, k_norm, None if best > _EIGVEC_CUTOFF else float(best)


@dataclass
class SpectralReport:
    """Spectral summary of K(beta) for one (problem, beta) pair.

    ``regime`` is one of ``disk_and_interval`` (gamma in [sqrt(kappa),
    kappa]), ``single_interval`` (gamma in (kappa, 2 kappa]) and
    ``two_intervals`` (gamma > 2 kappa); ``enclosure_ok`` records whether
    every computed eigenvalue lies in the advertised region for that
    regime; for beta outside [m, ell] the eigenvalues are exactly real and
    ascending.  ``kappa_X`` is None when no acceptably conditioned eigenvector
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


def _lambda_max(apply, n):
    """The largest eigenvalue of the symmetric positive semidefinite operator ``apply`` of order n.

    Lanczos with full reorthogonalization from the vector of ones, stopped
    when the residual of the top Ritz pair is within 1e-13 of its Ritz
    value (ARPACK's test).  A Krylov space that turns invariant holds exact
    eigenvalues, but maybe not the largest, so Lanczos goes on in a new
    block of the tridiagonal from a normal vector drawn with the block's
    first index as seed, made orthogonal to the basis; after n steps the
    basis is complete.  No step draws on state kept between calls, so two
    calls give the same bits, whatever the numpy and scipy.  A product that
    is not finite ends the iteration with inf.
    """
    basis = np.empty((n, n))
    diag, off = np.empty(n), np.empty(n)
    q = np.full(n, 1.0 / math.sqrt(n))
    top = 0.0  # the largest eigenvalue of the invariant blocks already left
    first = 0
    for k in range(n):
        basis[k] = q
        w = apply(q)
        if not np.isfinite(w).all():
            return np.inf
        V = basis[:k + 1]
        h = V @ w
        w -= h @ V
        w -= (V @ w) @ V
        b = dnrm2(w)  # scaled: w @ w underflows on a tiny operator
        if k == first:
            # dstebz squares the off-diagonal, so each block of the
            # tridiagonal is stored times the power of two 2**x that brings
            # its first column near norm 1
            x = -math.frexp(abs(h[-1]) + b)[1]
            theta, s = h[-1], 1.0
        diag[k], off[k] = math.ldexp(h[-1], x), math.ldexp(b, x)
        if k > first:
            d, e = diag[first:k + 1], off[first:k]
            # range 2 selects by index, as in scipy's own eigh_tridiagonal
            _, ritz, iblock, isplit, _ = dstebz(d, e, 2, 0.0, 0.0, k + 1 - first, k + 1 - first,
                                                0.0, "E")
            theta = math.ldexp(ritz[0], -x)
            s = dstein(d, e, ritz[:1], iblock, isplit)[0][-1, 0]
        scale = max(theta, top)
        if b <= _LANCZOS_TOL * scale:
            top, first = scale, k + 1
            if first == n:
                break
            q = np.random.default_rng(first).standard_normal(n)
            for _ in range(2):
                q -= (basis[:k + 1] @ q) @ basis[:k + 1]
            q /= dnrm2(q)
            continue
        if b * abs(s) <= _LANCZOS_TOL * scale:
            break
        q = w / b
    return float(max(theta, top))


def _kkt_condition(problem):
    """cond(M) = max |lambda| / min |lambda| over the eigenvalues of the symmetric M."""
    w = np.abs(np.linalg.eigvalsh(assemble_kkt(problem)))
    return float(w.max() / w.min())


def classify_and_verify(problem, beta):
    """Full spectral report: extremes, regime, eigenvalue enclosure, factors.

    One pass factors the pair once and forms each piece once; the pieces
    that do not depend on beta are reused from an earlier report on the
    same problem.  c1 = ||S|| ||S^{-1}|| ||G||^2 for the Schur scaling
    S = blkdiag(beta I, beta R, I); kappa_P, kappa_M are the condition
    numbers of P, M; kappa_X is the eigenvector conditioning of K (None if
    numerically singular).  ||K|| comes from the ``eigh`` of J K; outside
    [m, ell] the eigenvalues and kappa_X do too, and the eigenvalues are
    exactly real and ascending; inside they come from ``eig``.

    ||G||_2^2 = lambda_max(G'G), and kappa_P is the square root of
    lambda_max(P'P) lambda_max(P^{-1} P^{-T}), each by :func:`_lambda_max`
    on products: G and the assembled P by gemv, P^{-1} and P^{-T} by the
    engine's factors.  Against 40-digit values kappa_P is within
    eps kappa_P; at 1e-6 m, where a dense cond(P) was 2.1e-3 and 0.44 off
    (kappa_P 1.8e14 and 2.6e18), it was within 2.1e-15.  kappa_M is
    max |lambda| / min |lambda| over the eigenvalues of M, once per
    problem.  A factor with a product that is not finite is inf.  Guarded
    to total dimension 400.
    """
    engine = make_engine(problem, beta)
    beta = engine.beta
    P = assemble_precond(engine)
    # The x columns of G are exact zeros; its norm needs only the others.
    G = apply_inverse(engine, sweep_columns(engine))
    p_norm2 = _lambda_max(lambda v: P.T @ (P @ v), problem.dim)
    p_inv_norm2 = _lambda_max(lambda v: apply_inverse(engine, _apply_inverse_transpose(engine, v)),
                              problem.dim)

    m, ell, kappa = dtilde_extremes(problem)
    gamma = max(beta / m, ell / beta)
    sigma = np.linalg.svd(engine.global_factor, compute_uv=False)  # R' has B's singular values
    eigs, k_norm, kappa_X = _spectrum(_kernel_blocks(engine).K, problem.nz)
    regime = classify_regime(gamma, kappa)
    # ||S|| ||S^{-1}|| has a closed form in the singular values of R.
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
        c1=float(s_cond * _lambda_max(lambda v: G.T @ (G @ v), G.shape[1])),
        kappa_P=math.sqrt(p_norm2) * math.sqrt(p_inv_norm2),  # the product of squares may overflow
        kappa_X=kappa_X,
        kappa_M=_piece(problem, "cond_M", _kkt_condition),
    )


def conditioning_factors(problem, beta):
    """The factors (c1, kappa_P, kappa_X, kappa_M) of :func:`classify_and_verify`."""
    report = classify_and_verify(problem, beta)
    return report.c1, report.kappa_P, report.kappa_X, report.kappa_M
