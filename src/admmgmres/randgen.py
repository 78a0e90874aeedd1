"""Deterministic random problem generator and log-uniform penalty sampler.

Problems are built from Haar-distributed orthogonal factors and log-normal
singular values, exp(N(0, s^2)), so s = 0 gives perfectly conditioned
blocks and sweeping s up to 1 spans condition numbers from 1 to roughly
1e4.  Generation is reproducible: every matrix and vector draws from its
own child stream of a numpy SeedSequence spawned from the 64-bit seed, so
results do not depend on draw order.  The generator algorithm is pinned to
numpy's default PCG64.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .core import SaddleProblem

__all__ = ["GenSpec", "haar_orthogonal", "random_problem", "sample_beta"]


@dataclass
class GenSpec:
    """Dimensions, spread parameter and seed for one random problem."""

    nx: int
    ny: int
    nz: int
    s: float
    seed: int

    def __post_init__(self):
        if not 1 <= self.nz <= self.ny <= self.nx:
            raise ValueError(
                f"need 1 <= nz <= ny <= nx, got nx={self.nx}, ny={self.ny}, "
                f"nz={self.nz}"
            )
        if not 0 <= self.s < np.inf:
            raise ValueError(f"spread s must be finite and nonnegative, got {self.s}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    def provenance(self):
        return asdict(self)


def haar_orthogonal(n, rng):
    """Haar-distributed orthogonal matrix via QR of a Gaussian matrix.

    The QR factor is sign-normalized (diagonal of R made positive) so the
    distribution is exactly Haar rather than biased by the QR convention.
    """
    G = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


def random_problem(spec):
    """Generate one SaddleProblem from a GenSpec, bit-reproducibly.

    A = U_A diag(sa) V_A[:, :ny]'   (ny singular values),
    B = U_B[:, :nz] diag(sb) V_B'   (nz singular values),
    D = U_D diag(sd) U_D'           (nx eigenvalues),
    with all orthogonal factors Haar and all spectra exp(s * N(0, 1)).
    Rectangular orthonormal frames are the leading columns of full Haar
    matrices.  The right-hand side blocks are standard normal.
    """
    streams = np.random.SeedSequence(spec.seed).spawn(11)
    rng = {
        name: np.random.default_rng(stream)
        for name, stream in zip(
            ["u_a", "v_a", "u_b", "v_b", "u_d", "sig_a", "sig_b", "sig_d",
             "r_x", "r_z", "r_y"],
            streams,
        )
    }
    nx, ny, nz, s = spec.nx, spec.ny, spec.nz, spec.s

    u_a = haar_orthogonal(ny, rng["u_a"])
    v_a = haar_orthogonal(nx, rng["v_a"])
    u_b = haar_orthogonal(ny, rng["u_b"])
    v_b = haar_orthogonal(nz, rng["v_b"])
    u_d = haar_orthogonal(nx, rng["u_d"])

    sig_a = np.exp(s * rng["sig_a"].standard_normal(ny))
    sig_b = np.exp(s * rng["sig_b"].standard_normal(nz))
    sig_d = np.exp(s * rng["sig_d"].standard_normal(nx))

    A = (u_a * sig_a) @ v_a[:, :ny].T
    B = (u_b[:, :nz] * sig_b) @ v_b.T
    D = (u_d * sig_d) @ u_d.T  # symmetrized by SaddleProblem

    return SaddleProblem(
        A,
        B,
        D,
        rng["r_x"].standard_normal(nx),
        rng["r_z"].standard_normal(nz),
        rng["r_y"].standard_normal(ny),
    )


def sample_beta(seed):
    """Penalty drawn log-uniformly over four decades, 10^-2 to 10^2."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    y = rng.uniform(-1.0, 1.0)
    return float(10.0 ** (2.0 * y))
