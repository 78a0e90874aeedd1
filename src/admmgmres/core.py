"""Dense saddle-point problem container, KKT assembly, residuals, direct solve.

The central object is :class:`SaddleProblem`, holding the blocks of the
symmetric indefinite system

    [D   0   A'] [x]   [r_x]
    [0   0   B'] [z] = [r_z]
    [A   B   0 ] [y]   [r_y]

with D symmetric positive definite, A A' invertible and B'B invertible.
A point (x, z, y) is one stacked vector [x; z; y] of length ``dim``
throughout: the solvers take one as their start and direct_solve returns one.
Everything in this package is dense and sized for desk-scale experiments
(total dimension up to a few hundred).
"""

import json
import numbers
import warnings

import numpy as np
import scipy.linalg as sla

__all__ = [
    "NumericalError",
    "SaddleProblem",
    "assemble_kkt",
    "kkt_matvec",
    "kkt_residual",
    "direct_solve",
    "problem_to_dict",
    "problem_from_dict",
    "save_problem",
    "load_problem",
]

# Singular blocks are rejected relative to the largest singular value.
_SINGULARITY_RTOL = 1e-12


class NumericalError(RuntimeError):
    """A factorization or solve failed numerically (singular or non-finite)."""


def check_beta(beta):
    """Return the penalty as a float; raise unless beta and 1/beta are finite and positive.

    P(beta) holds -(1/beta) I, so a penalty below 1/DBL_MAX is refused here
    rather than as an overflow deep inside a solve.
    """
    try:
        beta = float(beta)
    except (TypeError, ValueError):
        raise ValueError(f"beta must be a number, got {beta!r}") from None
    if not (0 < beta < np.inf and 1.0 / beta < np.inf):
        raise ValueError(f"beta must be finite and positive with a finite 1/beta, got {beta}")
    return beta


def check_epsilon(epsilon):
    """Return the tolerance ``epsilon``; raise unless it lies in (0, 1)."""
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    return epsilon


def check_max_iter(max_iter):
    """Return ``max_iter``; raise unless it is an integer of at least 1."""
    if not (isinstance(max_iter, numbers.Integral) and max_iter >= 1):
        raise ValueError(f"max_iter must be an integer of at least 1, got {max_iter!r}")
    return max_iter


def _as_block(name, value, *shape):
    block = np.array(value, dtype=float)
    if block.shape != shape:
        want = " x ".join(map(str, shape)) if len(shape) == 2 else f"a vector of length {shape[0]}"
        raise ValueError(f"block {name} must be {want}, got shape {block.shape}")
    return block


class SaddleProblem:
    """Immutable data of one saddle-point system.

    Parameters
    ----------
    A : (ny, nx) array, with ny <= nx and A A' invertible.
    B : (ny, nz) array, 1 <= nz <= ny, with B'B invertible.
    D : (nx, nx) array, symmetric positive definite.  D is symmetrized on
        input; a warning is emitted if the asymmetry exceeds 1e-12 relative
        (round-trips through text formats lose symmetry in the last digits).
    r_x, r_z, r_y : right-hand side blocks of lengths nx, nz, ny.

    Attributes
    ----------
    nx, ny, nz, dim : block sizes and the stacked total nx + nz + ny.

    Notes
    -----
    The quadratic block D lives in the x slot and is therefore nx x nx;
    conventions that size it by ny only cover the square case nx == ny.
    Instances are frozen after construction (the arrays are marked
    read-only and the attributes cannot be rebound) and safe to share across
    threads; :mod:`admmgmres.precond` relies on this when it reuses a
    problem's factorizations.
    """

    def __init__(self, A, B, D, r_x, r_z, r_y):
        A = np.array(A, dtype=float)
        if A.ndim != 2:
            raise ValueError(f"block A must be a matrix, got ndim={A.ndim}")
        ny, nx = A.shape
        if nx < 1 or ny < 1:
            raise ValueError(f"block A must be at least 1 x 1, got {ny} x {nx}")
        if ny > nx:
            raise ValueError(
                f"need ny <= nx for A A' to be invertible, got ny={ny} > nx={nx}"
            )
        B = np.array(B, dtype=float)
        if B.ndim != 2 or B.shape[0] != ny:
            raise ValueError(f"block B must have {ny} rows, got shape {B.shape}")
        nz = B.shape[1]
        if not 1 <= nz <= ny:
            raise ValueError(f"need 1 <= nz <= ny, got nz={nz}, ny={ny}")
        D = _as_block("D", D, nx, nx)
        r_x = _as_block("r_x", r_x, nx)
        r_z = _as_block("r_z", r_z, nz)
        r_y = _as_block("r_y", r_y, ny)
        # Reject inf/NaN before the SVDs below, which would fail opaquely.
        for name, block in {"A": A, "B": B, "D": D, "r_x": r_x, "r_z": r_z, "r_y": r_y}.items():
            bad = np.flatnonzero(~np.isfinite(block))
            if bad.size:
                raise ValueError(
                    f"block {name} has non-finite entry {block.flat[bad[0]]} "
                    f"at flat index {bad[0]}"
                )

        # Symmetrize D; warn only when the deviation is above roundoff scale.
        dev = np.max(np.abs(D - D.T))
        scale = max(np.max(np.abs(D)), np.finfo(float).tiny)
        if dev > 1e-12 * scale:
            warnings.warn(
                f"block D deviates from symmetry by {dev / scale:.2e} relative; "
                "symmetrizing",
                stacklevel=2,
            )
        D = 0.5 * (D + D.T)

        for name, block in (("A A'", A), ("B'B", B)):
            sv = np.linalg.svd(block, compute_uv=False)
            if sv[-1] ** 2 <= _SINGULARITY_RTOL * sv[0] ** 2:
                raise ValueError(f"{name} is numerically singular: smallest singular value "
                                 f"{sv[-1]**2:.3e} vs largest {sv[0]**2:.3e}")
        wd = np.linalg.eigvalsh(D)
        if wd[0] <= _SINGULARITY_RTOL * abs(wd[-1]):
            raise ValueError(
                f"D is not positive definite: smallest eigenvalue {wd[0]:.3e} "
                f"vs largest {wd[-1]:.3e}"
            )

        vars(self).update(A=A, B=B, D=D, r_x=r_x, r_z=r_z, r_y=r_y,
                          nx=nx, ny=ny, nz=nz, dim=nx + nz + ny)
        for arr in (A, B, D, r_x, r_z, r_y):
            arr.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError(f"SaddleProblem is frozen; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"SaddleProblem is frozen; cannot delete {name!r}")

    def rhs(self):
        """Stacked right-hand side [r_x; r_z; r_y]."""
        return np.concatenate([self.r_x, self.r_z, self.r_y])

    def __repr__(self):
        return f"SaddleProblem(nx={self.nx}, ny={self.ny}, nz={self.nz})"


def assemble_kkt(problem):
    """Assemble the dense symmetric KKT matrix M; ``problem.rhs()`` is its r.

    Zero blocks are exact zeros, so M == M' holds exactly.
    """
    A, B, D = problem.A, problem.B, problem.D
    ny, nz = problem.ny, problem.nz
    M = np.block(
        [
            [D, np.zeros((problem.nx, nz)), A.T],
            [np.zeros((nz, problem.nx)), np.zeros((nz, nz)), B.T],
            [A, B, np.zeros((ny, ny))],
        ]
    )
    return M


def stacked_parts(problem, u, block=False):
    """Row blocks (x, z, y) of a stacked vector or, with ``block``, a (dim, k) block.

    Single vectors must be exactly (dim,): a (dim, 1) column would broadcast
    against the (dim,) right-hand side into a dim x dim array.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (problem.dim,) and not (block and u.ndim == 2 and len(u) == problem.dim):
        raise ValueError(
            f"stacked vector must have length {problem.dim}, got shape {u.shape}"
        )
    nx, nz = problem.nx, problem.nz
    return u[:nx], u[nx : nx + nz], u[nx + nz :]


def kkt_matvec(problem, u):
    """Product M u of a stacked vector, computed blockwise without assembling M."""
    x, z, y = stacked_parts(problem, u)
    A, B, D = problem.A, problem.B, problem.D
    return np.concatenate([D @ x + A.T @ y, B.T @ y, A @ x + B @ z])


def kkt_residual(problem, u):
    """Euclidean norm of the KKT residual M u - r."""
    return float(np.linalg.norm(kkt_matvec(problem, u) - problem.rhs()))


def direct_solve(problem):
    """Stacked solution [x; z; y] of the KKT system by pivoted dense LU.

    One step of iterative refinement is always applied.  Raises
    :class:`NumericalError`, carrying a condition estimate, if the refined
    residual still exceeds 1e-10 * max(1, ||r||).
    """
    M, r = assemble_kkt(problem), problem.rhs()
    try:
        lu, piv = sla.lu_factor(M)
        u = sla.lu_solve((lu, piv), r)
        u += sla.lu_solve((lu, piv), r - M @ u)
    except (sla.LinAlgError, ValueError) as exc:
        raise NumericalError(
            f"LU factorization of the KKT matrix failed "
            f"(condition estimate {np.linalg.cond(M):.3e}): {exc}"
        ) from exc
    res = np.linalg.norm(M @ u - r)
    if not np.isfinite(res) or res > 1e-10 * max(1.0, np.linalg.norm(r)):
        raise NumericalError(
            f"KKT matrix is numerically singular: direct-solve residual "
            f"{res:.3e}, condition estimate {np.linalg.cond(M):.3e}"
        )
    return u


# ---------------------------------------------------------------------------
# Problem file format: a flat JSON object with dimensions and row-major
# arrays, doubling as the import path for externally exported KKT triples.
# ---------------------------------------------------------------------------

def problem_to_dict(problem):
    return {
        "nx": problem.nx,
        "ny": problem.ny,
        "nz": problem.nz,
        "A": problem.A.ravel(order="C").tolist(),
        "B": problem.B.ravel(order="C").tolist(),
        "D": problem.D.ravel(order="C").tolist(),
        "rx": problem.r_x.tolist(),
        "rz": problem.r_z.tolist(),
        "ry": problem.r_y.tolist(),
    }


def _field(data, name, read):
    """``read(data[name])``; a missing or unreadable field is a ValueError naming it."""
    if name not in data:
        raise ValueError(f"problem file is missing field {name!r}")
    try:
        return read(data[name])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"problem file field {name!r}: {exc}") from exc


def _dimension(value):
    if type(value) is not int or value < 1:
        raise ValueError(f"must be a positive integer, got {value!r}")
    return value


def problem_from_dict(data):
    if not isinstance(data, dict):
        raise ValueError(f"problem file must hold a JSON object, got {type(data).__name__}")
    nx, ny, nz = (_field(data, name, _dimension) for name in ("nx", "ny", "nz"))
    A = _field(data, "A", lambda v: np.asarray(v, dtype=float).reshape(ny, nx))
    B = _field(data, "B", lambda v: np.asarray(v, dtype=float).reshape(ny, nz))
    D = _field(data, "D", lambda v: np.asarray(v, dtype=float).reshape(nx, nx))
    r_x, r_z, r_y = (
        _field(data, name, lambda v: np.asarray(v, dtype=float)) for name in ("rx", "rz", "ry")
    )
    return SaddleProblem(A, B, D, r_x, r_z, r_y)


def save_problem(problem, path, provenance=None):
    """Write a problem to a JSON file; output is byte-deterministic."""
    data = problem_to_dict(problem)
    if provenance is not None:
        data["provenance"] = provenance
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _read_json(path):
    """The parsed JSON file ``path``; nesting too deep to parse is a ValueError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError(f"problem file {path!r} is nested too deeply to read") from None


def load_problem(path):
    return problem_from_dict(_read_json(path))
