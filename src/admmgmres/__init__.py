"""Solvers and analysis for block saddle-point KKT systems.

ADMM as a fixed-point iteration, ADMM-preconditioned GMRES (left and
right), explicit spectral analysis of the iteration kernel, closed-form
convergence bounds, a deterministic random problem generator, and a
benchmark command line.
"""

from .admm import (
    AdmmEngine,
    IterationTrace,
    admm_solve,
    admm_step,
    affine_offset,
    make_engine,
)
from .bounds import (
    BoundCurve,
    cheb,
    curve_to_csv,
    disk_interval_bound,
    interval_bound,
    rho_factor,
    theorem_curve,
    two_interval_bound,
)
from .core import (
    Iterate,
    KktSystem,
    NumericalError,
    SaddleProblem,
    assemble_kkt,
    direct_solve,
    kkt_matvec,
    kkt_residual,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
)
from .gmres import GmresResult, LinearOperator, admm_gmres_solve, gmres
from .precond import apply_inverse, assemble_precond
from .randgen import GenSpec, haar_orthogonal, random_problem, sample_beta
from .spectral import (
    SpectralReport,
    build_iteration_matrix,
    build_k_matrix,
    classify_and_verify,
    conditioning_factors,
    dtilde_extremes,
    schur_pieces,
)

__all__ = [
    "AdmmEngine",
    "BoundCurve",
    "GenSpec",
    "GmresResult",
    "Iterate",
    "IterationTrace",
    "KktSystem",
    "LinearOperator",
    "NumericalError",
    "SaddleProblem",
    "SpectralReport",
    "admm_gmres_solve",
    "admm_solve",
    "admm_step",
    "affine_offset",
    "apply_inverse",
    "assemble_kkt",
    "assemble_precond",
    "build_iteration_matrix",
    "build_k_matrix",
    "cheb",
    "classify_and_verify",
    "conditioning_factors",
    "curve_to_csv",
    "direct_solve",
    "disk_interval_bound",
    "dtilde_extremes",
    "gmres",
    "haar_orthogonal",
    "interval_bound",
    "kkt_matvec",
    "kkt_residual",
    "load_problem",
    "make_engine",
    "problem_from_dict",
    "problem_to_dict",
    "random_problem",
    "rho_factor",
    "sample_beta",
    "save_problem",
    "schur_pieces",
    "theorem_curve",
    "two_interval_bound",
]

__version__ = "0.1.0"
