"""Hypothesis properties of the one affine map, the spectral report and GMRES.

Inputs range over shapes 1 <= nz <= ny <= nx <= 12, spreads s in [0, 1]
and penalties log-uniform over [1e-4 m, 1e4 ell].  Relative errors of the
map are bounded by 1e3 eps kappa_P, a wide multiple of what a
backward-stable solve with P(beta) promises; observed worst cases stay near
10 eps kappa_P.  The report's ||K|| and closed-form c1 are checked against
the paper's formula and the dense block-Schur scaling, and a report that
reuses its problem's beta-independent pieces equals one that does not.
Over [1e-6 m, 1e6 ell] the report keeps its regime, enclosure and norm, and
its eigenvalues are those of 2 CU - I for the solvers' kernel CU.
Right-preconditioned GMRES is checked against plain ADMM for penalties
within two orders of magnitude of [m, ell], the range over which the README
promises penalty insensitivity; further out its roundoff grows with kappa_P.
Over the same range a short ADMM solve is checked sweep by sweep against
repeated :func:`admm_step`, the factored form of the sweep; the kernel
recurrence it runs on has the spectrum (1 + eig(K)) / 2 of the paper's
operator, for a reference K built apart from the sweep, and reads each
residual right off its own state; and the iterate each solver returns is
checked against :func:`direct_solve` through the forward-error bound
||u - u*|| <= ||M^{-1}||_2 ||M u - r||.  Both GMRES sides are also checked
over [1e-6 m, 1e6 ell], where they must converge.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from admmgmres.admm import admm_solve, admm_step, make_engine
from admmgmres.core import SaddleProblem, assemble_kkt, direct_solve, kkt_residual
from admmgmres.gmres import admm_gmres_solve
from admmgmres.precond import apply_inverse, assemble_precond, sweep_columns
from admmgmres.randgen import GenSpec, random_problem
from admmgmres.spectral import (
    SpectralReport,
    build_iteration_matrix,
    classify_and_verify,
    classify_regime,
    conditioning_factors,
    dtilde_extremes,
)
from oracles import reference_kernel, schur_pieces

TOL = 1e3 * np.finfo(float).eps

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def cases(draw, span=1e4):
    """A random problem, a penalty over [m / span, span * ell], and a seed for vectors."""
    nx = draw(st.integers(1, 12))
    ny = draw(st.integers(1, nx))
    nz = draw(st.integers(1, ny))
    s = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    problem = random_problem(GenSpec(nx=nx, ny=ny, nz=nz, s=s, seed=seed))
    m, ell, _ = dtilde_extremes(problem)
    lo, hi = math.log(m / span), math.log(span * ell)
    beta = math.exp(lo + draw(st.floats(0.0, 1.0)) * (hi - lo))
    return problem, beta, np.random.default_rng(seed)


@PROPERTY
@given(cases())
def test_sweep_is_the_affine_map(case):
    problem, beta, rng = case
    engine = make_engine(problem, beta)
    kappa_p = np.linalg.cond(assemble_precond(engine), 2)
    G = build_iteration_matrix(problem, beta)
    b = apply_inverse(engine, problem.rhs())
    u = rng.standard_normal(problem.dim)
    stepped = admm_step(engine, u)
    expected = G @ u + b
    assert np.linalg.norm(stepped - expected) <= TOL * kappa_p * np.linalg.norm(expected)


@PROPERTY
@given(cases())
def test_apply_inverse_undoes_p(case):
    problem, beta, rng = case
    engine = make_engine(problem, beta)
    P = assemble_precond(engine)
    w = rng.standard_normal(problem.dim)
    back = apply_inverse(engine, P @ w)
    assert np.linalg.norm(back - w) <= TOL * np.linalg.cond(P, 2) * np.linalg.norm(w)


@PROPERTY
@given(cases())
def test_sweep_never_reads_x(case):
    problem, beta, _ = case
    G = build_iteration_matrix(problem, beta)
    assert not np.any(G[:, : problem.nx])


@PROPERTY
@given(cases())
def test_report_kernel_norm_and_enclosure(case):
    problem, beta, _ = case
    report = classify_and_verify(problem, beta)
    expected = (report.gamma - 1.0) / (report.gamma + 1.0)
    assert abs(report.k_norm - expected) <= 1e-8 * expected
    assert report.enclosure_ok


@settings(PROPERTY, max_examples=30)
@given(cases(span=1e6))
def test_report_holds_over_the_wide_penalty_range(case):
    # penalties from 1e-6 m to 1e6 ell: the report's K is read off the
    # solvers' CU, so its eigenvalues are those of 2 CU - I; the norm check
    # has a floor for K near 0 at kappa = 1
    problem, beta, _ = case
    report = classify_and_verify(problem, beta)
    assert report.regime == classify_regime(report.gamma, report.kappa)
    assert report.enclosure_ok
    expected = (report.gamma - 1.0) / (report.gamma + 1.0)
    assert abs(report.k_norm - expected) <= 1e-8 * max(report.k_norm, 1e-6)
    CU = make_engine(problem, beta).CU
    gap = np.abs(2.0 * np.linalg.eigvals(CU)[:, None] - 1.0 - report.eigenvalues[None, :])
    rows, cols = linear_sum_assignment(gap)
    assert np.max(gap[rows, cols]) <= 1e-9


@PROPERTY
@given(cases())
def test_report_c1_matches_dense_schur_scaling(case):
    problem, beta, _ = case
    S = schur_pieces(problem, beta).S
    g_norm = np.linalg.norm(build_iteration_matrix(problem, beta), 2)
    dense = np.linalg.norm(S, 2) * np.linalg.norm(np.linalg.inv(S), 2) * g_norm**2
    c1 = classify_and_verify(problem, beta).c1
    assert abs(c1 - dense) <= 1e-12 * dense


@PROPERTY
@given(cases())
def test_conditioning_factors_read_the_report(case):
    problem, beta, _ = case
    report = classify_and_verify(problem, beta)
    factors = (report.c1, report.kappa_P, report.kappa_X, report.kappa_M)
    assert conditioning_factors(problem, beta) == factors


@PROPERTY
@given(cases(), st.floats(-4.0, 4.0))
def test_warm_report_equals_cold_report(case, shift):
    problem, beta, _ = case
    classify_and_verify(problem, beta * 10.0**shift)
    warm = classify_and_verify(problem, beta)
    warm_engine = make_engine(problem, beta)
    warm_cols = sweep_columns(warm_engine)
    fresh = SaddleProblem(problem.A, problem.B, problem.D, problem.r_x, problem.r_z, problem.r_y)
    cold_engine = make_engine(fresh, beta)
    cold_cols = sweep_columns(cold_engine)
    cold = classify_and_verify(fresh, beta)
    for field in dataclasses.fields(SpectralReport):
        assert np.array_equal(getattr(warm, field.name), getattr(cold, field.name)), field.name
    for name in ("local_factor", "global_factor"):
        assert np.array_equal(getattr(warm_engine, name), getattr(cold_engine, name)), name
    assert np.array_equal(warm_cols, cold_cols)


@PROPERTY
@given(cases(span=1e2))
def test_right_gmres_never_trails_admm(case):
    problem, beta, _ = case
    gm = admm_gmres_solve(problem, beta, "right")
    ad = admm_solve(make_engine(problem, beta), max_iter=max(1, gm.iterations))
    n = min(len(gm.residuals), len(ad.residuals))
    slack = 1e-9 * np.linalg.norm(problem.rhs())
    assert np.all(gm.residuals[:n] <= ad.residuals[:n] + slack)
    assert gm.converged


@PROPERTY
@given(cases(span=1e2), st.integers(1, 8))
def test_short_solve_follows_the_step_oracle(case, k):
    # the solve sweeps through one stacked product and reads its residuals
    # from it; the oracle steps through P^{-1} factor by factor and takes a
    # fresh residual of every iterate.  The start's x block is nonzero, so
    # the first residual reads it and no later iterate may.
    problem, beta, rng = case
    engine = make_engine(problem, beta)
    u0 = rng.standard_normal(problem.dim)
    trace = admm_solve(engine, u0=u0, max_iter=k)

    iterates = [u0]
    residuals = [kkt_residual(problem, u0)]
    threshold = 1e-6 * max(residuals[0], np.linalg.norm(problem.rhs()))
    while len(iterates) <= k and residuals[-1] > threshold:
        iterates.append(admm_step(engine, iterates[-1]))
        residuals.append(kkt_residual(problem, iterates[-1]))

    assert trace.iterations == len(iterates) - 1
    bound = TOL * np.linalg.cond(assemble_precond(engine), 2)
    size = max(map(np.linalg.norm, iterates))
    assert np.linalg.norm(trace.solution - iterates[-1]) <= bound * size
    slack = bound * (np.linalg.norm(assemble_kkt(problem), 2) * size + np.linalg.norm(problem.rhs()))
    assert np.all(np.abs(trace.residuals - residuals) <= slack)


@PROPERTY
@given(cases(span=1e2))
def test_kernel_sweep_has_the_spectrum_of_the_papers_operator(case):
    # CU = (I + Kt F) / 2 is orthogonally similar to (I + K) / 2, so its
    # eigenvalues match those of K one to one within Bauer-Fike's
    # cond(X) ||E||.  K is the reference built from the eigenpairs of
    # A D^{-1} A', apart from CU.  CU is formed through the factor of
    # D + beta A'A, whose roundoff grows with gamma = max(beta / m, ell / beta);
    # seen: under 5e-3 of this bound.
    problem, beta, _ = case
    CU = make_engine(problem, beta).CU
    lam, X = np.linalg.eig(reference_kernel(problem, beta))
    m, ell, _ = dtilde_extremes(problem)
    gap = np.abs(np.linalg.eigvals(CU)[:, None] - (1.0 + lam[None, :]) / 2.0)
    rows, cols = linear_sum_assignment(gap)
    assert np.max(gap[rows, cols]) <= TOL * np.linalg.cond(X) * max(beta / m, ell / beta)


@PROPERTY
@given(cases(span=1e2))
def test_kernel_estimate_is_the_fresh_residual_of_its_iterate(case):
    # for any t the residual image N (CU - I) t + N c has the norm of
    # r - M u(t), where u(t) is one admm_step from the start moved
    # by [0; U t + b_zy]; slack as in the step-oracle test at extreme
    # penalties
    problem, beta, rng = case
    engine = make_engine(problem, beta)
    u0 = rng.standard_normal(problem.dim)
    s0 = problem.rhs() - assemble_kkt(problem) @ u0
    b = apply_inverse(engine, s0)
    c, t = engine.offset(b), rng.standard_normal(problem.ny)
    step = engine.N @ (engine.CU - np.eye(problem.ny))
    estimate = np.linalg.norm(step @ t + engine.N @ c)
    start = u0.copy()
    start[problem.nx :] += engine.lift(t) + b[problem.nx :]
    u = admm_step(engine, start)
    M, P = assemble_kkt(problem), assemble_precond(engine)
    scale = np.linalg.norm(M @ np.linalg.inv(P), 2) * np.linalg.norm(P, 2)
    size = max(map(np.linalg.norm, (u0, start, u)))
    slack = TOL * (scale * size + np.linalg.norm(problem.rhs()))
    assert abs(estimate - kkt_residual(problem, u)) <= slack


def assert_as_close_as_its_residual_allows(problem, trace):
    """The returned iterate is within its last recorded residual of the exact solution.

    u - u* = M^{-1} (M u - r) for the exact u*, so the returned iterate is
    within ||M u - r|| / sigma_min(M) of it, converged or not; the solver's
    last recorded residual is that ||M u - r||, so a solution that does not
    match it fails.  Roundoff: the recorded residual is off by about
    dim eps (||M|| ||u|| + ||r||), and direct_solve and sigma_min by about
    dim eps kappa(M) relative; rho covers both ten times over.
    """
    M = assemble_kkt(problem)
    u, exact = trace.solution, direct_solve(problem)
    sigma = np.linalg.svd(M, compute_uv=False)
    rho = 10 * problem.dim * np.finfo(float).eps * sigma[0] / sigma[-1]
    bound = (1 + rho) * trace.residuals[-1] / sigma[-1]
    assert np.linalg.norm(u - exact) <= bound + rho * (np.linalg.norm(u) + np.linalg.norm(exact))


@PROPERTY
@given(cases(span=1e2), st.sampled_from(["admm", "left", "right"]))
def test_solution_is_as_close_as_its_residual_allows(case, method):
    problem, beta, _ = case
    if method == "admm":
        trace = admm_solve(make_engine(problem, beta), max_iter=20_000)
    else:
        trace = admm_gmres_solve(problem, beta, method)
    assert_as_close_as_its_residual_allows(problem, trace)


@PROPERTY
@given(cases(span=1e6), st.sampled_from(["left", "right"]))
def test_gmres_converges_over_the_wide_penalty_range(case, side):
    # penalties from 1e-6 m to 1e6 ell, where kappa(P) reaches about 1e14:
    # the correction cycles bring either side to the threshold
    problem, beta, _ = case
    trace = admm_gmres_solve(problem, beta, side)
    assert trace.converged
    assert_as_close_as_its_residual_allows(problem, trace)
