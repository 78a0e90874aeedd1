import gc
import inspect
import json
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import admmgmres.spectral as spectral
from admmgmres.admm import admm_solve, admm_step, make_engine
from admmgmres.core import NumericalError, SaddleProblem
from admmgmres.gmres import admm_gmres_solve
from admmgmres.precond import apply_inverse, sweep_columns
from admmgmres.spectral import (
    build_iteration_matrix,
    build_k_matrix,
    classify_and_verify,
    conditioning_factors,
    dtilde_extremes,
    eigvec_condition,
)
from conftest import KERNEL_FIELDS, extremes_problem, random_dims, seeded_problem, spy_formed
from oracles import reference_kernel, reference_spectrum, schur_pieces


def complex_disk_radius(K, nz, grid_step=1e-3, refine_iters=60):
    """min over real eta of ||K + eta J||, J = blkdiag(I_nz, -I), by brute force.

    A grid over [-1, 1] followed by golden-section refinement; the objective
    is convex in eta, so the refinement is safe.  Complex eigenvalues of K
    lie inside the disk of this radius.
    """
    Jd = np.concatenate([np.ones(nz), -np.ones(K.shape[0] - nz)])

    def objective(eta):
        return np.linalg.norm(K + np.diag(eta * Jd), 2)

    etas = np.arange(-1.0, 1.0 + grid_step / 2, grid_step)
    values = [objective(e) for e in etas]
    i = int(np.argmin(values))
    a, b = etas[max(i - 1, 0)], etas[min(i + 1, len(etas) - 1)]
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(refine_iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = objective(d)
    return min(values[i], fc, fd)


def fresh_copy(p):
    """A new problem object built from the same arrays: it shares nothing cached."""
    return SaddleProblem(p.A, p.B, p.D, p.r_x, p.r_z, p.r_y)


def identity_a_problem(d_eigs, nz, seed=0):
    rng = np.random.default_rng(seed)
    n = len(d_eigs)
    B = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :nz]
    return SaddleProblem(np.eye(n), B, np.diag(d_eigs),
                         rng.standard_normal(n), rng.standard_normal(nz),
                         rng.standard_normal(n))


class TestExtremes:
    def test_identity_case(self):
        p = identity_a_problem([1.0, 1.0], 1)
        m, ell, kappa = dtilde_extremes(p)
        assert (m, ell, kappa) == pytest.approx((1.0, 1.0, 1.0), rel=1e-12)

    def test_diagonal_case(self):
        p = identity_a_problem([2.0, 0.5], 1)
        m, ell, kappa = dtilde_extremes(p)
        assert m == pytest.approx(0.5, rel=1e-12)
        assert ell == pytest.approx(2.0, rel=1e-12)
        assert kappa == pytest.approx(4.0, rel=1e-12)

    def test_brackets_independent_eigenvalues(self, problem42):
        # 1/m and 1/ell must bracket the spectrum of A D^{-1} A' computed
        # independently with a symmetric solve
        m, ell, kappa = dtilde_extremes(problem42)
        W = problem42.A @ np.linalg.solve(problem42.D, problem42.A.T)
        w = np.linalg.eigvalsh(0.5 * (W + W.T))
        assert kappa >= 1.0
        assert 1.0 / m == pytest.approx(w[-1], rel=1e-10)
        assert 1.0 / ell == pytest.approx(w[0], rel=1e-10)
        assert np.all(w <= 1.0 / m + 1e-10) and np.all(w >= 1.0 / ell - 1e-10)

    def test_numerically_singular_product_raises(self):
        # draw p0028 of `scaling --count 60 --dim-max 12 --s-max 8 --seed 1`
        # passes every block check, but its A D^-1 A' has a negative computed
        # eigenvalue; it once gave ell = -1.9e5 and kappa = -5.7e17
        p = seeded_problem(6, 6, 1, 6.57067615053459, 6927792064287972650)
        with pytest.raises(NumericalError, match=r"^A D\^-1 A' is numerically singular: "
                                                 r"eigenvalues from -5\.227e-06 to 2\.982e\+12$"):
            dtilde_extremes(p)

    def test_non_finite_product_raises(self, problem42):
        # A scaled by 1e200 passes the block checks, but A D^-1 A' overflows
        p = problem42
        big = SaddleProblem(1e200 * p.A, p.B, p.D, p.r_x, p.r_z, p.r_y)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=r"^A D\^-1 A' has a non-finite entry$"):
                dtilde_extremes(big)

    def test_tiny_positive_eigenvalue_is_accepted(self):
        # A D^-1 A' = diag(1, 1e-21) exactly: every block passes and so does W
        p = SaddleProblem(np.diag([1.0, 1e-5]), np.ones((2, 1)), np.diag([1.0, 1e11]),
                          np.ones(2), np.ones(1), np.ones(2))
        m, ell, _ = dtilde_extremes(p)
        assert (m, ell) == pytest.approx((1.0, 1e21), rel=1e-12)


class TestIterationMatrix:
    @pytest.mark.parametrize("beta", [0.1, 1.0, 6.0])
    def test_zero_eigenvalue_count(self, problem42, beta):
        ev = np.linalg.eigvals(build_iteration_matrix(problem42, beta))
        assert np.sum(np.abs(ev) <= 1e-8) == problem42.nx + problem42.nz

    @pytest.mark.parametrize("beta", [0.1, 1.0, 6.0])
    def test_nonzero_eigenvalues_in_half_disk(self, problem42, beta):
        ev = np.linalg.eigvals(build_iteration_matrix(problem42, beta))
        k_norm = np.linalg.norm(build_k_matrix(problem42, beta).K, 2)
        nonzero = ev[np.abs(ev) > 1e-8]
        assert np.all(np.abs(nonzero - 0.5) <= k_norm / 2 + 1e-8)

    def test_consistent_with_sweep(self, problem7):
        beta = 0.8
        G = build_iteration_matrix(problem7, beta)
        eng = make_engine(problem7, beta)
        b = apply_inverse(eng, problem7.rhs())
        rng = np.random.default_rng(3)
        u = rng.standard_normal(problem7.dim)
        expected = admm_step(eng, u)
        assert np.linalg.norm(G @ u + b - expected) <= 1e-9 * np.linalg.norm(expected)

    def test_dimension_guard(self):
        p = seeded_problem(150, 140, 120, 0.2, 1)
        with pytest.raises(ValueError, match="dimension"):
            build_iteration_matrix(p, 1.0)


class TestSchur:
    @pytest.mark.parametrize("dims", [(6, 4, 2), (7, 5, 5), (5, 5, 1)])
    def test_qr_pieces(self, dims):
        nx, ny, nz = dims
        p = seeded_problem(nx, ny, nz, 0.5, 31)
        pieces = schur_pieces(p, 1.0)
        assert np.linalg.norm(pieces.Q @ pieces.R - p.B) <= 1e-10 * np.linalg.norm(p.B)
        assert np.max(np.abs(pieces.Q.T @ pieces.P)) <= 1e-12 if pieces.P.size else True
        frame = np.hstack([pieces.Q, pieces.P])
        assert np.max(np.abs(frame.T @ frame - np.eye(ny))) <= 1e-12
        assert np.allclose(np.triu(pieces.R), pieces.R)
        assert np.all(np.diag(pieces.R) >= 0)

    # problem42 (6-4-2) at three fixed penalties, then problems with an empty
    # complement (nz = ny) and with nz = 1, and penalties far outside [m, ell]
    SCHUR_CASES = [pytest.param((6, 4, 2), beta, id=str(beta)) for beta in (0.3, 1.0, 4.0)] + [
        pytest.param(dims, beta, id="-".join(map(str, (*dims, beta))))
        for dims in ((6, 4, 2), (7, 5, 5), (6, 4, 1))
        for beta in (0.3, 1.0, 4.0, "m/100", "100ell")
        if dims != (6, 4, 2) or isinstance(beta, str)
    ]

    @pytest.mark.parametrize("dims, beta", SCHUR_CASES)
    def test_block_triangularization(self, dims, beta):
        # S (U' G U) S^{-1} must be block upper triangular with zero corner
        # blocks, and its middle block must be the half-shifted kernel
        p = seeded_problem(*dims, 0.5, 42)
        m, ell, _ = dtilde_extremes(p)
        beta = {"m/100": m / 100.0, "100ell": 100.0 * ell}.get(beta, beta)
        nx, ny, nz = p.nx, p.ny, p.nz
        G = build_iteration_matrix(p, beta)
        pieces = schur_pieces(p, beta)
        T = pieces.S @ (pieces.U.T @ G @ pieces.U) @ np.linalg.inv(pieces.S)
        scale = np.linalg.norm(G)
        assert np.max(np.abs(T[:nx, :nx])) <= 1e-8 * scale
        assert np.max(np.abs(T[nx:, :nx])) <= 1e-8 * scale
        assert np.max(np.abs(T[nx + ny:, nx:])) <= 1e-8 * scale
        K = build_k_matrix(p, beta).K
        mid = T[nx:nx + ny, nx:nx + ny]
        assert np.linalg.norm(mid - 0.5 * (np.eye(ny) + K)) <= 1e-8 * max(1.0, scale)


class TestKernel:
    @pytest.mark.parametrize("dims", [(6, 4, 2), (8, 6, 3), (7, 5, 5)])
    def test_j_symmetry(self, dims):
        nx, ny, nz = dims
        p = seeded_problem(nx, ny, nz, 0.7, 13)
        K = build_k_matrix(p, 0.9).K
        J = np.diag(np.concatenate([np.ones(nz), -np.ones(ny - nz)]))
        JK = J @ K
        assert np.linalg.norm(JK - JK.T) <= 1e-10

    def test_one_kernel_sweep_per_kernel(self, problem42, monkeypatch):
        # K is read off the solvers' own sweep: one CU per build_k_matrix,
        # at the caller's problem and penalty, and one per report
        formed = spy_formed(monkeypatch, "CU")
        K = build_k_matrix(problem42, 1.3).K
        assert len(formed) == 1
        assert formed[0].problem is problem42 and formed[0].beta == 1.3
        report = classify_and_verify(problem42, 1.3)
        assert len(formed) == 2
        assert np.array_equal(np.linalg.eig(K)[0], report.eigenvalues)

    def test_report_factors_once_and_forms_no_residual_map(self, problem42, monkeypatch):
        # the report reads K off the engine it factors for P and G, so one
        # make_engine per report, and N, which only the solvers read, is not formed
        engines, original = [], spectral.make_engine
        monkeypatch.setattr(spectral, "make_engine",
                            lambda *args: engines.append(original(*args)) or engines[-1])
        formed = spy_formed(monkeypatch, "N")
        classify_and_verify(problem42, 1.3)
        assert len(engines) == 1 and formed == []
        assert vars(engines[0]).keys() & KERNEL_FIELDS == {"T", "CU"}

    @pytest.mark.parametrize("where", ["3 ell", "sqrt(m ell)"])
    def test_frame_of_an_ill_conditioned_b(self, where):
        # kappa(B) = 7.9e5: a Cholesky-QR frame Q' = L_B^{-1} B' lost
        # orthogonality like kappa(B)^2 eps, which put J K 4e-6 (relative)
        # off symmetric and eig(CU) 3e-6 off (1 + eig K_ref) / 2
        p = seeded_problem(40, 30, 12, 0.3, 7)
        U, _, Vt = np.linalg.svd(p.B, full_matrices=False)
        p = SaddleProblem(p.A, (U * np.logspace(0.0, -5.9, p.nz)) @ Vt, p.D, p.r_x, p.r_z, p.r_y)
        m, ell, _ = dtilde_extremes(p)
        beta = 3.0 * ell if where == "3 ell" else math.sqrt(m * ell)
        K = build_k_matrix(p, beta).K
        JK = K * np.where(np.arange(p.ny) < p.nz, 1.0, -1.0)[:, None]
        assert np.linalg.norm(JK - JK.T) <= 1e-15 * np.linalg.norm(K)
        ref = np.linalg.eigvals(reference_kernel(p, beta))
        for eigs, want in ((np.linalg.eigvals(K), ref),
                           (np.linalg.eigvals(make_engine(p, beta).CU), (1.0 + ref) / 2.0)):
            gap = np.abs(eigs[:, None] - want[None, :])
            rows, cols = linear_sum_assignment(gap)
            assert np.max(gap[rows, cols]) <= 1e-12

    def test_blocks_match_structure(self):
        p = seeded_problem(6, 4, 2, 0.5, 42)
        blocks = build_k_matrix(p, 1.7)
        top = np.hstack([blocks.X, blocks.Z])
        bottom = np.hstack([-blocks.Z.T, blocks.Y])
        assert np.allclose(np.vstack([top, bottom]), blocks.K, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("beta", [0.05, 0.61, 1.0, 2.9, 40.0])
    def test_norm_formula(self, problem42, beta):
        m, ell, _ = dtilde_extremes(problem42)
        gamma = max(beta / m, ell / beta)
        k_norm = np.linalg.norm(build_k_matrix(problem42, beta).K, 2)
        assert abs(k_norm - (gamma - 1) / (gamma + 1)) <= 1e-8 * k_norm

    def test_pinned_extremes_values(self):
        # m = 0.125, ell = 8: at beta = 1 the rescaled parameter is 8 and the
        # kernel norm is 7/9
        p = extremes_problem(ny=8, nz=4, m=0.125, ell=8.0, seed=3)
        m, ell, _ = dtilde_extremes(p)
        gamma = max(1.0 / m, ell)
        assert gamma == pytest.approx(8.0, rel=1e-10)
        k_norm = np.linalg.norm(build_k_matrix(p, 1.0).K, 2)
        assert k_norm == pytest.approx(7.0 / 9.0, rel=1e-10)

    def test_off_diagonal_block_bound(self):
        rng = np.random.default_rng(19)
        for trial in range(4):
            nx, ny, nz = random_dims(rng, nx_max=10)
            if nz == ny:
                nz = max(1, ny - 1)
            p = seeded_problem(nx, ny, nz, 0.8, 300 + trial)
            m, ell, kappa = dtilde_extremes(p)
            for beta in (0.3, 1.0, 7.0):
                gamma = max(beta / m, ell / beta)
                Z = build_k_matrix(p, beta).Z
                assert np.linalg.norm(Z, 2) <= kappa / (gamma + kappa) + 1e-9

    def test_complex_count_and_disk(self):
        rng = np.random.default_rng(29)
        for trial in range(4):
            nx, ny, nz = random_dims(rng, nx_max=10)
            p = seeded_problem(nx, ny, nz, 0.9, 400 + trial)
            for beta in (0.5, 1.4):
                K = build_k_matrix(p, beta).K
                k_norm = np.linalg.norm(K, 2)
                ev = np.linalg.eigvals(K)
                complex_ev = ev[np.abs(ev.imag) > 1e-8 * max(1.0, k_norm)]
                assert len(complex_ev) <= 2 * min(nz, ny - nz)
                if len(complex_ev):
                    radius = complex_disk_radius(K, nz)
                    assert np.all(np.abs(complex_ev) <= radius + 1e-7)

    def test_disk_radius_matches_closed_form(self, problem42):
        # the shifted-norm minimum has the same closed form as the kernel
        # contrast spread
        m, ell, kappa = dtilde_extremes(problem42)
        for beta in (0.4, 1.0, 2.0):
            gamma = max(beta / m, ell / beta)
            K = build_k_matrix(problem42, beta).K
            radius = complex_disk_radius(K, problem42.nz)
            formula = kappa / (gamma + kappa) - 1.0 / (gamma + 1.0)
            assert radius == pytest.approx(formula, abs=1e-6)


class TestClassification:
    def test_balanced_penalty_is_disk_regime_boundary(self, problem42):
        m, ell, kappa = dtilde_extremes(problem42)
        report = classify_and_verify(problem42, math.sqrt(m * ell))
        assert report.regime == "disk_and_interval"
        assert report.gamma == pytest.approx(math.sqrt(kappa), rel=1e-12)
        disk = kappa / (report.gamma + kappa) - 1.0 / (report.gamma + 1.0)
        assert disk >= 0.0

    def test_two_interval_regime_is_populated(self):
        rng = np.random.default_rng(31)
        for trial in range(4):
            nx, ny, nz = random_dims(rng, nx_max=10)
            if not 0 < nz < ny:
                nz = max(1, ny - 1)
                if nz == ny:
                    continue
            p = seeded_problem(nx, ny, nz, 0.7, 500 + trial)
            m, ell, kappa = dtilde_extremes(p)
            report = classify_and_verify(p, 2.5 * ell)
            assert report.regime == "two_intervals"
            assert report.enclosure_ok
            assert np.any(report.eigenvalues.real > 0)
            assert np.any(report.eigenvalues.real < 0)

    def test_real_regime_conditioning(self):
        rng = np.random.default_rng(37)
        for trial in range(4):
            nx, ny, nz = random_dims(rng, nx_max=10)
            p = seeded_problem(nx, ny, nz, 0.8, 600 + trial)
            m, ell, _ = dtilde_extremes(p)
            for beta, margin in ((2.0 * ell, 2.0), (m / 2.0, 2.0)):
                report = classify_and_verify(p, beta)
                k_norm = report.k_norm
                assert np.all(np.abs(report.eigenvalues.imag) <= 1e-8 * max(1.0, k_norm))
                assert report.kappa_X is not None
                assert report.kappa_X <= 1.0 + 1.0 / (margin - 1.0) + 1e-6

    def test_report_fields_and_json(self, problem42):
        report = classify_and_verify(problem42, 1.0)
        assert report.kappa == pytest.approx(report.ell / report.m, rel=1e-12)
        assert report.gamma >= math.sqrt(report.kappa) * (1 - 1e-12)
        assert abs(report.k_norm - (report.gamma - 1) / (report.gamma + 1)) <= 1e-8 * report.k_norm
        assert np.all(np.abs(report.eigenvalues) <= report.k_norm + 1e-8)
        data = json.loads(report.to_json())
        assert set(data) == {
            "m", "ell", "kappa", "gamma", "k_norm", "eigenvalues", "regime",
            "enclosure_ok", "c1", "kappa_P", "kappa_X", "kappa_M",
        }
        assert len(data["eigenvalues"]) == problem42.ny


# Penalties outside [m, ell] as (end, factor): beta = factor * m or factor * ell.
OUTSIDE = ([("ell", 1.0 + d) for d in (1e-1, 1e-5, 1e-9, 1e-11)]
           + [("m", 1.0 - d) for d in (1e-1, 1e-5, 1e-9, 1e-11)]
           + [("m", 1e-6), ("ell", 1e6)])


class TestSymmetricRoute:
    @pytest.mark.parametrize("dims", [(6, 4, 2, 0.5, 42), (7, 5, 3, 0.6, 7), (16, 11, 4, 1.5, 11)],
                             ids=["p42", "p7", "p16"])
    @pytest.mark.parametrize("end, factor", OUTSIDE, ids=[f"{e}*{f:.12g}" for e, f in OUTSIDE])
    def test_outside_matches_the_eig_route(self, dims, end, factor):
        # outside [m, ell] the report reads K's spectrum off eigh: exactly
        # real and ascending, and the eig route's values to roundoff, also
        # within 1e-11 of an end, where the eigenvalues of W K W^{-1} and the
        # kappa_X of the plain pull-back X = W^{-1} V drift
        p = seeded_problem(*dims)
        m, ell, _ = dtilde_extremes(p)
        beta = factor * (m if end == "m" else ell)
        assert not m <= beta <= ell
        K = build_k_matrix(p, beta).K
        report = classify_and_verify(p, beta)
        eigs, k_norm, kappa_x = reference_spectrum(K, p.nz)
        assert np.all(np.imag(report.eigenvalues) == 0.0)
        assert np.all(np.diff(report.eigenvalues.real) >= 0.0)
        assert np.max(np.abs(np.sort_complex(eigs) - report.eigenvalues)) <= 1e-12 * max(1.0, k_norm)
        assert report.k_norm == pytest.approx(k_norm, rel=1e-10)
        assert (report.kappa_X is None) == (kappa_x is None)
        if kappa_x is not None:
            assert report.kappa_X == pytest.approx(kappa_x, rel=1e-10)
        assert eigvec_condition(K, p.nz) == report.kappa_X

    @pytest.mark.parametrize("beta", [0.6, 1.3, 4.0])
    def test_inside_keeps_the_eig_route(self, problem42, beta):
        # inside [m, ell] = [0.380, 4.466] nothing is definite: eig's
        # eigenvalues and kappa_X to the bit, ||K|| from the eigh of J K
        K = build_k_matrix(problem42, beta).K
        report = classify_and_verify(problem42, beta)
        eigs, k_norm, kappa_x = reference_spectrum(K, problem42.nz)
        assert np.array_equal(eigs, report.eigenvalues)
        assert report.kappa_X == kappa_x == eigvec_condition(K, problem42.nz)
        assert report.k_norm == pytest.approx(k_norm, rel=1e-10)


class TestConditioningFactors:
    def test_condition_numbers_at_least_one(self, problem42):
        c1, kappa_p, kappa_x, kappa_m = conditioning_factors(problem42, 1.0)
        assert kappa_p >= 1.0
        assert kappa_m >= 1.0
        assert c1 > 0.0
        if kappa_x is not None:
            assert kappa_x >= 1.0

    def test_real_regime_eigvec_bound(self, problem7):
        m, ell, _ = dtilde_extremes(problem7)
        beta = 3.0 * ell
        _, _, kappa_x, _ = conditioning_factors(problem7, beta)
        assert kappa_x is not None
        assert kappa_x <= 1.0 + 1.0 / (beta / ell - 1.0) + 1e-6

    def test_extreme_penalty_spectral_radius_floor(self):
        # far outside [m, ell] the sweep matrix keeps an eigenvalue of
        # modulus at least (gamma - kappa)/(gamma + kappa)
        rng = np.random.default_rng(41)
        for trial in range(3):
            nx, ny, nz = random_dims(rng, nx_max=9)
            if not 0 < nz < ny:
                continue
            p = seeded_problem(nx, ny, nz, 0.6, 700 + trial)
            m, ell, kappa = dtilde_extremes(p)
            for beta in (3.0 * ell, m / 3.0):
                gamma = max(beta / m, ell / beta)
                ev = np.linalg.eigvals(build_iteration_matrix(p, beta))
                floor = (gamma - kappa) / (gamma + kappa)
                assert np.max(np.abs(ev)) >= floor - 1e-8

    def test_eigvec_condition_sends_a_k_that_is_not_j_symmetric_to_eig(self):
        # sym(J K) is definite here, but J K is not symmetric, so W^{-1} V
        # holds no eigenvectors of K; it once gave 1.4233
        noise = np.random.default_rng(0).standard_normal((4, 4))
        K = np.diag([2.0, 1.5, -1.0, -2.0]) + 0.3 * noise
        kappa_x = eigvec_condition(K, 2)
        assert kappa_x == eigvec_condition(K) == reference_spectrum(K, 2)[2]
        assert kappa_x == pytest.approx(1.7583, abs=1e-4)

    def test_eigvec_condition_none_for_defective(self):
        K = np.array([[0.5, 1.0], [0.0, 0.5]])  # Jordan block, not diagonalizable
        assert eigvec_condition(K, 1) is None
        # the cutoff is a module constant: the one value ever passed was the default
        assert list(inspect.signature(eigvec_condition).parameters) == ["K", "nz"]

    def test_dimension_guard(self):
        p = seeded_problem(150, 140, 120, 0.2, 1)
        with pytest.raises(ValueError, match="dimension"):
            conditioning_factors(p, 1.0)


PENALTIES = {"1e-6m": lambda m, ell: 1e-6 * m, "m/100": lambda m, ell: m / 100.0,
             "sqrt": lambda m, ell: math.sqrt(m * ell), "100ell": lambda m, ell: 100.0 * ell,
             "1e6ell": lambda m, ell: 1e6 * ell}


class TestOperatorFactors:
    """kappa_P, ||G||_2 and kappa_M from operator products and ``eigvalsh``, not dense SVDs."""

    @pytest.mark.parametrize("where", list(PENALTIES))
    @pytest.mark.parametrize("dims", [(12, 8, 4, 0.5, 1), (9, 6, 6, 1.5, 5)], ids=["24", "21"])
    def test_kappa_p_against_40_digit_singular_values(self, dims, where):
        # at 1e-6 m (kappa_P 1.8e14 and 2.6e18) the dense cond(P) was 2.1e-3
        # and 0.44 off, and this route 2.1e-15 and 6.0e-16; at 1e6 ell both
        # routes hold eps kappa_P
        import mpmath

        p = seeded_problem(*dims)
        beta = PENALTIES[where](*dtilde_extremes(p)[:2])
        P = spectral.assemble_precond(make_engine(p, beta))
        with mpmath.workdps(40):
            sv = mpmath.svd_r(mpmath.matrix(P.tolist()), compute_uv=False)
            exact = float(max(sv) / min(sv))
        error = abs(classify_and_verify(p, beta).kappa_P - exact) / exact
        assert error <= np.finfo(float).eps * exact
        if where == "1e-6m":
            assert error <= 1e-12

    @pytest.mark.parametrize("where", ["m/3", "sqrt", "3ell"])
    @pytest.mark.parametrize("dims", [(6, 4, 2, 0.5, 42), (30, 20, 8, 0.8, 3), (1, 1, 1, 0.5, 2)],
                             ids=["6-4-2", "30-20-8", "1-1-1"])
    def test_g_norm_and_kappa_m_match_the_dense_routes(self, dims, where):
        # 1-1-1 has dim 3 and a G of two columns, so Lanczos there runs to a
        # complete basis
        p = seeded_problem(*dims)
        m, ell, _ = dtilde_extremes(p)
        beta = {"m/3": m / 3.0, "sqrt": math.sqrt(m * ell), "3ell": 3.0 * ell}[where]
        G = build_iteration_matrix(p, beta)[:, p.nx:]
        g_norm = math.sqrt(spectral._lambda_max(lambda v: G.T @ (G @ v), G.shape[1]))
        assert g_norm == pytest.approx(np.linalg.norm(G, 2), rel=1e-12, abs=0)
        kappa_m = classify_and_verify(p, beta).kappa_M
        assert kappa_m == pytest.approx(np.linalg.cond(spectral.assemble_kkt(p), 2), rel=1e-12)
        P = spectral.assemble_precond(make_engine(p, beta))
        assert classify_and_verify(p, beta).kappa_P == pytest.approx(np.linalg.cond(P, 2),
                                                                     rel=1e-12, abs=0)

    @pytest.mark.parametrize("dims", [(6, 4, 2, 0.5, 42), (9, 6, 6, 1.5, 5), (1, 1, 1, 0.5, 2)],
                             ids=["6-4-2", "9-6-6", "1-1-1"])
    def test_transposed_solve_is_the_transposed_inverse(self, dims):
        p = seeded_problem(*dims)
        for beta in (0.05, 1.0, 20.0):
            engine = make_engine(p, beta)
            P = spectral.assemble_precond(engine)
            inv_t = np.linalg.inv(P).T
            block = spectral._apply_inverse_transpose(engine, np.eye(p.dim))
            tol = 1e3 * np.finfo(float).eps * np.linalg.cond(P, 2)
            assert np.linalg.norm(block - inv_t) <= tol * np.linalg.norm(inv_t)
            v = np.random.default_rng(1).standard_normal(p.dim)
            assert np.array_equal(spectral._apply_inverse_transpose(engine, v),
                                  spectral._apply_inverse_transpose(engine, v[:, None])[:, 0])

    @pytest.mark.parametrize("dims", [(6, 4, 2, 0.5, 42), (12, 12, 12, 0.0, 2)],
                             ids=["6-4-2", "square-spread-0"])
    def test_same_bits_on_two_calls(self, dims):
        # on the square problem of spread 0 the Krylov space of P'P from the
        # ones vector turns invariant at beta = 1, and that of P^-1 P^-T at
        # beta = 3, so Lanczos goes on from a drawn vector
        p = seeded_problem(*dims)
        for beta in (1.0, 3.0):
            first, second = classify_and_verify(p, beta), classify_and_verify(fresh_copy(p), beta)
            assert (first.c1, first.kappa_P, first.kappa_M) == (second.c1, second.kappa_P,
                                                                 second.kappa_M)

    @pytest.mark.parametrize("n", [2, 3, 10, 40])
    def test_an_invariant_start_space_goes_on_to_the_largest_eigenvalue(self, n):
        # I + 2 u u' with u orthogonal to the ones vector: the Krylov space of
        # the start vector is the eigenspace of 1, and 3 lies outside it
        u = np.zeros(n)
        u[:2] = [1.0, -1.0]
        u /= math.sqrt(2.0)
        apply = lambda v: v + 2.0 * u * (u @ v)  # noqa: E731
        assert np.array_equal(apply(np.ones(n)), np.ones(n))
        first = spectral._lambda_max(apply, n)
        assert first == pytest.approx(3.0, rel=1e-13)
        assert first == spectral._lambda_max(apply, n)

    @pytest.mark.parametrize("scale", [2.0**-600, 1e-170, 1e150, 1e300])
    def test_a_tiny_or_huge_operator_keeps_its_largest_eigenvalue(self, scale):
        # w @ w and dstebz's squared off-diagonal leave the range of doubles here
        d = np.linspace(1.0, 5.0, 30)
        assert spectral._lambda_max(lambda v: scale * d * v, 30) / scale == pytest.approx(
            5.0, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    def test_a_product_that_is_not_finite_gives_inf(self, n):
        def apply(v):
            w = np.array(v, dtype=float)
            w[0] = np.inf
            return w

        assert spectral._lambda_max(apply, n) == np.inf
        assert spectral._lambda_max(lambda v: 2.0 * v, n) == pytest.approx(2.0, rel=1e-13)

    def test_report_takes_no_dense_svd_of_p_g_or_m(self, monkeypatch):
        # the nz x nz SVD of B's factor and the ny x ny cond(X) candidates stay
        p = seeded_problem(30, 20, 8, 0.8, 3)
        shapes = []
        for name in ("svd", "cond", "norm"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, *args, _original=original, **kwargs:
                                shapes.append(np.shape(a)) or _original(a, *args, **kwargs))
        classify_and_verify(p, 1.0)
        assert shapes and all(p.dim not in shape and p.ny + p.nz not in shape
                              for shape in shapes), shapes


def engine_bytes(p, beta):
    """The bytes of both engine factors and of the sweep columns at ``beta``."""
    engine = make_engine(p, beta)
    return (engine.local_factor.tobytes(), engine.global_factor.tobytes(),
            sweep_columns(engine).tobytes())


def trace_values(trace):
    return trace.residuals.tobytes(), trace.solution.tobytes()


class TestPerProblemReuse:
    """Engines, sweeps and reports reuse the beta-independent pieces of their problem only."""

    BETAS = (0.05, 1.0, 20.0)

    def test_warm_equals_cold(self, problem7):
        for beta in self.BETAS:
            classify_and_verify(problem7, 3.0 * beta)
            warm = classify_and_verify(problem7, beta)
            cold = classify_and_verify(fresh_copy(problem7), beta)
            assert warm.to_json() == cold.to_json()

    def test_interleaved_problems_do_not_mix(self):
        # same shape, different data: a mix-up would go unnoticed by shape checks;
        # solves and reports alternate within each call
        def readers(p, beta):
            return (*engine_bytes(p, beta), classify_and_verify(p, beta).to_json(),
                    *trace_values(admm_solve(make_engine(p, beta), max_iter=5)),
                    build_k_matrix(p, beta).K.tolist(),
                    *trace_values(admm_gmres_solve(p, beta, "right", max_iter=5)),
                    dtilde_extremes(p))

        a, b = seeded_problem(7, 5, 3, 0.6, 1), seeded_problem(7, 5, 3, 0.6, 2)
        cold = {(id(p), beta): readers(fresh_copy(p), beta) for p in (a, b) for beta in self.BETAS}
        for beta in self.BETAS:
            # a cache keyed by anything coarser than the problem would give
            # the second cold problem some value of the first
            assert all(x != y for x, y in zip(cold[id(a), beta], cold[id(b), beta]))
            for p in (a, b, a):
                assert readers(p, beta) == cold[id(p), beta]

    def test_report_does_not_keep_its_problem_alive(self):
        # nor does a solve, once its engine and traces are gone
        for solve in (False, True):
            p = seeded_problem(7, 5, 3, 0.6, 3)
            if solve:
                engine = make_engine(p, 1.0)
                traces = admm_solve(engine, max_iter=5), admm_gmres_solve(p, 1.0, "right")
                del engine, traces
            else:
                classify_and_verify(p, 1.0)
            ref = weakref.ref(p)
            del p
            gc.collect()
            assert ref() is None

    def test_threads_alternating_problems_get_cold_results(self):
        # more threads than cores, switching often, each alternating two small
        # problems so that most of the time is spent in the memo's Python code
        problems = [seeded_problem(3, 2, 1, 0.6, seed) for seed in (4, 5)]
        cold = [[(dtilde_extremes(q), engine_bytes(q, beta),
                  classify_and_verify(q, beta).to_json())
                 for beta in self.BETAS] for q in map(fresh_copy, problems)]
        results = [[] for _ in range(4)]

        def worker(index):
            for round_ in range(600):
                k, j = (index + round_) % 2, round_ % len(self.BETAS)
                extremes, factors, report = cold[k][j]
                ok = dtilde_extremes(problems[k]) == extremes
                ok = ok and engine_bytes(problems[k], self.BETAS[j]) == factors
                if round_ % 10 == 0:  # one report in ten: the memo lookups are the stress
                    ok = ok and classify_and_verify(problems[k], self.BETAS[j]).to_json() == report
                results[index].append(ok)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [len(r) for r in results] == [600] * 4
        assert all(all(r) for r in results)
