import math

import numpy as np
import pytest

from admmgmres.admm import admm_solve, make_engine
from admmgmres.core import direct_solve, kkt_residual
from admmgmres.gmres import LinearOperator, admm_gmres_solve, gmres
from admmgmres.randgen import sample_beta
from admmgmres.spectral import dtilde_extremes
from conftest import random_dims, seeded_problem


def matrix_op(M):
    return LinearOperator(len(M), lambda v: M @ v)


def well_conditioned_op(n, seed):
    rng = np.random.default_rng(seed)
    M = np.eye(n) + 0.4 * rng.standard_normal((n, n)) / math.sqrt(n)
    return matrix_op(M), M


class TestGmres:
    def test_identity_one_iteration(self):
        op = matrix_op(np.eye(5))
        rhs = np.arange(1.0, 6.0)
        out = gmres(op, rhs, tol=1e-12)
        assert out.iterations == 1
        assert np.allclose(out.solution, rhs, rtol=0, atol=1e-12)

    def test_diagonal_exact_termination(self):
        op = matrix_op(np.diag([1.0, 2.0, 3.0]))
        out = gmres(op, np.ones(3), tol=1e-12)
        assert out.iterations <= 3
        assert np.allclose(out.solution, [1.0, 0.5, 1.0 / 3.0], rtol=1e-12)

    def test_final_residual_matches_recomputed(self):
        op, M = well_conditioned_op(40, 12)
        rng = np.random.default_rng(1)
        rhs = rng.standard_normal(40)
        out = gmres(op, rhs, tol=1e-6)
        direct = np.linalg.norm(M @ out.solution - rhs)
        assert out.inner_residuals[-1] == pytest.approx(direct, rel=1e-9)

    def test_inner_residuals_non_increasing(self):
        op, _ = well_conditioned_op(30, 5)
        rng = np.random.default_rng(2)
        out = gmres(op, rng.standard_normal(30), tol=1e-10)
        assert np.all(np.diff(out.inner_residuals) <= 1e-14)

    def test_exact_finite_termination(self):
        rng = np.random.default_rng(9)
        for n in (10, 25, 60):
            M = rng.standard_normal((n, n)) + n * np.eye(n)
            op = matrix_op(M)
            rhs = rng.standard_normal(n)
            out = gmres(op, rhs, tol=1e-12, max_iter=n)
            assert out.iterations <= n
            assert np.linalg.norm(M @ out.solution - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_max_iter_below_one_raises(self):
        # the cap was clamped up to 1, so max_iter=0 ran one step
        op, _ = well_conditioned_op(8, 3)
        with pytest.raises(ValueError, match="max_iter"):
            gmres(op, np.ones(8), max_iter=0)

    def test_zero_rhs(self):
        op, _ = well_conditioned_op(8, 3)
        out = gmres(op, np.zeros(8), tol=1e-10)
        assert out.iterations == 0
        assert np.linalg.norm(out.solution) == 0.0

    def test_operator_linearity_probe(self):
        op, _ = well_conditioned_op(20, 8)
        rng = np.random.default_rng(4)
        u, v = rng.standard_normal(20), rng.standard_normal(20)
        a, b = 0.7, -2.1
        lhs = op(a * u + b * v)
        rhs = a * op(u) + b * op(v)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))

    def test_happy_breakdown_on_rank_limited_rhs(self):
        # rhs in a 2-dimensional invariant subspace ends in a breakdown
        M = np.diag([2.0, 2.0, 3.0, 4.0])
        op = matrix_op(M)
        rhs = np.array([1.0, 1.0, 1.0, 0.0])
        out = gmres(op, rhs, tol=1e-16, max_iter=4)
        assert out.breakdown
        assert np.linalg.norm(M @ out.solution - rhs) <= 1e-12


class TestAdmmGmres:
    def test_start_at_solution(self, problem42):
        trace = admm_gmres_solve(problem42, 1.0, "right", u0=direct_solve(problem42))
        assert trace.converged and trace.iterations == 0

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("beta", [0.05, 1.0, 20.0])
    def test_warm_start_near_solution(self, problem42, side, beta):
        # both sides solve for a correction from u0 and keep its residual
        rng = np.random.default_rng(3)
        u0 = direct_solve(problem42) + 1e-3 * rng.standard_normal(problem42.dim)
        trace = admm_gmres_solve(problem42, beta, side, u0=u0, epsilon=1e-8)
        res0 = kkt_residual(problem42, u0)
        assert trace.converged
        assert trace.residuals[0] == res0
        assert trace.residuals[-1] <= 1e-8 * max(res0, np.linalg.norm(problem42.rhs()))

    def test_right_side_never_behind_admm(self, problem42):
        # same start and penalty: the right-preconditioned residual stays at
        # or below the plain sweep's residual at every shared iteration
        m, ell, _ = dtilde_extremes(problem42)
        rnorm = np.linalg.norm(problem42.rhs())
        for beta in (math.sqrt(m * ell), 0.2 * m, 4.0 * ell):
            admm_trace = admm_solve(make_engine(problem42, beta), epsilon=1e-6,
                                    max_iter=50_000)
            gm_trace = admm_gmres_solve(problem42, beta, "right", epsilon=1e-6)
            n = min(len(admm_trace.residuals), len(gm_trace.residuals))
            gap = gm_trace.residuals[:n] - admm_trace.residuals[:n]
            assert np.max(gap) <= 1e-9 * rnorm

    def test_left_and_right_both_converge_but_differ(self, problem7):
        left = admm_gmres_solve(problem7, 0.9, "left", epsilon=1e-8)
        right = admm_gmres_solve(problem7, 0.9, "right", epsilon=1e-8)
        assert left.converged and right.converged
        assert left.method_tag == "admm-gmres-left"
        assert right.method_tag == "admm-gmres-right"
        n = min(len(left.residuals), len(right.residuals))
        assert np.max(np.abs(left.residuals[:n] - right.residuals[:n])) > 0

    def test_trace_records_true_residuals(self, problem42):
        trace = admm_gmres_solve(problem42, 1.3, "left", epsilon=1e-6)
        assert trace.residuals[0] == pytest.approx(
            kkt_residual(problem42, np.zeros(problem42.dim)), rel=1e-14
        )
        assert len(trace.residuals) == trace.iterations + 1
        assert trace.converged
        assert trace.residuals[-1] <= 1e-6 * trace.residuals[0]

    def test_random_penalties_stay_under_root_kappa_curve(self):
        rng = np.random.default_rng(77)
        for trial in range(8):
            nx, ny, nz = random_dims(rng, nx_max=14, total_max=60)
            p = seeded_problem(nx, ny, nz, float(rng.uniform(0.0, 1.0)), 4200 + trial)
            _, _, kappa = dtilde_extremes(p)
            if kappa > 1e4:
                continue
            beta = sample_beta(trial)
            trace = admm_gmres_solve(p, beta, "right", epsilon=1e-6)
            assert trace.converged
            assert trace.iterations <= math.ceil(17 * math.sqrt(kappa)) + 10

    def test_left_side_converges_at_extreme_penalties(self):
        # the preconditioned metric runs ahead of the true residual by up to
        # the preconditioner conditioning; the left driver must keep going
        # until the true test passes instead of trusting the inner residual
        for seed in (2, 9, 15):
            p = seeded_problem(11, 9, 4, 0.9, seed)
            for beta in (0.01, 100.0):
                trace = admm_gmres_solve(p, beta, "left", epsilon=1e-6)
                assert trace.converged, (seed, beta)
                assert trace.residuals[-1] <= 1e-6 * trace.residuals[0]

    def test_side_validation(self, problem42):
        with pytest.raises(ValueError, match="side"):
            admm_gmres_solve(problem42, 1.0, "up")

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_max_iter_validation(self, problem42, side):
        # max_iter=0 once ran one GMRES step; it is checked as in admm_solve
        for bad in (0, -3):
            with pytest.raises(ValueError, match="max_iter"):
                admm_gmres_solve(problem42, 1.0, side, max_iter=bad)
