import numpy as np
import pytest

from admmgmres.admm import make_engine
from admmgmres.core import SaddleProblem, assemble_kkt
from admmgmres.precond import apply_inverse, assemble_precond
from admmgmres.spectral import build_iteration_matrix
from conftest import seeded_problem


class TestExplicitForm:
    def test_scalar_example(self):
        p = SaddleProblem([[1.0]], [[1.0]], [[1.0]], [0.0], [0.0], [0.0])
        P = assemble_precond(make_engine(p, 1.0))
        assert np.array_equal(P, [[1, -1, 1], [0, 0, 1], [1, 1, -1]])

    def test_condition_number_at_least_one(self, problem42):
        P = assemble_precond(make_engine(problem42, 0.9))
        assert np.linalg.cond(P, 2) >= 1.0

    def test_dimension_guard(self):
        p = seeded_problem(150, 140, 120, 0.2, 1)
        with pytest.raises(ValueError, match="dimension"):
            assemble_precond(make_engine(p, 1.0))


class TestApplyInverse:
    def test_round_trip(self, problem42):
        # a (dim, k) block of vectors goes through in one call
        rng = np.random.default_rng(2)
        eng = make_engine(problem42, 0.63)
        P = assemble_precond(eng)
        W = rng.standard_normal((problem42.dim, 5))
        back = apply_inverse(eng, P @ W)
        assert np.all(np.linalg.norm(back - W, axis=0) <= 1e-9 * np.linalg.norm(W, axis=0))

    def test_zero_vector(self, problem42):
        out = apply_inverse(make_engine(problem42, 1.7), np.zeros(problem42.dim))
        assert np.linalg.norm(out) == 0.0

    def test_iteration_matrix_identity(self, problem42):
        # u - P^{-1}(M u) equals G u: the preconditioner inverts one sweep
        rng = np.random.default_rng(4)
        eng = make_engine(problem42, 1.1)
        M = assemble_kkt(problem42)
        G = build_iteration_matrix(problem42, 1.1)
        for _ in range(5):
            u = rng.standard_normal(problem42.dim)
            lhs = u - apply_inverse(eng, M @ u)
            rhs = G @ u
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(1.0, np.linalg.norm(rhs))

    def test_length_check(self, problem42):
        # a (dim + 1, k) block is refused like a (dim + 1,) vector
        for shape in ((problem42.dim + 1,), (problem42.dim + 1, 3)):
            with pytest.raises(ValueError, match="length"):
                apply_inverse(make_engine(problem42, 1.0), np.zeros(shape))


def test_spectral_radius_consistency(problem7):
    # spectral radius of I - P^{-1} M equals that of the explicit sweep matrix
    for beta in (0.4, 1.0, 2.6):
        eng = make_engine(problem7, beta)
        P = assemble_precond(eng)
        M = assemble_kkt(problem7)
        G = build_iteration_matrix(problem7, beta)
        rho_p = np.max(np.abs(np.linalg.eigvals(np.eye(problem7.dim) - np.linalg.solve(P, M))))
        rho_g = np.max(np.abs(np.linalg.eigvals(G)))
        assert rho_p == pytest.approx(rho_g, abs=1e-8)
