import numpy as np
import pytest
import scipy.linalg as sla

from admmgmres.admm import make_engine
from admmgmres.core import SaddleProblem, assemble_kkt
from admmgmres.precond import apply_inverse, assemble_precond, sweep_columns
from admmgmres.spectral import build_iteration_matrix
from conftest import seeded_problem


def cho_solve_apply_inverse(engine, v):
    """P(beta)^{-1} v through ``scipy.linalg.cho_solve`` and C-ordered factors.

    The formulation :func:`apply_inverse` had before it called LAPACK's
    ``dpotrs`` directly; kept as a bit-for-bit oracle.
    """
    p, beta = engine.problem, engine.beta
    A, B = p.A, p.B
    nx, nz = p.nx, p.nz
    v1, v2, v3 = v[:nx], v[nx : nx + nz], v[nx + nz :]
    w1 = v1 + beta * (A.T @ v3)
    w2 = v2 + beta * (B.T @ v3)
    x = sla.cho_solve((np.ascontiguousarray(engine.local_factor), True), w1)
    L = np.ascontiguousarray(engine.global_factor)
    z = sla.cho_solve((L, True), w2 / beta - B.T @ (A @ x))
    y = beta * (A @ x + B @ z - v3)
    return np.concatenate([x, z, y])


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

    @pytest.mark.parametrize("dims", [(1, 1, 1), (6, 4, 2), (12, 9, 9), (40, 25, 7)])
    @pytest.mark.parametrize("beta", [1e-6, 0.3, 1.0, 2e5])
    def test_bits_equal_the_cho_solve_oracle(self, dims, beta):
        # vectors, C- and F-ordered blocks, and a block of the columns
        # (P - M)[:, nx:] that build_iteration_matrix and the spectral
        # report apply P^{-1} to, here beside r
        p = seeded_problem(*dims, 0.7, sum(dims))
        eng = make_engine(p, beta)
        rng = np.random.default_rng(len(dims) + p.dim)
        blocks = [
            rng.standard_normal(p.dim),
            p.rhs(),
            rng.standard_normal((p.dim, 3)),
            np.asfortranarray(rng.standard_normal((p.dim, 4))),
            np.column_stack((sweep_columns(eng), p.rhs())),
        ]
        for v in blocks:
            out = apply_inverse(eng, v)
            assert out.shape == v.shape
            assert np.array_equal(out, cho_solve_apply_inverse(eng, v))

    def test_non_finite_input_propagates(self, problem42):
        # no finiteness scan: a NaN comes back as NaN for the solvers'
        # residual checks to report, instead of scipy's ValueError
        v = np.ones(problem42.dim)
        v[0] = np.nan
        out = apply_inverse(make_engine(problem42, 1.0), v)
        assert np.isnan(out).any()

    def test_length_check(self, problem42):
        # a (dim + 1, k) block is refused like a (dim + 1,) vector
        for shape in ((problem42.dim + 1,), (problem42.dim + 1, 3)):
            with pytest.raises(ValueError, match="length"):
                apply_inverse(make_engine(problem42, 1.0), np.zeros(shape))


@pytest.mark.parametrize("dims", [(6, 4, 2), (7, 5, 5), (5, 5, 1), (1, 1, 1)])
@pytest.mark.parametrize("beta", [1e-3, 0.7, 1e4])
def test_sweep_columns_are_the_assembled_difference(dims, beta):
    # bit for bit, signed zeros included, so G and the reports built on
    # these columns do not move
    p = seeded_problem(*dims, 0.5, 5)
    eng = make_engine(p, beta)
    cols = sweep_columns(eng)
    assert cols.tobytes() == (assemble_precond(eng) - assemble_kkt(p))[:, p.nx :].tobytes()


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
