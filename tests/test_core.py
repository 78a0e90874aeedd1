import json
import re

import numpy as np
import pytest

from admmgmres.core import (
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
from conftest import seeded_problem


def tiny_problem(r=(1.0, 1.0, 1.0)):
    return SaddleProblem([[1.0]], [[1.0]], [[1.0]], [r[0]], [r[1]], [r[2]])


def brute_force_kkt(p):
    """Independent assembly: scalar loops, no block calls."""
    n = p.nx + p.nz + p.ny
    M = np.zeros((n, n))
    for i in range(p.nx):
        for j in range(p.nx):
            M[i, j] = p.D[i, j]
        for j in range(p.ny):
            M[i, p.nx + p.nz + j] = p.A[j, i]
    for i in range(p.nz):
        for j in range(p.ny):
            M[p.nx + i, p.nx + p.nz + j] = p.B[j, i]
    for i in range(p.ny):
        for j in range(p.nx):
            M[p.nx + p.nz + i, j] = p.A[i, j]
        for j in range(p.nz):
            M[p.nx + p.nz + i, p.nx + j] = p.B[i, j]
    r = np.concatenate([p.r_x, p.r_z, p.r_y])
    return M, r


class TestAssemble:
    def test_hand_example(self):
        problem = tiny_problem()
        assert np.array_equal(assemble_kkt(problem), [[1, 0, 1], [0, 0, 1], [1, 1, 0]])
        assert np.array_equal(problem.rhs(), [1, 1, 1])

    def test_exact_symmetry(self, problem42):
        M = assemble_kkt(problem42)
        assert np.max(np.abs(M - M.T)) == 0.0

    def test_against_brute_force(self, problem42):
        M, r = brute_force_kkt(problem42)
        assert np.array_equal(assemble_kkt(problem42), M)
        assert np.array_equal(problem42.rhs(), r)


class TestResidual:
    def test_direct_solution_is_small(self, problem42):
        u = direct_solve(problem42)
        rnorm = np.linalg.norm(problem42.rhs())
        assert kkt_residual(problem42, u) <= 1e-10 * rnorm

    def test_zero_iterate(self, problem42):
        res = kkt_residual(problem42, np.zeros(problem42.dim))
        assert res == pytest.approx(np.linalg.norm(problem42.rhs()), rel=1e-15)

    def test_matches_matrix_form(self, problem7):
        rng = np.random.default_rng(7)
        M, r = assemble_kkt(problem7), problem7.rhs()
        for _ in range(5):
            u = rng.standard_normal(problem7.dim)
            direct = np.linalg.norm(M @ u - r)
            assert kkt_residual(problem7, u) == pytest.approx(direct, rel=1e-14)

    @pytest.mark.parametrize("extra", [(1,), (0, 1)], ids=["long", "column"])
    def test_rejects_misshapen_vector(self, problem42, extra):
        # a (dim, 1) column must not broadcast against r into a dim x dim residual
        shape = (problem42.dim + extra[0],) + extra[1:]
        message = re.escape(f"length {problem42.dim}, got shape {shape}")
        with pytest.raises(ValueError, match=message):
            kkt_residual(problem42, np.zeros(shape))

    def test_homogeneous_scaling(self, problem42):
        # residual is absolutely homogeneous in the error u - u*
        rng = np.random.default_rng(3)
        star = direct_solve(problem42)
        d = rng.standard_normal(problem42.dim)
        r1 = kkt_residual(problem42, star + d)
        r2 = kkt_residual(problem42, star + 2 * d)
        assert r2 == pytest.approx(2 * r1, rel=1e-12)


class TestDirectSolve:
    def test_hand_example(self):
        x, z, y = direct_solve(tiny_problem())
        assert x == pytest.approx(0.0, abs=1e-12)
        assert z == pytest.approx(1.0, rel=1e-12)
        assert y == pytest.approx(1.0, rel=1e-12)

    def test_homogeneous_system(self):
        u = direct_solve(tiny_problem(r=(0.0, 0.0, 0.0)))
        assert np.linalg.norm(u) == 0.0

    def test_seed42_residual(self, problem42):
        u = direct_solve(problem42)
        res = kkt_residual(problem42, u)
        assert res <= 1e-10 * np.linalg.norm(problem42.rhs())

    def test_numerically_singular_kkt_is_refused_with_residual_and_condition(self):
        # draw p0028 of `scaling --count 60 --dim-max 12 --s-max 8 --seed 1`:
        # every block passes SaddleProblem's checks, but the refined residual
        # is about 9e-8, some 900 times the 1e-10 bound
        p = seeded_problem(6, 6, 1, 6.57067615053459, 6927792064287972650)
        with pytest.raises(NumericalError) as info:
            direct_solve(p)
        message = str(info.value)
        assert message.startswith("KKT matrix is numerically singular: direct-solve residual ")
        residual = float(re.search(r"residual (\S+),", message).group(1))
        condition = float(re.search(r"condition estimate (\S+)$", message).group(1))
        assert 1e-10 * max(1.0, np.linalg.norm(p.rhs())) < residual < 1e-6
        assert condition > 1e9

    def test_constrained_minimum(self, problem42):
        # the solution minimizes the quadratic objective over the feasible set
        import scipy.linalg as sla

        p = problem42
        u = direct_solve(p)
        ux, uz = u[: p.nx], u[p.nx : p.nx + p.nz]

        def objective(x, z):
            return 0.5 * x @ p.D @ x - p.r_x @ x - p.r_z @ z

        base = objective(ux, uz)
        null = sla.null_space(np.hstack([p.A, p.B]))
        rng = np.random.default_rng(11)
        for _ in range(10):
            d = null @ rng.standard_normal(null.shape[1])
            d *= 1e-4 / np.linalg.norm(d)
            trial = objective(ux + d[: p.nx], uz + d[p.nx :])
            assert trial >= base - 1e-12


class TestValidation:
    def test_dimension_rule(self):
        # ny > nx makes A A' singular by shape
        with pytest.raises(ValueError, match="ny <= nx"):
            SaddleProblem(np.ones((3, 2)), np.ones((3, 1)), np.eye(2),
                          np.zeros(2), np.zeros(1), np.zeros(3))

    def test_nz_range(self):
        A = np.eye(3)
        with pytest.raises(ValueError, match="nz"):
            SaddleProblem(A, np.ones((3, 4)), np.eye(3),
                          np.zeros(3), np.zeros(4), np.zeros(3))

    def test_singular_a(self):
        A = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="A A'"):
            SaddleProblem(A, np.ones((2, 1)), np.eye(2),
                          np.zeros(2), np.zeros(1), np.zeros(2))

    def test_singular_b(self):
        # a zero block is refused, not passed by 0 <= 0 after an underflow
        with pytest.raises(ValueError, match="^B'B is numerically singular: B has singular "
                                             r"values from 0\.000e\+00 to 0\.000e\+00$"):
            SaddleProblem(np.eye(2), np.zeros((2, 1)), np.eye(2),
                          np.zeros(2), np.zeros(1), np.zeros(2))

    @pytest.mark.parametrize("scale", [1e200, 1e-300])
    def test_block_check_at_extreme_scale(self, problem42, scale):
        # the singular-value ratio is compared unsquared, so a well conditioned
        # A is kept at any scale; squared, 1e200 overflowed and 1e-300 underflowed
        p = problem42
        SaddleProblem(scale * p.A, p.B, p.D, p.r_x, p.r_z, p.r_y)
        singular = scale * np.vstack((p.A[:3], p.A[:1]))  # two equal rows
        with pytest.raises(ValueError, match="^A A' is numerically singular: A has singular"):
            SaddleProblem(singular, p.B, p.D, p.r_x, p.r_z, p.r_y)

    def test_ratio_just_under_the_tolerance_is_refused(self):
        # the singular-value ratio's edge is 1e-6 at ordinary scale
        def with_ratio(ratio):
            return SaddleProblem(np.diag([1.0, ratio]), np.ones((2, 1)), np.eye(2),
                                 np.zeros(2), np.zeros(1), np.zeros(2))

        with_ratio(1.1e-6)
        with pytest.raises(ValueError, match="^A A' is numerically singular: A has singular "
                                             r"values from 9\.000e-07 to 1\.000e\+00$"):
            with_ratio(0.9e-6)

    @pytest.mark.parametrize("A, B, message", [
        (np.ones(2), np.ones((2, 1)), "block A must be a matrix, got ndim=1"),
        (np.ones((2, 0)), np.ones((2, 1)), "block A must be at least 1 x 1, got 2 x 0"),
        (np.eye(2), np.ones((3, 1)), r"block B must have 2 rows, got shape \(3, 1\)"),
    ], ids=["1-D A", "0-column A", "B rows"])
    def test_shape_refusals(self, A, B, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SaddleProblem(A, B, np.eye(2), np.zeros(2), np.zeros(1), np.zeros(2))

    def test_indefinite_d(self):
        with pytest.raises(ValueError, match="positive definite"):
            SaddleProblem(np.eye(2), np.ones((2, 1)), np.diag([1.0, -1.0]),
                          np.zeros(2), np.zeros(1), np.zeros(2))

    def test_asymmetric_d_warns_and_symmetrizes(self):
        D = np.array([[2.0, 0.1], [0.0, 2.0]])
        with pytest.warns(UserWarning, match="symmetr"):
            p = SaddleProblem(np.eye(2), np.ones((2, 1)), D,
                              np.zeros(2), np.zeros(1), np.zeros(2))
        assert np.array_equal(p.D, p.D.T)
        assert p.D[0, 1] == pytest.approx(0.05)

    def test_immutable(self, problem42):
        with pytest.raises(ValueError):
            problem42.A[0, 0] = 5.0

    def test_attributes_cannot_be_rebound(self, problem42):
        # reports reuse a problem's factorizations, so its data must not change
        other = seeded_problem(6, 4, 2, 0.5, 7)
        for name in ("A", "B", "D", "r_x", "r_z", "r_y", "nx", "ny", "nz", "dim"):
            with pytest.raises(AttributeError, match="frozen"):
                setattr(problem42, name, getattr(other, name))
            with pytest.raises(AttributeError, match="frozen"):
                delattr(problem42, name)


class TestJsonFormat:
    def test_round_trip(self, tmp_path, problem42):
        path = tmp_path / "p.json"
        save_problem(problem42, path)
        back = load_problem(path)
        for name in ("A", "B", "D", "r_x", "r_z", "r_y"):
            assert np.array_equal(getattr(back, name), getattr(problem42, name))

    def test_row_major_layout(self, problem42):
        data = problem_to_dict(problem42)
        A = np.asarray(data["A"]).reshape(problem42.ny, problem42.nx)
        assert np.array_equal(A, problem42.A)
        assert data["nx"] == 6 and data["ny"] == 4 and data["nz"] == 2

    def test_deeply_nested_file_raises_value_error_naming_it(self, tmp_path):
        # the JSON parser's RecursionError once escaped load_problem
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(repr(str(path)))):
            load_problem(str(path))

    def test_missing_field(self):
        with pytest.raises(ValueError, match="missing field"):
            problem_from_dict({"nx": 1, "ny": 1, "nz": 1})

    def test_identity_a_import_path(self, tmp_path):
        # externally exported systems with A = I travel through the same format
        p = seeded_problem(5, 5, 2, 0.4, 3)
        data = problem_to_dict(p)
        data["A"] = np.eye(5).ravel().tolist()
        path = tmp_path / "newton.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        back = load_problem(path)
        assert np.array_equal(back.A, np.eye(5))
        direct_solve(back)

    def test_matvec_matches_assembled(self, problem7):
        rng = np.random.default_rng(0)
        M = assemble_kkt(problem7)
        v = rng.standard_normal(problem7.dim)
        assert np.allclose(kkt_matvec(problem7, v), M @ v, rtol=1e-14, atol=0)
