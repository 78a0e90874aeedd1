import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admmgmres import admm
from admmgmres.admm import admm_solve, make_engine
from admmgmres.core import NumericalError, direct_solve, kkt_residual
from admmgmres.gmres import GmresResult, LinearOperator, admm_gmres_solve, gmres
from admmgmres.precond import apply_inverse
from admmgmres.randgen import sample_beta
from admmgmres.spectral import dtilde_extremes
from conftest import count_calls, random_dims, seeded_problem


def matrix_op(M):
    return LinearOperator(len(M), lambda v: M @ v)


def well_conditioned_op(n, seed):
    rng = np.random.default_rng(seed)
    M = np.eye(n) + 0.4 * rng.standard_normal((n, n)) / math.sqrt(n)
    return matrix_op(M), M


def numpy_scalar_gmres(op, rhs, tol=1e-8, max_iter=None, callback=None):
    """GMRES with its Givens update on numpy scalars and an ``np.triu`` copy of R.

    The formulation :func:`gmres` had before its rotations moved to Python
    floats; kept as a bit-for-bit oracle.
    """
    n = op.dim
    rhs = np.asarray(rhs, dtype=float)
    m = n if max_iter is None else min(max_iter, n)
    beta0 = np.linalg.norm(rhs)
    if beta0 == 0.0:
        return GmresResult(np.zeros(n), np.array([0.0]), 0, False)
    V = np.zeros((n, m + 1))
    H = np.zeros((m + 1, m))
    cs = np.zeros(m)
    sn = np.zeros(m)
    g = np.zeros(m + 1)
    V[:, 0] = rhs / beta0
    g[0] = beta0
    inner = [beta0]

    def coefficients(k):
        R = np.triu(H[:k, :k])
        try:
            return np.linalg.solve(R, g[:k])
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(R, g[:k], rcond=None)[0]

    breakdown = False
    k = 0
    for j in range(m):
        w = op(V[:, j])
        for _ in range(2):
            c = V[:, : j + 1].T @ w
            H[: j + 1, j] += c
            w -= V[:, : j + 1] @ c
        hnext = np.linalg.norm(w)
        if not np.isfinite(hnext) or not np.all(np.isfinite(H[: j + 2, j])):
            raise NumericalError(f"non-finite Arnoldi entries at iteration {j + 1}")
        H[j + 1, j] = hnext
        if hnext > 100.0 * np.finfo(float).eps * np.linalg.norm(H[: j + 2, j]):
            V[:, j + 1] = w / hnext
        else:
            breakdown = True
        for i in range(j):
            hi = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
            H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
            H[i, j] = hi
        denom = np.hypot(H[j, j], H[j + 1, j])
        if denom == 0.0:
            cs[j], sn[j] = 0.0, 1.0
        else:
            cs[j], sn[j] = H[j, j] / denom, H[j + 1, j] / denom
        H[j, j] = cs[j] * H[j, j] + sn[j] * H[j + 1, j]
        H[j + 1, j] = 0.0
        g[j + 1] = -sn[j] * g[j]
        g[j] = cs[j] * g[j]
        k = j + 1
        inner.append(abs(g[k]))
        stop = inner[-1] <= tol * beta0 or breakdown
        if callback is not None:
            stop = bool(callback(k, coefficients(k), V[:, :k])) or stop
        if stop:
            break
    x = V[:, :k] @ coefficients(k)
    return GmresResult(x, np.asarray(inner), k, breakdown)


def rank_limited_system(n, rank, rng):
    """A symmetric operator with ``rank`` distinct eigenvalues and a random rhs.

    The Krylov space has dimension ``rank`` at most, so GMRES ends in a
    happy breakdown by then.
    """
    levels = rng.uniform(0.5, 4.0, rank)
    d = levels[np.arange(n) % rank]
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (Q * d) @ Q.T, rng.standard_normal(n)


def gmres_matching_oracle(M, rhs, tol=0.0, max_iter=None, stop_at=None):
    """:func:`gmres` on ``M``, checked bit for bit against the oracle; its result.

    Both runs see the same operator; the callback's ``y`` at every step, the
    inner residuals, ``breakdown``, the step count and the solution must agree.
    """
    runs = []
    for solver in (gmres, numpy_scalar_gmres):
        ys = []

        def callback(k, y, basis, ys=ys):
            ys.append(y.tobytes())
            return k == stop_at

        out = solver(matrix_op(M), rhs, tol=tol, max_iter=max_iter, callback=callback)
        runs.append((out, ys, out.solution.tobytes(), out.inner_residuals.tobytes(),
                     out.iterations, out.breakdown))
    assert runs[0][1:] == runs[1][1:]
    return runs[0][0]


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

    def test_callback_sees_the_iterate_coefficients(self):
        op, _ = well_conditioned_op(20, 8)
        seen = []
        out = gmres(op, np.arange(20.0), tol=0.0, max_iter=5,
                    callback=lambda k, y, basis: seen.append((k, basis @ y)))
        assert [k for k, _ in seen] == [1, 2, 3, 4, 5]
        assert np.array_equal(seen[-1][1], out.solution)

    def test_happy_breakdown_on_rank_limited_rhs(self):
        # rhs in a 2-dimensional invariant subspace ends in a breakdown
        M = np.diag([2.0, 2.0, 3.0, 4.0])
        op = matrix_op(M)
        rhs = np.array([1.0, 1.0, 1.0, 0.0])
        out = gmres(op, rhs, tol=1e-16, max_iter=4)
        assert out.breakdown
        assert np.linalg.norm(M @ out.solution - rhs) <= 1e-12


    def test_non_finite_entry_names_its_iteration(self):
        # the new column is scanned only when its norm is not finite, and a
        # NaN there must still raise, naming the step
        M = well_conditioned_op(10, 6)[1]
        calls = []

        def apply(v):
            calls.append(None)
            w = M @ v
            if len(calls) == 3:
                w[4] = np.nan
            return w

        with pytest.raises(NumericalError, match="iteration 3"):
            gmres(LinearOperator(10, apply), np.ones(10), tol=0.0)

    def test_overflowing_column_norm_is_a_breakdown(self):
        # every entry of the first column is finite but its norm overflows;
        # the new direction is negligible against it, so GMRES stops there
        M = np.array([[1e200, 0.0], [1.0, 1.0]])
        with np.errstate(over="ignore"):
            out = gmres_matching_oracle(M, np.array([1.0, 0.0]))
        assert out.breakdown and out.iterations == 1
        assert np.all(np.isfinite(out.solution))


class TestBitsEqualTheNumpyScalarOracle:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
        shift=st.floats(0.0, 4.0),
        tol=st.sampled_from([0.0, 1e-12, 1e-6]),
        cap=st.one_of(st.none(), st.integers(1, 16)),
        stop_at=st.one_of(st.none(), st.integers(1, 16)),
    )
    def test_random_dense_operators(self, n, seed, shift, tol, cap, stop_at):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((n, n)) + shift * np.eye(n)
        gmres_matching_oracle(M, rng.standard_normal(n), tol, cap, stop_at)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 16), rank=st.integers(1, 15), seed=st.integers(0, 2**32 - 1))
    def test_rank_limited_rhs(self, n, rank, seed):
        M, rhs = rank_limited_system(n, min(rank, n - 1), np.random.default_rng(seed))
        gmres_matching_oracle(M, rhs)

    @pytest.mark.parametrize("n, rank", [(6, 2), (12, 3), (16, 5)])
    def test_rank_limited_rhs_ends_in_breakdown(self, n, rank):
        M, rhs = rank_limited_system(n, rank, np.random.default_rng(n))
        assert gmres_matching_oracle(M, rhs).breakdown

    @pytest.mark.parametrize("tol", [0.0, 1e-6])
    @pytest.mark.parametrize("M, rhs", [
        (np.zeros((4, 4)), np.ones(4)),
        (np.diag([1.0, 2.0, 0.0]), np.eye(3)[2]),
        (np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)[0]),
    ], ids=["zero", "singular-diagonal", "nilpotent"])
    def test_vanished_column_keeps_the_residual(self, M, rhs, tol):
        # M v_0 = 0 leaves a zero Hessenberg column and a singular R; the
        # inner residual once read 0 there, so any tol stopped as if solved
        out = gmres_matching_oracle(M, rhs, tol)
        assert out.breakdown and out.iterations == 1
        assert out.inner_residuals[-1] == np.linalg.norm(M @ out.solution - rhs) > 0


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

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("max_iter", [None, 4], ids=["converged", "capped"])
    def test_one_operator_application_per_step(self, problem42, monkeypatch, side, max_iter):
        # an Arnoldi step applies only CU and N, and reads its residual in
        # the kernel coordinate, so the P^{-1} and M counts do not grow
        # with k: one P^{-1} for b = P^{-1} s0 and one to form the iterate
        # that stops the run, one M for s0 and one for that iterate's fresh
        # residual (the full-space drivers made k + 1 and k + 2 calls)
        inverses = count_calls(monkeypatch, "apply_inverse")
        matvecs = count_calls(monkeypatch, "kkt_matvec")
        trace = admm_gmres_solve(problem42, 1.0, side, max_iter=max_iter)
        assert trace.iterations >= 4
        assert (len(inverses), len(matvecs)) == (2, 2)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_huge_max_iter_allocates_by_dimension(self, problem42, side):
        # the Krylov basis and the QR of N V are sized by min(max_iter, ny);
        # by max_iter alone this call would ask for 10**12 columns
        huge = admm_gmres_solve(problem42, 1.0, side, max_iter=10**12)
        default = admm_gmres_solve(problem42, 1.0, side)
        assert (huge.iterations, huge.converged) == (default.iterations, default.converged)
        assert huge.residuals.tobytes() == default.residuals.tobytes()
        assert huge.solution.tobytes() == default.solution.tobytes()

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_extreme_draw_converges(self, side):
        # draw 283 of the span-1e4 extreme-penalty study, kappa(P) about 1e10:
        # the full-space right driver stalled above the threshold
        p = seeded_problem(11, 5, 4, 0.9479593669328659, 4017616053)
        trace = admm_gmres_solve(p, 2.879836852326262e-06, side, epsilon=1e-6)
        assert trace.converged

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_correction_cycles_refine_a_stalled_run(self, monkeypatch, side):
        # kappa 1.9e6 at beta = 1e4 ell: the first Krylov run on the 4 x 4
        # kernel system ends at 1e-3 of the start, far above the threshold;
        # cycles started from the fresh residual r - M u meet it (seen: on
        # the third left, the second right), and the trace records every run
        p = seeded_problem(19, 4, 4, 1.593341373592157, 2649730957)
        beta = 1818917.2179890736
        trace = admm_gmres_solve(p, beta, side)
        assert trace.converged
        assert trace.iterations > 1 + p.ny
        monkeypatch.setattr(admm, "_CYCLES", 1)
        single = admm_gmres_solve(p, beta, side)
        assert not single.converged and single.iterations == 1 + p.ny

    def test_side_validation(self, problem42):
        with pytest.raises(ValueError, match="side"):
            admm_gmres_solve(problem42, 1.0, "up")

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_max_iter_validation(self, problem42, side):
        # max_iter=0 once ran one GMRES step; it is checked as in admm_solve
        for bad in (0, -3):
            with pytest.raises(ValueError, match="max_iter"):
                admm_gmres_solve(problem42, 1.0, side, max_iter=bad)


def krylov_basis(A, c, k):
    """An orthonormal basis of K_k(A, c), by Arnoldi with two full projections per vector."""
    V = c[:, None] / np.linalg.norm(c)
    for _ in range(k - 1):
        w = A @ V[:, -1]
        for _ in range(2):
            w = w - V @ (V.T @ w)
        V = np.column_stack((V, w / np.linalg.norm(w)))
    return V


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("beta_of", [lambda m, ell: m / 100, lambda m, ell: math.sqrt(m * ell),
                                     lambda m, ell: 100 * ell], ids=["m/100", "sqrt", "100ell"])
@pytest.mark.parametrize("dims", [(6, 4, 2, 0.5, 42), (9, 5, 3, 1.0, 7), (12, 7, 7, 1.5, 3),
                                  (10, 8, 1, 0.8, 11), (19, 4, 4, 1.6, 5)],
                         ids=["6-4-2", "9-5-3", "12-7-7", "10-8-1", "19-4-4"])
def test_recorded_estimates_match_the_dense_least_squares_oracle(dims, beta_of, side):
    # entry k + 1 of a run is the true residual norm ||N (c - (I - CU) V_k y)||
    # of its k-step iterate.  The right side's y minimizes it, so the entry is
    # min ||N c + Z_k y|| for Z_k = N (CU - I) V_k formed densely; the left
    # side's y minimizes ||c - (I - CU) V_k y||.  Only the estimates are
    # compared: the last entry is a fresh residual.  Seen: within 1.4e-9.
    p = seeded_problem(*dims)
    beta = beta_of(*dtilde_extremes(p)[:2])
    engine = make_engine(p, beta)
    c = engine.offset(apply_inverse(engine, p.rhs()))
    N, I_CU = engine.N, np.eye(p.ny) - engine.CU
    trace = admm_gmres_solve(p, beta, side, max_iter=1 + p.ny)  # one run
    assert trace.iterations >= 3
    for k in range(1, trace.iterations - 1):
        V = krylov_basis(I_CU, c, k)
        if side == "right":
            Z = -N @ I_CU @ V
            want = np.linalg.norm(N @ c + Z @ np.linalg.lstsq(Z, -N @ c, rcond=None)[0])
        else:
            y = np.linalg.lstsq(I_CU @ V, c, rcond=None)[0]
            want = np.linalg.norm(N @ (c - I_CU @ V @ y))
        assert trace.residuals[k + 1] == pytest.approx(want, rel=1e-8)


def extreme_draws(span):
    """The extreme-penalty study: small problems, beta log-uniform on [m / span, span ell]."""
    rng = np.random.default_rng(7)
    for _ in range(400):
        nx = int(rng.integers(1, 13))
        ny = int(rng.integers(1, nx + 1))
        nz = int(rng.integers(1, ny + 1))
        s, seed = float(rng.uniform()), int(rng.integers(0, 2**32))
        p = seeded_problem(nx, ny, nz, s, seed)
        m, ell, _ = dtilde_extremes(p)
        lo, hi = math.log(m / span), math.log(span * ell)
        yield p, math.exp(lo + float(rng.uniform()) * (hi - lo))


@pytest.mark.parametrize("span", [1e2, 1e4, 1e6])
def test_extreme_penalty_study_converges(span):
    # the full-space drivers left 0/0, 0/1 and 4/60 (left/right) of these
    # runs unconverged at spans 1e2, 1e4 and 1e6
    unconverged = {"left": 0, "right": 0}
    for p, beta in extreme_draws(span):
        for side in unconverged:
            unconverged[side] += not admm_gmres_solve(p, beta, side, epsilon=1e-6).converged
    assert unconverged == {"left": 0, "right": 0}
