import dataclasses
import math
import re

import numpy as np
import pytest

from admmgmres import admm, precond
from admmgmres.admm import admm_solve, admm_step, make_engine
from admmgmres.core import (
    NumericalError,
    SaddleProblem,
    assemble_kkt,
    direct_solve,
    kkt_matvec,
    kkt_residual,
)
from admmgmres.gmres import admm_gmres_solve
from admmgmres.precond import AdmmEngine, apply_inverse, assemble_precond
from admmgmres.spectral import (
    build_iteration_matrix,
    build_k_matrix,
    conditioning_factors,
    dtilde_extremes,
)
from conftest import (KERNEL_FIELDS, count_calls, extremes_problem, random_dims, seeded_problem,
                      spy_formed)
from oracles import gemv_sweeps, schur_pieces

TOL = 1e3 * np.finfo(float).eps


def square_identity_problem():
    return SaddleProblem(np.eye(2), [[1.0], [1.0]], np.eye(2),
                         np.zeros(2), np.zeros(1), np.zeros(2))


def solve_from(problem, method, u0, **kwargs):
    """Plain ADMM or one GMRES side at beta = 1 from the stacked start ``u0``."""
    if method == "admm":
        return admm_solve(make_engine(problem, 1.0), u0=u0, **kwargs)
    return admm_gmres_solve(problem, 1.0, method, u0=u0, **kwargs)


class TestEngine:
    def test_local_factor_identity_case(self):
        eng = make_engine(square_identity_problem(), 1.0)
        assert np.allclose(eng.local_factor @ eng.local_factor.T, 2 * np.eye(2),
                           rtol=0, atol=1e-14)

    def test_global_factor_column_case(self):
        eng = make_engine(square_identity_problem(), 0.3)
        assert np.allclose(eng.global_factor @ eng.global_factor.T, [[2.0]],
                           rtol=0, atol=1e-14)

    def test_reconstruction_seed42(self, problem42):
        beta = 0.37
        eng = make_engine(problem42, beta)
        local = problem42.D + beta * problem42.A.T @ problem42.A
        glob = problem42.B.T @ problem42.B
        err_l = np.linalg.norm(eng.local_factor @ eng.local_factor.T - local)
        err_g = np.linalg.norm(eng.global_factor @ eng.global_factor.T - glob)
        assert err_l <= 1e-10 * np.linalg.norm(local)
        assert err_g <= 1e-10 * np.linalg.norm(glob)

    @pytest.mark.parametrize("message", [
        "Cholesky factorization of the local block D + beta A'A failed at beta=0.5",
    ], ids=["local"])
    def test_cholesky_failure_names_its_block(self, problem42, monkeypatch, message):
        # the local block is the one Cholesky of an engine: B is factored by a QR
        cholesky, calls = np.linalg.cholesky, []

        def cholesky_failing_once(a):
            calls.append(a)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", cholesky_failing_once)
        with pytest.raises(NumericalError) as info:
            make_engine(problem42, 0.5)
        assert str(info.value) == message
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
        # a failure is never kept: the next engine factors the block afresh
        engine = make_engine(problem42, 0.5)
        assert len(calls) == 2
        local = problem42.D + 0.5 * problem42.A.T @ problem42.A
        assert np.array_equal(engine.local_factor, cholesky(local))

    def test_second_penalty_factors_only_the_local_block(self, problem42, monkeypatch):
        make_engine(problem42, 0.5)
        cholesky, calls = np.linalg.cholesky, []
        piece, formed = precond._piece, []

        def cholesky_spy(a):
            calls.append(a)
            return cholesky(a)

        def piece_spy(problem, name, compute):
            return piece(problem, name, lambda p: formed.append(name) or compute(p))

        monkeypatch.setattr(np.linalg, "cholesky", cholesky_spy)
        monkeypatch.setattr(precond, "_piece", piece_spy)
        engine = make_engine(problem42, 2.0)
        assert len(calls) == 1 and formed == []  # neither A'A nor the QR of B
        assert not engine.global_factor.flags.writeable
        assert engine.global_factor is make_engine(problem42, 3.0).global_factor

    def test_rejects_bad_beta(self, problem42):
        for entry in (make_engine, schur_pieces, build_k_matrix, build_iteration_matrix):
            # 1e-310 is positive, but P(beta) holds -(1/beta) I and 1/beta overflows
            for beta in (0.0, -2.0, math.inf, math.nan, 1e-310):
                with pytest.raises(ValueError, match="beta"):
                    entry(problem42, beta)
            # float(True) is 1.0: a JSON or keyword slip must not factor at
            # beta = 1, nor a string or a 0-d array at the value it holds
            for beta in (True, np.True_, "1e3", np.array(2.0)):
                message = rf"^beta must be a number, got {re.escape(repr(beta))}$"
                with pytest.raises(ValueError, match=message):
                    entry(problem42, beta)


class TestStep:
    def test_fixed_point(self, problem42):
        star = direct_solve(problem42)
        eng = make_engine(problem42, 1.3)
        moved = admm_step(eng, star)
        err = np.linalg.norm(moved - star)
        assert err <= 1e-8 * (1.0 + np.linalg.norm(star))

    def test_zero_data_zero_iterate(self):
        p = SaddleProblem(np.eye(2), [[1.0], [1.0]], np.eye(2),
                          np.zeros(2), np.zeros(1), np.zeros(2))
        out = admm_step(make_engine(p, 0.7), np.zeros(p.dim))
        assert np.linalg.norm(out) == 0.0

    def test_matches_iteration_matrix(self, problem7):
        # one sweep equals the explicit affine map u -> G u + b
        beta = 1.0
        eng = make_engine(problem7, beta)
        G = build_iteration_matrix(problem7, beta)
        b = apply_inverse(eng, problem7.rhs())
        rng = np.random.default_rng(17)
        for _ in range(5):
            u = rng.standard_normal(problem7.dim)
            stepped = admm_step(eng, u)
            expected = G @ u + b
            assert np.linalg.norm(stepped - expected) <= 1e-9 * np.linalg.norm(expected)


class TestAffineOffset:
    # the constant part of the sweep u -> G u + b is b = P^{-1} r
    def test_zero_rhs_gives_zero(self):
        p = SaddleProblem(np.eye(3), np.ones((3, 1)), np.diag([1.0, 2.0, 3.0]),
                          np.zeros(3), np.zeros(1), np.zeros(3))
        assert np.linalg.norm(apply_inverse(make_engine(p, 2.0), p.rhs())) == 0.0

    def test_step_is_affine(self, problem42):
        eng = make_engine(problem42, 0.9)
        b = apply_inverse(eng, problem42.rhs())
        rng = np.random.default_rng(5)
        u1 = rng.standard_normal(problem42.dim)
        u2 = rng.standard_normal(problem42.dim)
        s = lambda u: admm_step(eng, u)
        lhs = s(u1 + u2) - b
        rhs = (s(u1) - b) + (s(u2) - b)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_fixed_point_identity(self, problem7):
        # b = (I - G) u*
        beta = 1.0
        eng = make_engine(problem7, beta)
        b = apply_inverse(eng, problem7.rhs())
        star = direct_solve(problem7)
        G = build_iteration_matrix(problem7, beta)
        expected = star - G @ star
        assert np.linalg.norm(b - expected) <= 1e-8 * np.linalg.norm(b)


class TestSolve:
    def test_start_at_solution(self, problem42):
        eng = make_engine(problem42, 1.0)
        u0 = direct_solve(problem42)
        trace = admm_solve(eng, u0=u0, epsilon=1e-6)
        assert trace.converged
        assert trace.iterations == 0
        assert len(trace.residuals) == 1
        assert np.array_equal(trace.solution, u0) and trace.solution is not u0

    @pytest.mark.parametrize("method", ["admm", "left", "right"])
    @pytest.mark.parametrize("max_iter", [None, 2], ids=["converged", "capped"])
    def test_last_residual_is_the_solutions(self, problem42, method, max_iter):
        # the trace returns its final iterate, and residuals[-1] belongs to it
        kwargs = {} if max_iter is None else {"max_iter": max_iter}
        trace = solve_from(problem42, method, None, **kwargs)
        assert trace.converged == (max_iter is None)
        u = trace.solution
        assert u.shape == (problem42.dim,)
        roundoff = 1e-13 * (np.linalg.norm(assemble_kkt(problem42)) * np.linalg.norm(u)
                            + np.linalg.norm(problem42.rhs()))
        assert abs(trace.residuals[-1] - kkt_residual(problem42, u)) <= roundoff

    def test_forms_p_inverse_once(self, problem42, monkeypatch):
        # P^{-1} is applied once for b = P^{-1} s0 and once per iterate a
        # confirmation or the end forms, however many sweeps run between, and
        # not at all when the start already meets the threshold
        calls = count_calls(monkeypatch, "apply_inverse")
        confirm, confirmed = admm._Run.confirm, []
        monkeypatch.setattr(admm._Run, "confirm",
                            lambda run, u: confirmed.append(u) or confirm(run, u))
        eng = make_engine(problem42, 1.0)
        for max_iter in (2, 100_000):
            calls.clear()
            confirmed.clear()
            trace = admm_solve(eng, max_iter=max_iter)
            assert trace.iterations >= 2 and len(confirmed) <= 2
            assert len(calls) == 1 + len(confirmed)
        calls.clear()
        trace = admm_solve(eng, u0=direct_solve(problem42))
        assert trace.iterations == 0 and calls == []

    @pytest.mark.parametrize("max_iter", [None, 3], ids=["converged", "capped"])
    def test_sweeps_take_no_fresh_residual(self, problem42, monkeypatch, max_iter):
        # the loop reads each residual from its stacked product; M is applied
        # only for the start and for the one confirmation that stops the run
        # (here the first threshold hit confirms) or ends it capped
        calls = count_calls(monkeypatch, "kkt_matvec")
        kwargs = {} if max_iter is None else {"max_iter": max_iter}
        trace = admm_solve(make_engine(problem42, 1.0), **kwargs)
        assert trace.iterations >= 3 and trace.converged == (max_iter is None)
        assert len(calls) == 2

    @pytest.mark.parametrize("max_iter", [1, 2, 3, admm._BLOCK - 1, admm._BLOCK, admm._BLOCK + 1,
                                          2 * admm._BLOCK + 1, 100_000])
    def test_run_ends_on_its_last_sweep(self, problem42, max_iter):
        # a sweep forms only z and y; the x block of the final iterate is
        # built from the kernel coordinate the last sweep read, so a capped
        # or converged run ends on as many factored sweeps as it records,
        # from a start whose x block is not zero.  Sweeps run in blocks from
        # iterate 2 on, so the caps end a run before, on and after the end
        # of a block; the converged run (58 sweeps) stops inside one.  The
        # power fills the blocks from iterate 18 on (TestPowerPhase).
        engine = make_engine(problem42, 0.7)
        u0 = np.random.default_rng(4).standard_normal(problem42.dim)
        trace = admm_solve(engine, u0=u0, max_iter=max_iter)
        iterates = [u0]
        for _ in range(trace.iterations):
            iterates.append(admm_step(engine, iterates[-1]))
        assert trace.converged == (max_iter == 100_000)
        assert trace.converged or trace.iterations == max_iter
        bound = TOL * np.linalg.cond(assemble_precond(engine), 2)
        assert np.linalg.norm(trace.solution - iterates[-1]) <= bound * max(map(np.linalg.norm, iterates))

    @pytest.mark.parametrize("beta_of", [lambda m, ell: 1e-4 * m, lambda m, ell: 1e4 * ell],
                             ids=["1e-4m", "1e4ell"])
    @pytest.mark.parametrize("dims", [(6, 4, 2, 0.5, 42), (12, 12, 12, 1.0, 5)],
                             ids=["6-4-2", "12-12-12"])
    def test_estimates_follow_the_step_oracle_at_extreme_penalties(self, dims, beta_of):
        # each recorded estimate (P - M)(u_{k+1} - u_k) against the fresh
        # residual of repeated admm_step, 100 times further out than the
        # Hypothesis range.  A backward-stable solve with P moves a residual
        # by about eps ||M P^{-1}|| ||P|| ||u||; seen: below 1 eps of that.
        # The 12-12-12 run at 1e-4 m stalls at the roundoff floor: a failed
        # confirmation at iterate 6 ends its first run, and the correction
        # cycle from u_6, whose first sweep is admm_step(u_6), converges at
        # iterate 8 (it once went on to the cap at 349 times the threshold)
        problem = seeded_problem(*dims)
        engine = make_engine(problem, beta_of(*dtilde_extremes(problem)[:2]))
        u0 = np.random.default_rng(3).standard_normal(problem.dim)
        trace = admm_solve(engine, u0=u0, epsilon=1e-12, max_iter=40)
        iterates = [u0]
        for _ in range(trace.iterations):
            iterates.append(admm_step(engine, iterates[-1]))
        stalled = dims[0] == 12 and beta_of(1.0, 1.0) < 1.0
        assert (trace.iterations, trace.converged) == ((8, True) if stalled else (40, False))
        M, P = assemble_kkt(problem), assemble_precond(engine)
        scale = np.linalg.norm(M @ np.linalg.inv(P), 2) * np.linalg.norm(P, 2)
        slack = TOL * (scale * max(map(np.linalg.norm, iterates)) + np.linalg.norm(problem.rhs()))
        oracle = [kkt_residual(problem, u) for u in iterates]
        assert np.all(np.abs(trace.residuals - oracle) <= slack)

    def test_failed_confirmation_inside_a_block_ends_the_run(self, monkeypatch):
        # at beta = m / 100 and eps = 3e-12 the estimates fall below the
        # threshold from iterate 8 on, the seventh entry of the first block,
        # while the fresh residual of iterate 8 stays at the roundoff floor
        # above it (seen: 1.35 times it).  The failed confirmation must end
        # the run inside its block, leaving its fresh residual in the
        # history; the correction cycle from u_8 records iterate 9, whose
        # fresh residual meets the threshold (seen: 0.83 times it).  Before,
        # the run went on with the block and converged at iterate 10.  The
        # history must follow the admm_step oracle with the slack of the
        # extreme-penalty test above
        problem = seeded_problem(9, 9, 9, 1.2, 8)
        engine = make_engine(problem, 1e-2 * dtilde_extremes(problem)[0])
        confirm, confirmed = admm._Run.confirm, []

        def confirm_spy(run, u):  # (index of the confirmed entry, outcome)
            confirmed.append((run.iterations, confirm(run, u)))
            return confirmed[-1][1]

        monkeypatch.setattr(admm._Run, "confirm", confirm_spy)
        u0 = np.random.default_rng(1).standard_normal(problem.dim)
        trace = admm_solve(engine, u0=u0, epsilon=3e-12, max_iter=40)
        assert confirmed == [(8, False), (9, True)]
        assert 0 < (8 - 2) % admm._BLOCK < admm._BLOCK - 1
        assert trace.converged and len(trace.residuals) == trace.iterations + 1 == 10
        iterates = [u0]
        for _ in range(trace.iterations):
            iterates.append(admm_step(engine, iterates[-1]))
        M, P = assemble_kkt(problem), assemble_precond(engine)
        scale = np.linalg.norm(M @ np.linalg.inv(P), 2) * np.linalg.norm(P, 2)
        slack = TOL * (scale * max(map(np.linalg.norm, iterates)) + np.linalg.norm(problem.rhs()))
        oracle = [kkt_residual(problem, u) for u in iterates]
        assert np.all(np.abs(trace.residuals - oracle) <= slack)

    @pytest.mark.parametrize("method", ["admm", "left", "right"])
    def test_iterate_one_follows_the_stop_rule_of_a_run(self, problem42, monkeypatch, method):
        # (P - M) b read as zero makes the estimate of iterate 1 meet the
        # threshold while its fresh residual does not.  Confirmed above the
        # threshold, iterate 1 must start a correction cycle, as the last
        # iterate of an inner run does, and no inner run may start: each
        # cycle is then one admm_step, and the history its fresh residuals.
        # Once a failed confirmation of iterate 1 went on to an inner run
        p = problem42
        monkeypatch.setattr(admm, "sweep_columns", lambda eng: np.zeros((p.dim, p.nz + p.ny)))
        monkeypatch.setattr(AdmmEngine, "offset", lambda eng, b: pytest.fail("an inner run began"))
        trace = solve_from(problem42, method, None)
        engine, iterates = make_engine(problem42, 1.0), [np.zeros(problem42.dim)]
        for _ in range(admm._CYCLES):
            iterates.append(admm_step(engine, iterates[-1]))
        assert not trace.converged and trace.iterations == admm._CYCLES
        assert trace.residuals.tolist() == [kkt_residual(problem42, u) for u in iterates]
        assert np.array_equal(trace.solution, iterates[-1])

    @pytest.mark.parametrize("max_iter", [40, 400, 4000])
    def test_stall_at_the_roundoff_floor_ends_the_run(self, monkeypatch, max_iter):
        # at beta = m / 100 and eps = 1e-12 the estimate of iterate 8 meets
        # the threshold while its fresh residual stalls at 6.3 times it; a
        # correction cycle from u_8 converges at iterate 10 whatever the cap.
        # Once the run went on confirming every later sweep and ended at the
        # cap at 5.63 times the threshold, after max_iter - 7 confirmations
        problem = seeded_problem(12, 12, 12, 1.0, 5)
        engine = make_engine(problem, dtilde_extremes(problem)[0] / 100)
        confirm, confirmed = admm._Run.confirm, []

        def confirm_spy(run, u):  # (index of the confirmed entry, outcome)
            confirmed.append((run.iterations, confirm(run, u)))
            return confirmed[-1][1]

        monkeypatch.setattr(admm._Run, "confirm", confirm_spy)
        u0 = np.random.default_rng(0).standard_normal(problem.dim)
        trace = admm_solve(engine, u0=u0, epsilon=1e-12, max_iter=max_iter)
        assert confirmed == [(8, False), (10, True)]
        assert trace.converged and trace.iterations == 10
        assert trace.residuals[-1] == kkt_residual(problem, trace.solution)

    def test_non_finite_estimate_inside_a_block_names_its_iteration(self, problem42):
        # a CU scaled by 1e100 grows the difference chain d_{k+1} = CU d_k by
        # about 1e100 a sweep, so the estimate ||N d_k|| of iterate k + 1
        # overflows a few entries into the first block; the record must
        # raise there, with the message of a single non-finite entry
        engine = make_engine(problem42, 1.0)
        N = engine.N
        engine.CU = 1e100 * engine.CU
        d, k = engine.offset(apply_inverse(engine, problem42.rhs())), 2
        with np.errstate(over="ignore", invalid="ignore"):
            while math.isfinite(math.sqrt((N @ d) @ (N @ d))):
                d, k = engine.CU @ d, k + 1
            assert 2 < k < admm._BLOCK
            with pytest.raises(NumericalError, match=(
                rf"^admm at beta=1.0: non-finite KKT residual at iteration {k}; "
                rf"last finite iteration was {k - 1} with residual ")):
                admm_solve(engine)

    def test_runs_above_the_dense_guard(self):
        # the sweep builds its pieces from blocks, so the total-dimension
        # guard of the explicit constructions (400) does not apply; 100x is
        # the penalty of the bench's slowest ADMM runs
        p = seeded_problem(210, 150, 50, 0.35, 3)
        m, ell, _ = dtilde_extremes(p)
        assert p.dim == 410
        for mult in (1.0, 100.0):
            trace = admm_solve(make_engine(p, mult * math.sqrt(m * ell)))
            assert trace.converged, mult
            error = abs(trace.residuals[-1] - kkt_residual(p, trace.solution))
            assert error <= 1e-12 * trace.residuals[0], mult

    def test_prop_estimate_dominates_seed42(self, problem42):
        m, ell, kappa = dtilde_extremes(problem42)
        beta = math.sqrt(m * ell)
        c1, _, _, kappa_m = conditioning_factors(problem42, beta)
        trace = admm_solve(make_engine(problem42, beta), epsilon=1e-6, max_iter=100_000)
        bound = 2 + math.ceil((math.sqrt(kappa) + 1) * math.log(c1 * kappa_m / 1e-6))
        assert trace.converged
        assert trace.iterations <= bound

    def test_balanced_penalty_contraction(self):
        # exact extremes m = 0.125, ell = 8 make beta = 1 the balanced choice:
        # gamma = 8 and the kernel norm is 7/9
        p = extremes_problem(ny=8, nz=4, m=0.125, ell=8.0, seed=7)
        m, ell, kappa = dtilde_extremes(p)
        assert m == pytest.approx(0.125, rel=1e-10)
        assert ell == pytest.approx(8.0, rel=1e-10)
        assert kappa == pytest.approx(64.0, rel=1e-10)
        gamma = max(1.0 / m, ell / 1.0)
        assert gamma == pytest.approx(8.0, rel=1e-10)
        k_norm = (gamma - 1) / (gamma + 1)
        assert k_norm == pytest.approx(7.0 / 9.0, rel=1e-10)

        trace = admm_solve(make_engine(p, 1.0), epsilon=1e-6, max_iter=20_000)
        assert trace.converged
        res = trace.residuals
        # checked, not assumed: the residual decreases monotonically and the
        # per-iteration contraction stays at least (1 - ||K||)/2 off stagnation
        assert np.all(np.diff(res) <= 1e-12 * res[0])
        ratios = res[1:] / res[:-1]
        assert np.max(ratios) <= 1.0 - (1.0 - k_norm) / 2.0 + 0.02

    def test_converges_for_any_positive_beta(self):
        rng = np.random.default_rng(23)
        for trial in range(3):
            nx, ny, nz = random_dims(rng, nx_max=12, total_max=60)
            p = seeded_problem(nx, ny, nz, 0.5, 900 + trial)
            for beta in (0.01, 0.25, 1.0, 4.0, 100.0):
                trace = admm_solve(make_engine(p, beta), epsilon=1e-6, max_iter=10**6)
                assert trace.converged, f"beta={beta} dims={(nx, ny, nz)}"

    def test_trace_shape_and_flag(self, problem42):
        eng = make_engine(problem42, 0.5)
        trace = admm_solve(eng, epsilon=1e-6, max_iter=50_000)
        assert len(trace.residuals) == trace.iterations + 1
        assert trace.method_tag == "admm"
        assert trace.beta == 0.5
        assert trace.epsilon == 1e-6
        # zero start: the convergence flag is exactly the relative-residual test
        assert trace.converged == (trace.residuals[-1] <= 1e-6 * trace.residuals[0])
        assert trace.residuals[0] == pytest.approx(np.linalg.norm(problem42.rhs()), rel=1e-14)

    def test_max_iter_cutoff(self, problem42):
        trace = admm_solve(make_engine(problem42, 100.0), epsilon=1e-12, max_iter=3)
        assert not trace.converged
        assert trace.iterations == 3
        assert len(trace.residuals) == 4

    @pytest.mark.parametrize("method", ["admm", "left", "right"])
    def test_non_finite_warm_start_raises(self, problem42, method):
        # an inf start must not pass the relative test eps * max(inf, inf)
        u0 = np.zeros(problem42.dim)
        u0[problem42.nx + problem42.nz] = math.inf
        with pytest.raises(NumericalError, match="non-finite initial"):
            solve_from(problem42, method, u0)

    @pytest.mark.parametrize("method", ["admm", "left", "right"])
    @pytest.mark.parametrize("extra", [(1,), (0, 1)], ids=["long", "column"])
    def test_misshapen_start_raises(self, problem42, method, extra):
        # a (dim, 1) start would broadcast r - M u0 into a dim x dim array
        # and "converge" against the wrong initial residual
        shape = (problem42.dim + extra[0],) + extra[1:]
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            solve_from(problem42, method, np.zeros(shape))

    @pytest.mark.parametrize("method", ["admm", "left", "right"])
    def test_start_is_not_written_to(self, problem42, method):
        u0 = np.random.default_rng(8).standard_normal(problem42.dim)
        before = u0.copy()
        trace = solve_from(problem42, method, u0, epsilon=1e-8)
        assert trace.iterations > 0
        assert u0.tobytes() == before.tobytes()

    def test_parameter_validation(self, problem42):
        eng = make_engine(problem42, 1.0)
        with pytest.raises(ValueError, match="epsilon"):
            admm_solve(eng, epsilon=1.5)
        # None once crashed with a TypeError mid-loop, 2.5 ran 3 sweeps and
        # True, an int to isinstance, ran one
        for bad in (0, None, 2.5, True):
            message = rf"^max_iter must be an integer of at least 1, got {bad!r}$"
            with pytest.raises(ValueError, match=message):
                admm_solve(eng, epsilon=1e-6, max_iter=bad)

    @pytest.mark.parametrize("method", ["admm", "left", "right"])
    @pytest.mark.parametrize("bad", ["1e-6", None, 1e-6 + 0j, np.array([1e-6]), True, np.True_],
                             ids=["str", "None", "complex", "array", "True", "np.True_"])
    def test_rejects_an_epsilon_that_is_not_a_real_number(self, problem42, method, bad):
        # the first three once raised a bare TypeError from the comparison,
        # the array passed and became the trace's epsilon, and the bools
        # were read as 1
        message = rf"^epsilon must be a number, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            solve_from(problem42, method, None, epsilon=bad)

    @pytest.mark.parametrize("method", ["admm", "left", "right"])
    def test_epsilon_is_kept_as_a_float(self, problem42, method):
        trace = solve_from(problem42, method, None, epsilon=np.float32(1e-6))
        assert type(trace.epsilon) is float and trace.epsilon == float(np.float32(1e-6))
        assert trace.converged

    def test_non_finite_iterate_raises(self, problem42):
        # at beta = 1e-200 the first sweep overflows; the trace must not end in inf
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericalError,
            match=r"^admm at beta=1e-200: non-finite KKT residual at iteration 1; "
                  "last finite iteration was 0",
        ):
            admm_solve(make_engine(problem42, 1e-200))

    @pytest.mark.parametrize("method", ["admm", "left", "right"])
    @pytest.mark.parametrize("where", ["sqrt", "100ell"])
    def test_rhs_of_extreme_scale_keeps_the_scale_one_solve(self, method, where):
        # squared entries near 2^-540 underflow and near 2^500 overflow; on
        # this problem ADMM and left GMRES once stopped at r x 1e-158 with true
        # relative residuals 2.4e-5 and 1.2e-5, and at 2^-540 every method
        # returned the zero iterate as converged after 0 iterations.  Scaling
        # by a power of two is exact, so the solve keeps every bit
        p = seeded_problem(100, 70, 20, 0.3, 3)
        m, ell, _ = dtilde_extremes(p)
        beta = math.sqrt(m * ell) if where == "sqrt" else 100.0 * ell

        def solve(q):
            if method == "admm":
                return admm_solve(make_engine(q, beta))
            return admm_gmres_solve(q, beta, method)

        ref = solve(p)
        assert ref.converged
        for k in (-540, -525, 500):
            q = SaddleProblem(p.A, p.B, p.D, *(np.ldexp(v, k) for v in (p.r_x, p.r_z, p.r_y)))
            trace = solve(q)
            assert (trace.iterations, trace.converged) == (ref.iterations, ref.converged), k
            res = np.ldexp(q.rhs() - kkt_matvec(q, trace.solution), -k)
            assert np.linalg.norm(res) <= 1e-6 * np.linalg.norm(p.rhs()), k
            assert np.array_equal(trace.residuals, np.ldexp(ref.residuals, k)), k
            assert np.array_equal(trace.solution, np.ldexp(ref.solution, k)), k

    def test_residual_monitored_on_true_system(self, problem42):
        eng = make_engine(problem42, 0.8)
        trace = admm_solve(eng, epsilon=1e-6, max_iter=50_000)
        u = np.zeros(problem42.dim)
        for k in range(3):
            assert trace.residuals[k] == pytest.approx(kkt_residual(problem42, u), rel=1e-12)
            u = admm_step(eng, u)


def power_spy(monkeypatch):
    """Spy on ``np.linalg.matrix_power``; return the exponents it was called with."""
    calls, original = [], np.linalg.matrix_power
    monkeypatch.setattr(np.linalg, "matrix_power",
                        lambda a, n: calls.append(n) or original(a, n))
    return calls


def first_power_iterate(ny):
    """The first iterate of a solve's first run that a block filled by a power of CU records.

    The run's gemv blocks start at iterates 2, 2 + _BLOCK, ..., and the
    first block after ny sweeps is the first filled by the power.
    """
    return 2 + admm._BLOCK * math.ceil(ny / admm._BLOCK)


class TestPowerPhase:
    """Past ny sweeps a run fills each block of 2 _BLOCK rows by one product with CU^(2 _BLOCK)."""

    @staticmethod
    def assert_follows_the_gemv_chain(monkeypatch, dims, factor, sweeps):
        # the count, the flag and every estimate of the one-gemv-per-sweep
        # reference, which reads the norms off the dense N, over 60 times the
        # switch
        problem = seeded_problem(*dims)
        m, ell, _ = dtilde_extremes(problem)
        engine = make_engine(problem, factor * math.sqrt(m * ell))
        powers = power_spy(monkeypatch)
        trace = admm_solve(engine)
        ref = admm._kernel_solve(engine, None, 1e-6, 100_000, "admm", gemv_sweeps)
        assert powers == [admm._BLOCK]
        assert (trace.iterations, trace.converged) == (ref.iterations, ref.converged)
        assert (ref.iterations, ref.converged) == (sweeps, True)
        assert trace.iterations > 60 * first_power_iterate(problem.ny)
        np.testing.assert_allclose(trace.residuals[:-1], ref.residuals[:-1], rtol=1e-10, atol=0)
        assert np.linalg.norm(trace.solution - ref.solution) <= 1e-10 * np.linalg.norm(ref.solution)

    def test_long_run_follows_the_gemv_chain(self, monkeypatch):
        # 2963 sweeps, 87 times the switch (seen: 3.4e-12 relative; the
        # solutions 1.0e-13 apart)
        self.assert_follows_the_gemv_chain(monkeypatch, (40, 30, 12, 1.0, 0), 100, 2963)

    @pytest.mark.parametrize("dims, factor, sweeps", [
        ((20, 12, 12, 1.0, 0), 10, 2193),  # nz = ny: no d_P columns
        ((30, 20, 1, 1.0, 1), 1000, 6089),  # nz = 1: a 1 x 1 beta R_a
    ], ids=["nz=ny", "nz=1"])
    def test_long_run_at_edge_shapes_follows_the_gemv_chain(self, monkeypatch, dims, factor,
                                                            sweeps):
        # 122 and 179 times the switch (seen: 1.6e-14 and 8.3e-14 relative)
        self.assert_follows_the_gemv_chain(monkeypatch, dims, factor, sweeps)

    @pytest.mark.parametrize("offset", [-1, 0, 1, admm._BLOCK + 5, 2 * admm._BLOCK - 1,
                                        2 * admm._BLOCK + 5])
    def test_capped_run_ends_on_its_last_sweep_across_the_switch(self, monkeypatch, offset):
        # caps one before, at and one after the first iterate a power fills
        # (after one gemv block here), in the second half and on the last
        # sweep of the first block it fills, and inside the second; the
        # check is that of test_run_ends_on_its_last_sweep, and the power is
        # formed only once a run reaches the switch
        problem = seeded_problem(14, 12, 5, 1.0, 3)
        m, ell, _ = dtilde_extremes(problem)
        engine = make_engine(problem, 100 * math.sqrt(m * ell))
        switch = first_power_iterate(problem.ny)
        assert switch == 2 + admm._BLOCK
        powers = power_spy(monkeypatch)
        u0 = np.random.default_rng(6).standard_normal(problem.dim)
        trace = admm_solve(engine, u0=u0, max_iter=switch + offset)
        assert powers == ([admm._BLOCK] if offset >= 0 else [])
        assert not trace.converged and trace.iterations == switch + offset
        iterates = [u0]
        for _ in range(trace.iterations):
            iterates.append(admm_step(engine, iterates[-1]))
        bound = TOL * np.linalg.cond(assemble_precond(engine), 2)
        scale = max(map(np.linalg.norm, iterates))
        assert np.linalg.norm(trace.solution - iterates[-1]) <= bound * scale

    def test_short_run_forms_no_power(self, monkeypatch):
        # a run that converges before the switch, past a full gemv block,
        # sweeps one gemv at a time
        problem = seeded_problem(24, 20, 8, 0.2, 1)
        m, ell, _ = dtilde_extremes(problem)
        powers = power_spy(monkeypatch)
        trace = admm_solve(make_engine(problem, math.sqrt(m * ell)))
        assert trace.converged and 1 + admm._BLOCK < trace.iterations < first_power_iterate(problem.ny)
        assert powers == []

    def test_non_finite_estimate_inside_a_power_block_names_its_iteration(self, problem42,
                                                                          monkeypatch):
        # as in the gemv blocks: a CU scaled by 1e7 overflows the estimate
        # of iterate k, here inside the first block the power fills, and
        # the record raises there with the message of a single entry
        engine = make_engine(problem42, 1.0)
        N = engine.N
        engine.CU = 1e7 * engine.CU
        d, k = engine.offset(apply_inverse(engine, problem42.rhs())), 2
        with np.errstate(over="ignore", invalid="ignore"):
            while math.isfinite(math.sqrt((N @ d) @ (N @ d))):
                d, k = engine.CU @ d, k + 1
            switch = first_power_iterate(problem42.ny)
            assert switch < k < switch + admm._BLOCK
            powers = power_spy(monkeypatch)
            with pytest.raises(NumericalError, match=(
                rf"^admm at beta=1.0: non-finite KKT residual at iteration {k}; "
                rf"last finite iteration was {k - 1} with residual ")):
                admm_solve(engine)
        assert powers == [admm._BLOCK]


# the 19/4/4 problem of the GMRES correction-cycle test: each side needs two runs
CYCLED = (19, 4, 4, 1.593341373592157, 2649730957), 1818917.2179890736


class TestSharedPath:
    """Plain ADMM and both GMRES sides are one solve with different inner runs."""

    @staticmethod
    def solve(problem, beta, method, **kwargs):
        if method == "admm":
            return admm_solve(make_engine(problem, beta), **kwargs)
        return admm_gmres_solve(problem, beta, method, **kwargs)

    @pytest.mark.parametrize("method", ["admm", "left", "right"])
    @pytest.mark.parametrize("cycled", [False, True], ids=["6-4-2", "cycled-19-4-4"])
    def test_one_kernel_per_solve(self, problem42, monkeypatch, method, cycled):
        # one CU however many inner runs the solve makes, and no method
        # caches anything on the engine beyond the kernel coordinate's fields
        problem, beta = (seeded_problem(*CYCLED[0]), CYCLED[1]) if cycled else (problem42, 1.0)
        formed = spy_formed(monkeypatch, "CU")
        trace = self.solve(problem, beta, method, max_iter=400 if method == "admm" else None)
        assert len(formed) == 1
        fields = {f.name for f in dataclasses.fields(AdmmEngine)}
        assert vars(formed[0]).keys() == fields | KERNEL_FIELDS
        if cycled and method != "admm":
            # a run records at most 1 + ny iterates, so this solve made two
            assert trace.converged and trace.iterations > 1 + problem.ny

    def test_first_iterate_is_shared(self, problem42, monkeypatch):
        # at max_iter = 1 every method records the same sweep from the start,
        # forms nothing of the kernel coordinate, and returns the same iterate
        formed = [spy_formed(monkeypatch, name) for name in KERNEL_FIELDS]
        engine = make_engine(problem42, 0.7)
        u0 = np.random.default_rng(2).standard_normal(problem42.dim)
        traces = [admm_solve(engine, u0=u0, max_iter=1)]
        traces += [admm_gmres_solve(problem42, 0.7, side, u0=u0, max_iter=1)
                   for side in ("left", "right")]
        assert formed == [[]] * len(KERNEL_FIELDS)
        assert "CU" not in vars(engine)
        for trace in traces:
            assert trace.iterations == 1 and not trace.converged
            assert trace.residuals[:2].tobytes() == traces[0].residuals[:2].tobytes()
            assert trace.solution.tobytes() == traces[0].solution.tobytes()

    def test_reused_engine_forms_its_kernel_once(self, problem42, monkeypatch):
        # the kernel coordinate is kept with the engine: a second solve on it
        # forms no CU, and returns the bits of a solve on a fresh engine
        formed = spy_formed(monkeypatch, "CU")
        engine = make_engine(problem42, 1.0)
        first, second = admm_solve(engine), admm_solve(engine)
        assert formed == [engine]
        fresh = admm_solve(make_engine(problem42, 1.0))
        assert len(formed) == 2
        for name in KERNEL_FIELDS:  # shared by every solve, so no solve may write to it
            assert not getattr(engine, name).flags.writeable, name
        for trace in (second, fresh):
            assert trace.residuals.tobytes() == first.residuals.tobytes()
            assert trace.solution.tobytes() == first.solution.tobytes()
