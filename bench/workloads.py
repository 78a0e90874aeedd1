"""The benchmark's workloads: fixed op lists built from a seed, and their checks.

An op is one call sequence into the package's public API.  On ``sweep`` and
``large`` it is one solve; on ``spectral`` it is one spectral report plus its
bound curve.  Every op is checked after it returns; the check, not the
timing, decides whether it failed.

The solvers return residual histories but no iterate, so nothing is
compared against ``direct_solve`` yet; ``large`` calls it during set-up as
the dense-LU reference (it raises if the KKT system is numerically
singular).

Only stable ``admmgmres`` exports are used, looked up on the package at call
time so that the tracer's wrappers see every call.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

import admmgmres as ag

EPSILON = 1e-6

# ``admmgmres scaling`` defaults.
SCALING_COUNT = 200
SCALING_DIM_MAX = 60
SCALING_S_MAX = 1.0
SCALING_MAX_ITER = 200_000

# Sweep j of a run with seed S draws exactly as ``admmgmres scaling --seed
# S + SWEEP_SEED_STRIDE * j``; several sweeps per run keep the seed-to-seed
# spread of the problem mix small.
SWEEP_SEED_STRIDE = 1_000_003
SWEEPS = 4

# Total dimension 390, just under the 400 guard of the explicit constructions.
LARGE_DIMS = (200, 140, 50)
LARGE_SPREAD = 0.35
LARGE_PROBLEMS = 26
LARGE_TRACE_PROBLEMS = 3
LARGE_GMRES_MULTIPLIERS = (0.01, 1.0, 100.0)
# The 0.01x plain-ADMM run takes seconds per problem at this size.
LARGE_ADMM_MULTIPLIERS = (1.0, 100.0)

SPECTRAL_PROBLEMS = 20
SPECTRAL_DIM_RANGE = (30, 390)
# A report's cost hardly depends on the spread, but its bound curve's
# iteration count grows like kappa^(2/3); at larger spreads a few problems
# would dominate the workload's iteration total.
SPECTRAL_SPREAD = 0.25
# Steps of the bound curve each report evaluates (the ``bounds`` CLI default).
CURVE_STEPS = 100

REGIMES = frozenset({"disk_and_interval", "single_interval", "two_intervals"})


@dataclass
class Op:
    """One unit of timed work on one problem.

    ``kind`` is ``admm``, ``gmres-left``, ``gmres-right`` or ``report``.
    ``beta`` None means the balanced penalty sqrt(m * ell), computed inside
    the op as ``admmgmres scaling`` does.
    """

    kind: str
    problem: object
    beta: Optional[float]
    rhs_norm: float
    max_iter: Optional[int] = None

    @property
    def dims(self):
        return self.problem.nx, self.problem.ny, self.problem.nz


@dataclass
class Outcome:
    """What the check of one op found.

    ``iterations`` is ADMM sweeps or Krylov steps for a solve, and for a
    report the number of iterations its bound curve needs to fall below
    EPSILON.  ``failure`` is None when every check passed.
    """

    iterations: int
    beta: float
    failure: Optional[str] = None
    regime: Optional[str] = None


@dataclass
class Workload:
    """A fixed op list; ``trace_ops`` leading ops form the traced pass."""

    name: str
    ops: list
    trace_ops: int
    summary: str


def execute(op):
    """Run one op through the public API and return its raw result."""
    if op.kind == "admm":
        beta = op.beta
        if beta is None:
            m, ell, _ = ag.dtilde_extremes(op.problem)
            beta = math.sqrt(m * ell)
        engine = ag.make_engine(op.problem, beta)
        return ag.admm_solve(engine, epsilon=EPSILON, max_iter=op.max_iter)
    if op.kind in ("gmres-left", "gmres-right"):
        side = op.kind.split("-", 1)[1]
        return ag.admm_gmres_solve(op.problem, op.beta, side, epsilon=EPSILON,
                                   max_iter=op.max_iter)
    if op.kind == "report":
        report = ag.classify_and_verify(op.problem, op.beta)
        return report, _matching_curve(report, op.beta)
    raise ValueError(f"unknown op kind {op.kind!r}")


def _matching_curve(report, beta):
    """thm9 inside [m, ell] when kappa_X exists, thm7 outside, else none."""
    factors = (report.c1, report.kappa_P, report.kappa_X, report.kappa_M)
    if report.m <= beta <= report.ell:
        if report.kappa_X is None:
            return None
        kind = "thm9"
    else:
        kind = "thm7"
    return ag.theorem_curve(kind, CURVE_STEPS, beta, report.m, report.ell, factors, EPSILON)


def check(op, result):
    """Check one op's result; a failed check names what went wrong."""
    if op.kind == "report":
        return _check_report(op, *result)
    return _check_solve(op, result)


def _check_solve(op, trace):
    res = np.asarray(trace.residuals, dtype=float)
    outcome = Outcome(iterations=int(trace.iterations), beta=float(trace.beta))
    if not np.all(np.isfinite(res)):
        outcome.failure = "non-finite residual history"
    elif len(res) != trace.iterations + 1:
        outcome.failure = f"{len(res)} residuals for {trace.iterations} iterations"
    elif abs(res[0] - op.rhs_norm) > 1e-12 * op.rhs_norm:
        outcome.failure = f"residuals[0] = {res[0]!r} but ||r|| = {op.rhs_norm!r}"
    elif not trace.converged:
        outcome.failure = f"not converged after {trace.iterations} iterations"
    elif not res[-1] <= EPSILON * op.rhs_norm:
        outcome.failure = f"final residual {res[-1]:.3e} above eps * ||r||"
    return outcome


def _check_report(op, report, curve):
    gamma = report.gamma
    outcome = Outcome(iterations=0, beta=op.beta, regime=report.regime)
    if not report.enclosure_ok:
        outcome.failure = f"eigenvalue enclosure failed in regime {report.regime}"
    elif abs(report.k_norm - (gamma - 1) / (gamma + 1)) > 1e-8 * report.k_norm:
        outcome.failure = f"||K|| = {report.k_norm!r} differs from (gamma-1)/(gamma+1)"
    elif curve is not None:
        values = np.asarray(curve.values, dtype=float)
        if not (np.all(np.isfinite(values)) and np.all(values > 0)
                and np.all(np.diff(values) <= 0)):
            outcome.failure = f"{curve.kind} curve is not finite, positive, non-increasing"
        else:
            outcome.iterations = _bound_iterations(values)
    return outcome


def _bound_iterations(values):
    """First k at which the geometric curve lead * rate^k drops below EPSILON."""
    lead, rate = values[0], values[1] / values[0]
    if lead <= EPSILON:
        return 0
    return math.ceil(math.log(EPSILON / lead) / math.log(rate))


def _rhs_norm(problem):
    return float(np.linalg.norm(problem.rhs()))


def scaling_draws(seed, count):
    """(GenSpec, beta seed) pairs drawn exactly as ``admmgmres scaling`` draws them."""
    draws = []
    for stream in np.random.SeedSequence(seed).spawn(count):
        rng = np.random.default_rng(stream)
        nx = int(rng.integers(1, SCALING_DIM_MAX + 1))
        ny = int(rng.integers(1, nx + 1))
        nz = int(rng.integers(1, ny + 1))
        s = float(rng.uniform(0.0, SCALING_S_MAX))
        problem_seed = int(rng.integers(0, 2**63))
        beta_seed = int(rng.integers(0, 2**63))
        draws.append((ag.GenSpec(nx=nx, ny=ny, nz=nz, s=s, seed=problem_seed), beta_seed))
    return draws


def sweep(seed, sweeps=SWEEPS, count=SCALING_COUNT):
    """Acceptance scaling-sweep traffic: per problem, ADMM then right GMRES.

    The first sweep is ``admmgmres scaling --seed SEED --count COUNT``; the
    traced pass covers exactly that sweep.
    """
    ops = []
    for j in range(sweeps):
        for spec, beta_seed in scaling_draws(seed + SWEEP_SEED_STRIDE * j, count):
            problem = ag.random_problem(spec)
            norm = _rhs_norm(problem)
            ops.append(Op("admm", problem, None, norm, max_iter=SCALING_MAX_ITER))
            ops.append(Op("gmres-right", problem, ag.sample_beta(beta_seed), norm))
    summary = (f"sweep: {sweeps} scaling sweeps of {count} problems, {len(ops)} ops; "
               f"sweep 0 is `admmgmres scaling --seed {seed} --count {count}`")
    return Workload("sweep", ops, trace_ops=2 * count, summary=summary)


def _problem_seeds(seed, tag, count):
    rng = np.random.default_rng([seed, tag])
    return [int(v) for v in rng.integers(0, 2**63, size=count)]


def large(seed, problems=LARGE_PROBLEMS, dims=LARGE_DIMS):
    """Flop-bound solves near the dimension guard, at penalties 0.01x to 100x."""
    nx, ny, nz = dims
    ops = []
    for problem_seed in _problem_seeds(seed, 2, problems):
        problem = ag.random_problem(ag.GenSpec(nx=nx, ny=ny, nz=nz, s=LARGE_SPREAD,
                                               seed=problem_seed))
        ag.direct_solve(problem)
        m, ell, _ = ag.dtilde_extremes(problem)
        balanced = math.sqrt(m * ell)
        norm = _rhs_norm(problem)
        for mult in LARGE_ADMM_MULTIPLIERS:
            ops.append(Op("admm", problem, mult * balanced, norm, max_iter=SCALING_MAX_ITER))
        for side in ("left", "right"):
            for mult in LARGE_GMRES_MULTIPLIERS:
                ops.append(Op(f"gmres-{side}", problem, mult * balanced, norm))
    per_problem = len(ops) // problems
    summary = (f"large: {problems} problems at (nx, ny, nz) = {dims}, spread {LARGE_SPREAD}, "
               f"{len(ops)} ops")
    return Workload("large", ops, trace_ops=per_problem * min(LARGE_TRACE_PROBLEMS, problems),
                    summary=summary)


def spectral(seed, problems=SPECTRAL_PROBLEMS, dim_range=SPECTRAL_DIM_RANGE):
    """Spectral reports on a ladder of total dimensions, six penalties each."""
    lo, hi = dim_range
    lx, ly, lz = LARGE_DIMS
    ops = []
    for i, problem_seed in enumerate(_problem_seeds(seed, 3, problems)):
        dim = lo + round(i * (hi - lo) / max(problems - 1, 1))
        nx = round(dim * lx / sum(LARGE_DIMS))
        ny = round(dim * ly / sum(LARGE_DIMS))
        nz = dim - nx - ny
        problem = ag.random_problem(ag.GenSpec(nx=nx, ny=ny, nz=nz, s=SPECTRAL_SPREAD,
                                               seed=problem_seed))
        m, ell, _ = ag.dtilde_extremes(problem)
        norm = _rhs_norm(problem)
        # The six penalties of the acceptance ``sweep_reports`` fixture.
        penalties = (math.sqrt(m * ell), 0.6 * ell + 0.4 * m, 1.2 * ell, 1.7 * ell,
                     3.0 * ell, m / 3.0)
        ops.extend(Op("report", problem, beta, norm) for beta in penalties)
    summary = (f"spectral: {problems} problems, total dimension {lo} to {hi}, "
               f"{len(ops)} reports")
    return Workload("spectral", ops, trace_ops=len(ops), summary=summary)


BUILDERS = {"sweep": sweep, "large": large, "spectral": spectral}
