"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE n PASS/FAIL` line (run pytest with -s to
see them on passing runs).
"""

import csv
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from admmgmres.admm import admm_solve, make_engine
from admmgmres.bounds import (
    cheb,
    disk_interval_bound,
    interval_bound,
    theorem_curve,
    two_interval_bound,
)
from admmgmres.cli import fit_scaling_exponent, main
from admmgmres.gmres import admm_gmres_solve
from admmgmres.randgen import GenSpec, random_problem, sample_beta
from admmgmres.spectral import (
    build_k_matrix,
    classify_and_verify,
    conditioning_factors,
    dtilde_extremes,
)
from oracles import disk_interval_polynomial, two_interval_polynomial


@contextmanager
def report(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL {name}")
        raise
    print(f"ACCEPTANCE {number} PASS {name}")


def batch(count, nx_max, seed0, s_range=(0.0, 1.0)):
    rng = np.random.default_rng(seed0)
    problems = []
    for i in range(count):
        nx = int(rng.integers(2, nx_max + 1))
        ny = int(rng.integers(2, nx + 1))
        nz = int(rng.integers(1, ny + 1))
        s = float(rng.uniform(*s_range))
        problems.append(random_problem(GenSpec(nx, ny, nz, s, seed0 * 1000 + i)))
    return problems


@pytest.fixture(scope="module")
def sweep_problems():
    return batch(20, 18, seed0=11)


@pytest.fixture(scope="module")
def sweep_reports(sweep_problems):
    """Six penalty points per problem, spanning all three regimes."""
    out = []
    for p in sweep_problems:
        m, ell, _ = dtilde_extremes(p)
        betas = [math.sqrt(m * ell), 0.6 * ell + 0.4 * m, 1.2 * ell,
                 1.7 * ell, 3.0 * ell, m / 3.0]
        for beta in betas:
            out.append((p, beta, classify_and_verify(p, beta)))
    return out


def test_criterion_1_oracle_equivalence():
    with report(1, "balanced ADMM reaches the direct solution on 50 problems"):
        start = time.monotonic()
        problems = batch(50, 20, seed0=21)
        for p in problems:
            m, ell, kappa = dtilde_extremes(p)
            assert p.dim <= 60
            beta = math.sqrt(m * ell)
            trace = admm_solve(make_engine(p, beta), epsilon=1e-6, max_iter=10**6)
            assert trace.converged
            assert trace.residuals[-1] <= 1e-6 * trace.residuals[0]
            c1, _, _, kappa_m = conditioning_factors(p, beta)
            bound = 2 + math.ceil((math.sqrt(kappa) + 1) * math.log(c1 * kappa_m / 1e-6))
            assert trace.iterations <= bound
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_kernel_norm_identity(sweep_reports):
    with report(2, "kernel norm equals (gamma-1)/(gamma+1) over the sweep"):
        assert len(sweep_reports) == 120
        for _, _, rep in sweep_reports:
            assert abs(rep.k_norm - (rep.gamma - 1) / (rep.gamma + 1)) <= 1e-8 * rep.k_norm


def test_criterion_3_eigenvalue_enclosures(sweep_reports):
    with report(3, "eigenvalue enclosures hold in all three regimes"):
        seen = set()
        for p, _, rep in sweep_reports:
            assert rep.enclosure_ok
            seen.add(rep.regime)
            if rep.regime == "two_intervals" and 0 < p.nz < p.ny:
                assert np.any(rep.eigenvalues.real > 0)
                assert np.any(rep.eigenvalues.real < 0)
        assert seen == {"disk_and_interval", "single_interval", "two_intervals"}


def test_criterion_4_real_regime_conditioning(sweep_problems):
    with report(4, "extremal penalties give real spectra with bounded kappa_X"):
        for p in sweep_problems:
            m, ell, _ = dtilde_extremes(p)
            for beta, margin in ((2.0 * ell, 2.0), (m / 2.0, 2.0)):
                blocks = build_k_matrix(p, beta)
                k_norm = np.linalg.norm(blocks.K, 2)
                eigs = np.linalg.eigvals(blocks.K)
                assert np.all(np.abs(eigs.imag) <= 1e-8 * k_norm)
                _, _, kappa_x, _ = conditioning_factors(p, beta)
                assert kappa_x is not None
                assert kappa_x <= 1.0 + 1.0 / (margin - 1.0) + 1e-6


def test_criterion_5_gmres_residual_domination():
    with report(5, "right-preconditioned GMRES never trails ADMM on 20 pairs"):
        problems = batch(10, 16, seed0=31)
        pairs = 0
        for i, p in enumerate(problems):
            m, ell, _ = dtilde_extremes(p)
            rnorm = np.linalg.norm(p.rhs())
            for beta in (math.sqrt(m * ell), sample_beta(500 + i)):
                admm_trace = admm_solve(make_engine(p, beta), epsilon=1e-6,
                                        max_iter=100_000)
                gm_trace = admm_gmres_solve(p, beta, "right", epsilon=1e-6)
                n = min(len(admm_trace.residuals), len(gm_trace.residuals))
                assert np.all(gm_trace.residuals[:n]
                              <= admm_trace.residuals[:n] + 1e-9 * rnorm)
                pairs += 1
        assert pairs == 20


def test_criterion_6_bound_curves_dominate_observations():
    with report(6, "residual curves dominate observed runs from iteration 2 on"):
        problems = batch(8, 14, seed0=41, s_range=(0.2, 1.0))
        checked = 0
        for p in problems:
            m, ell, _ = dtilde_extremes(p)
            cases = [("thm7", 3.0 * ell), ("thm7", m / 3.0),
                     ("thm9", math.sqrt(m * ell)), ("thm9", 0.5 * (m + ell))]
            for kind, beta in cases:
                factors = conditioning_factors(p, beta)
                if kind == "thm9" and factors[2] is None:
                    continue
                trace = admm_gmres_solve(p, beta, "right", epsilon=1e-8)
                relres = trace.residuals / trace.residuals[0]
                curve = theorem_curve(kind, len(relres) - 1, beta, m, ell,
                                      factors, 1e-8)
                assert np.all(relres[2:] <= curve.values[2:len(relres)]), (kind, beta)
                checked += 1
        assert checked >= 24


def test_criterion_7_scaling_sweep(tmp_path):
    with report(7, "scaling sweep stays under the square-root envelope"):
        start = time.monotonic()
        out = tmp_path / "scaling.csv"
        rc = main(["scaling", "--count", "200", "--dim-max", "60", "--s-max", "1.0",
                   "--eps", "1e-6", "--seed", "1234", "-o", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(open(out, encoding="utf-8")))
        assert len(rows) == 400

        gm = [r for r in rows if r["method"] == "admm-gmres-right"
              and r["status"] == "ok" and float(r["kappa"]) <= 1e4]
        under = [int(r["iterations"]) <= math.ceil(17.0 * math.sqrt(float(r["kappa"]))) + 10
                 for r in gm]
        assert len(under) >= 150
        assert np.mean(under) >= 0.98

        ad = [r for r in rows if r["method"] == "admm" and r["status"] == "ok"
              and r["converged"] == "true" and 1.0 < float(r["kappa"]) <= 1e4]
        slope = fit_scaling_exponent([float(r["kappa"]) for r in ad],
                                     [int(r["iterations"]) for r in ad])
        assert 0.35 <= slope <= 0.65, f"envelope slope {slope:.3f}"

        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_8_sampling_oracles():
    with report(8, "closed-form bounds match or dominate sampled witnesses"):
        # single interval: grid min-max agrees to 1e-6
        k, c, a = 5, 0.3, 0.2
        grid = np.linspace(c - a, c + a, 10_000)
        witness = np.abs(cheb(k, (grid - c) / a)) / abs(cheb(k, (1.0 - c) / a))
        assert abs(interval_bound(k, c, a) - np.max(witness)) <= 1e-6

        # two intervals: witness stays under the upper value (slack 1e-9)
        k, c, a = 12, 0.6, 0.25
        _, upper, xi, eta = two_interval_bound(k, c, a)
        poly = two_interval_polynomial(c, a, eta, xi)
        top = max(np.max(np.abs(poly(np.linspace(c - a, c + a, 10_000)))),
                  np.max(np.abs(poly(np.linspace(-c - a, -c + a, 10_000)))))
        assert top <= upper + 1e-9

        # disk and interval: complex-boundary witness under the upper value
        k, a_d, a_i = 10, 0.3, 0.6
        upper, eta, xi = disk_interval_bound(k, a_d, a_i)
        poly = disk_interval_polynomial(a_i, eta, xi)
        theta = np.linspace(0.0, 2.0 * math.pi, 3600, endpoint=False)
        top = max(np.max(np.abs(poly(a_d * np.exp(1j * theta)))),
                  np.max(np.abs(poly(np.linspace(-a_i, a_i, 10_000)))))
        assert top <= upper + 1e-9

        # even-order disk maximum is captured nearly exactly
        for k in (2, 4, 6):
            for r in (0.5, 1.0, 2.0):
                boundary = r * np.exp(1j * theta)
                top = np.max(np.abs(cheb(k, boundary)))
                bound = cheb(k, math.sqrt(1.0 + r * r))
                assert top <= bound + 1e-9
                assert abs(top - bound) <= 1e-6 * bound


def test_criterion_9_byte_determinism(tmp_path):
    with report(9, "generator and sweep outputs are byte-identical across runs"):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        gen = ["gen", "--nx", "9", "--ny", "6", "--nz", "3", "--s", "0.7",
               "--seed", "77"]
        assert main(gen + ["-o", str(a)]) == 0
        assert main(gen + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

        sa, sb = tmp_path / "a.csv", tmp_path / "b.csv"
        sweep = ["scaling", "--count", "10", "--dim-max", "12", "--seed", "5"]
        assert main(sweep + ["-o", str(sa)]) == 0
        assert main(sweep + ["-o", str(sb)]) == 0
        assert sa.read_bytes() == sb.read_bytes()
