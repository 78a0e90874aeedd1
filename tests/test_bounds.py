import dataclasses
import math

import numpy as np
import pytest

from admmgmres.bounds import (
    C0,
    BoundCurve,
    cheb,
    curve_to_csv,
    disk_interval_bound,
    interval_bound,
    rho_factor,
    theorem_curve,
    two_interval_bound,
    two_interval_split_ratio,
)
from admmgmres.core import NumericalError
from admmgmres.gmres import admm_gmres_solve
from admmgmres.spectral import conditioning_factors, dtilde_extremes
from oracles import disk_interval_polynomial, two_interval_polynomial


class TestCheb:
    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError, match="^degree must be nonnegative, got -1$"):
            cheb(-1, 0.5)

    def test_endpoint_identity(self):
        assert all(cheb(k, 1.0) == pytest.approx(1.0, rel=1e-14) for k in range(8))

    def test_recurrence_value(self):
        # 1, 2, 7, 26 at x = 2
        assert cheb(3, 2.0) == pytest.approx(26.0, rel=1e-13)

    def test_sandwich_at_three(self):
        # nu = (3+1)/(3-1) = 2 sandwiches T_1(3) = 3 between
        # 2.914213562373095 and 5.82842712474619
        ratio = (math.sqrt(2.0) + 1.0) / (math.sqrt(2.0) - 1.0)
        assert 0.5 * ratio == pytest.approx(2.914213562373095, rel=1e-12)
        assert 0.5 * ratio <= cheb(1, 3.0) <= ratio

    def test_crossover_consistency(self):
        # recurrence and closed form agree through the switch at 1.5
        for k in (2, 5, 11):
            for x in np.linspace(1.4, 1.6, 21):
                rec = float(cheb(k, np.asarray(x)))
                assert cheb(k, float(x)) == pytest.approx(rec, rel=1e-12)

    def test_negative_argument_parity(self):
        assert cheb(3, -2.0) == pytest.approx(-26.0, rel=1e-13)
        assert cheb(4, -2.0) == pytest.approx(cheb(4, 2.0), rel=1e-13)

    def test_complex_array_input(self):
        z = np.array([0.3 + 0.4j, -0.2 + 0.1j])
        out = cheb(2, z)
        assert np.allclose(out, 2.0 * z**2 - 1.0, rtol=1e-14)

    def test_overflow_returns_inf(self):
        assert cheb(10_000, 50.0) == math.inf


class TestIntervalBound:
    def test_linear_case(self):
        assert interval_bound(1, 0.0, 0.5) == pytest.approx(0.5, rel=1e-14)

    def test_k0_and_degenerate(self):
        assert interval_bound(0, 0.4, 0.2) == 1.0
        assert interval_bound(3, 0.4, 0.0) == 0.0

    def test_closed_form_inequality(self):
        k, c, a = 5, 0.3, 0.2
        value = interval_bound(k, c, a)
        k_i = (abs(1 - c) + a) / (abs(1 - c) - a)
        assert value <= 2.0 * ((math.sqrt(k_i) - 1) / (math.sqrt(k_i) + 1)) ** k * (1 + 1e-12)

    def test_grid_sampled_min_max(self):
        k, c, a = 5, 0.3, 0.2
        grid = np.linspace(c - a, c + a, 10_000)
        witness = np.abs(cheb(k, (grid - c) / a)) / abs(cheb(k, (1 - c) / a))
        assert interval_bound(k, c, a) == pytest.approx(np.max(witness), abs=1e-6)

    def test_interval_right_of_one(self):
        # |1 - c| symmetry covers intervals on the far side of the point 1
        assert interval_bound(2, 2.0, 0.3) == pytest.approx(
            1.0 / abs(cheb(2, 1.0 / 0.3)), rel=1e-14)

    def test_rejects_interval_containing_one(self):
        with pytest.raises(ValueError, match="contains the point 1"):
            interval_bound(3, 0.9, 0.2)
        with pytest.raises(ValueError, match="^half-width a must be nonnegative, got -0.1$"):
            interval_bound(3, 0.4, -0.1)


class TestTwoIntervalBound:
    def test_point_clusters_killed_in_one_step(self):
        lower, upper, xi, eta = two_interval_bound(5, 1e-6, 0.0)
        assert upper == 0.0 and lower == 0.0

    def test_split_ratio_needs_disjoint_intervals(self):
        for a in (0.3, 0.5):
            with pytest.raises(ValueError, match=f"^need 0 <= a < c, got a={a}, c=0.3$"):
                two_interval_split_ratio(0.3, a)

    def test_split_ratio_floor(self):
        # Chebyshev share of the split stays above 0.317 for every
        # admissible shape on a 100 x 100 grid
        worst = math.inf
        for c in np.linspace(0.01, 0.95, 100):
            for a in np.linspace(0.0, 0.94, 100):
                if not (0 <= a < c and c + a < 1):
                    continue
                ratio = two_interval_split_ratio(c, a)
                worst = min(worst, 1.0 / (1.0 + ratio))
        assert worst >= 0.317

    def test_integer_split_floor_large_k(self):
        k = 1000
        for c in np.linspace(0.01, 0.95, 40):
            for a in np.linspace(0.0, 0.94, 40):
                if not (0 <= a < c and c + a < 1):
                    continue
                _, _, xi, eta = two_interval_bound(k, c, a)
                assert eta + xi == k
                assert xi / k >= 0.317

    def test_witness_stays_under_upper_bound(self):
        k, c, a = 12, 0.6, 0.25
        lower, upper, xi, eta = two_interval_bound(k, c, a)
        p = two_interval_polynomial(c, a, eta, xi)
        grid_p = np.linspace(c - a, c + a, 10_000)
        grid_m = np.linspace(-c - a, -c + a, 10_000)
        top = max(np.max(np.abs(p(grid_p))), np.max(np.abs(p(grid_m))))
        assert top <= upper + 1e-9
        assert lower <= upper
        assert float(p(np.asarray(1.0))) == pytest.approx(1.0, rel=1e-12)

    def test_witness_balance(self):
        # sup over the mirror interval never exceeds sup over the target
        for c in np.linspace(0.05, 0.9, 18):
            for a in np.linspace(0.0, 0.85, 18):
                if not (0 < a < c and c + a < 1):
                    continue
                _, _, xi, eta = two_interval_bound(60, c, a)
                p = two_interval_polynomial(c, a, eta, xi)
                mirror = abs(float(p(np.asarray(-(c + a)))))
                target = abs(float(p(np.asarray(c + a))))
                assert mirror <= target + 1e-9

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            two_interval_bound(4, 0.3, 0.3)
        with pytest.raises(ValueError):
            two_interval_bound(4, 0.6, 0.5)


class TestDiskIntervalBound:
    def test_equal_radii_lose_square_root_speedup(self):
        upper, eta, xi = disk_interval_bound(7, 0.5, 0.5)
        assert (eta, xi) == (7, 0)
        assert upper == pytest.approx(2.0 * 0.5**7, rel=1e-12)

    def test_split_constant(self):
        assert C0 == pytest.approx(0.8814, abs=5e-5)

    def test_witness_under_upper_bound(self):
        k, a_d, a_i = 10, 0.3, 0.6
        upper, eta, xi = disk_interval_bound(k, a_d, a_i)
        p = disk_interval_polynomial(a_i, eta, xi)
        theta = np.linspace(0.0, 2.0 * math.pi, 3600, endpoint=False)
        boundary = a_d * np.exp(1j * theta)
        interval = np.linspace(-a_i, a_i, 10_000)
        top = max(np.max(np.abs(p(boundary))), np.max(np.abs(p(interval))))
        assert top <= upper + 1e-9

    def test_complex_disk_chebyshev_estimate(self):
        # max of |T_k| over the radius-r disk is T_k(sqrt(1 + r^2)),
        # tight for even k
        theta = np.linspace(0.0, 2.0 * math.pi, 3600, endpoint=False)
        for k in (2, 4, 6):
            for r in (0.5, 1.0, 2.0):
                boundary = r * np.exp(1j * theta)
                top = np.max(np.abs(cheb(k, boundary)))
                bound = cheb(k, math.sqrt(1.0 + r * r))
                assert top <= bound + 1e-9
                assert top == pytest.approx(bound, rel=1e-6)

    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            disk_interval_bound(3, 0.7, 0.5)
        with pytest.raises(ValueError):
            disk_interval_bound(3, 0.5, 1.0)


class TestRhoFactor:
    def test_boundary_collapses_to_interval_rate(self):
        kappa = 50.0
        g = math.sqrt(kappa)
        assert rho_factor(g, kappa) == pytest.approx((g - 1) / (g + 1), rel=1e-12)

    def test_perfectly_conditioned_is_zero(self):
        assert rho_factor(1.0, 1.0) == 0.0

    def test_dominated_by_two_thirds_power_rate(self):
        for kappa in (10.0, 100.0, 1000.0, 10_000.0):
            target = (1.0 - 1.0 / (kappa ** (2.0 / 3.0) + 1.0)) ** 0.209
            for g in np.geomspace(math.sqrt(kappa), kappa, 60):
                assert rho_factor(float(g), kappa) <= target

    def test_monotone_quotient_property(self):
        # the log-ratio driving the split choice never decreases
        xs = np.linspace(1.0 + 1e-9, 100.0, 2000)
        f = np.log((xs - 1.0) / (xs + 1.0))
        g = f / np.log((xs**2 - 1.0) / (xs**2 + 1.0))
        assert np.all(np.diff(g) >= -1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="^kappa must be at least 1, got 0.5$"):
            rho_factor(1.0, 0.5)
        with pytest.raises(ValueError):
            rho_factor(2.0, 100.0)  # below sqrt(kappa)
        with pytest.raises(ValueError):
            rho_factor(200.0, 100.0)  # above kappa


class TestTheoremCurve:
    def factors_for(self, problem, beta):
        return conditioning_factors(problem, beta)

    def test_iteration_estimate_substitution(self):
        # kappa = 1 and c1 * kappa_M / eps = e gives 2 + ceil(2) = 4 (all exact:
        # halving and doubling by a power of two)
        curve = theorem_curve("prop5", 5, 1.0, 1.0, 1.0,
                              (math.e, 1.0, 1.0, 0.5), 0.5)
        assert np.all(curve.values == 4.0)
        assert curve.kind == "prop5"

    def test_extremal_curve_base_at_least_two(self, problem42):
        m, ell, _ = dtilde_extremes(problem42)
        beta = 3.0 * ell
        factors = self.factors_for(problem42, beta)
        assert factors[0] >= 1.0  # c1 verified, not assumed
        assert factors[1] >= 1.0
        curve = theorem_curve("thm7", 10, beta, m, ell, factors, 1e-6)
        assert curve.values[0] >= 2.0

    def test_curves_positive_and_decreasing(self, problem42):
        m, ell, _ = dtilde_extremes(problem42)
        for kind, beta in (("thm7", 4.0 * ell), ("thm9", math.sqrt(m * ell))):
            factors = self.factors_for(problem42, beta)
            curve = theorem_curve(kind, 30, beta, m, ell, factors, 1e-6)
            assert np.all(curve.values > 0)
            assert np.all(np.diff(curve.values[2:]) <= 0)

    def test_extremal_rate_covers_actual_intervals(self, problem42):
        # for beta > 2 ell the closed-form decay base dominates the rate of
        # the actual two-interval enclosure, whose conditioning is below 2 kappa
        m, ell, kappa = dtilde_extremes(problem42)
        beta = 3.0 * ell
        gamma = max(beta / m, ell / beta)
        hi = (gamma - 1.0) / (gamma + 1.0)
        lo = (gamma - 2.0 * kappa) / (gamma + kappa)
        c = 0.5 * (hi + lo)
        a = 0.5 * (hi - lo)
        _, upper, _, _ = two_interval_bound(1, c, a)
        actual_base = (upper / 2.0) ** (1.0 / 0.317)
        root = math.sqrt(2.0 * kappa)
        thm_base = (root - 1.0) / (root + 1.0)
        kp = (1.0 - c + a) / (1.0 - c - a)
        assert kappa < kp <= 2.0 * kappa
        assert thm_base >= actual_base - 1e-12

    def test_regime_validation(self, problem42):
        m, ell, _ = dtilde_extremes(problem42)
        factors = self.factors_for(problem42, math.sqrt(m * ell))
        with pytest.raises(ValueError, match="thm7"):
            theorem_curve("thm7", 5, math.sqrt(m * ell), m, ell, factors, 1e-6)
        with pytest.raises(ValueError, match="thm9"):
            theorem_curve("thm9", 5, 3.0 * ell, m, ell, factors, 1e-6)
        with pytest.raises(ValueError, match="kind"):
            theorem_curve("thm8", 5, 1.0, m, ell, factors, 1e-6)
        with pytest.raises(ValueError, match="^'thm9' needs kappa_X, but none was computable$"):
            theorem_curve("thm9", 5, math.sqrt(m * ell), m, ell, factors[:2] + (None,) + factors[3:],
                          1e-6)

    @pytest.mark.parametrize("k_max, epsilon, name", [
        (5, 0.0, "epsilon"), (5, -1.0, "epsilon"), (5, 1.0, "epsilon"), (5, 2.0, "epsilon"),
        (5, math.nan, "epsilon"), (-3, 1e-6, "k_max"),
    ])
    def test_input_validation(self, k_max, epsilon, name):
        # eps 0 once raised ZeroDivisionError, eps -1 "math domain error", and
        # eps 2 or k_max -3 returned a curve (the latter an empty one)
        with pytest.raises(ValueError, match=name):
            theorem_curve("prop5", k_max, 1.0, 1.0, 1.0, (math.e, 1.0, 1.0, 1.0), epsilon)

    @pytest.mark.parametrize("epsilon", ["1e-6", None, 1e-6 + 0j, np.array([1e-6]), True],
                             ids=["str", "None", "complex", "array", "True"])
    def test_rejects_an_epsilon_that_is_not_a_real_number(self, epsilon):
        # the first four once raised a bare TypeError, and True was read as 1
        with pytest.raises(ValueError, match="^epsilon must be a number, got "):
            theorem_curve("prop5", 5, 1.0, 1.0, 1.0, (math.e, 1.0, 1.0, 1.0), epsilon)

    @pytest.mark.parametrize("kind, beta, factors, name", [
        ("prop5", 1.0, (math.inf, 1.0, 1.0, 1.0), "c1"),
        ("prop5", 1.0, (1.0, 1.0, 1.0, math.nan), "kappa_M"),
        ("prop5", 1.0, (1e200, 1.0, 1.0, 1e200), None),
        ("thm7", 3.0, (math.inf, 1.0, 1.0, 1.0), "c1"),
        ("thm7", 3.0, (1.0, math.inf, 1.0, 1.0), "kappa_P"),
        ("thm7", 3.0, (1e200, 1e200, 1.0, math.inf), None),
        ("thm9", 1.0, (math.inf, 1.0, 1.0, 1.0), "c1"),
        ("thm9", 1.0, (1.0, 1.0, math.inf, 1.0), "kappa_X"),
        ("thm9", 1.0, (1e200, 1.0, 1e200, 1.0), None),
    ])
    def test_non_finite_curve_raises_naming_its_factor(self, kind, beta, factors, name):
        # an overflowing c1 once ended prop5 in an OverflowError from
        # math.ceil and gave thm9 a curve of inf values.  None: finite
        # factors whose product overflows; a factor the curve does not read
        # (thm7's kappa_M) is not named
        want = f"{name}=" if name else "its factors overflow"
        with pytest.raises(NumericalError, match=rf"^'{kind}' bound is not finite: {want}"):
            theorem_curve(kind, 5, beta, 0.5, 2.0, factors, 1e-6)

    def test_curve_holds_only_its_values_and_kind(self):
        # a params dict of the inputs was once filled on every curve and never read
        assert [f.name for f in dataclasses.fields(BoundCurve)] == ["values", "kind"]

    def test_csv_serialization(self):
        curve = theorem_curve("prop5", 2, 1.0, 1.0, 1.0, (math.e, 1.0, 1.0, 0.5), 0.5)
        text = curve_to_csv(curve)
        lines = text.strip().split("\n")
        assert lines[0] == "k,value,kind"
        assert lines[1] == "0,4.0,prop5"
        assert len(lines) == 4


def test_observed_residuals_dominated_by_curves(problem42):
    # bound curves evaluated on real runs stay above the measured residuals
    m, ell, kappa = dtilde_extremes(problem42)
    for kind, beta in (("thm7", 2.5 * ell), ("thm7", 0.3 * m),
                       ("thm9", math.sqrt(m * ell))):
        factors = conditioning_factors(problem42, beta)
        if kind == "thm9" and factors[2] is None:
            continue
        trace = admm_gmres_solve(problem42, beta, "right", epsilon=1e-8)
        relres = trace.residuals / trace.residuals[0]
        curve = theorem_curve(kind, len(relres) - 1, beta, m, ell, factors, 1e-8)
        assert np.all(relres[2:] <= curve.values[2:len(relres)])
