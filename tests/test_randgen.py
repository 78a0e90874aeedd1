import json
import math

import numpy as np
import pytest

from admmgmres.core import save_problem
from admmgmres.randgen import GenSpec, haar_orthogonal, random_problem, sample_beta
from admmgmres.spectral import dtilde_extremes


class TestGenSpec:
    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError, match="nz <= ny <= nx"):
            GenSpec(nx=4, ny=5, nz=2, s=0.5, seed=1)
        with pytest.raises(ValueError, match="nz <= ny <= nx"):
            GenSpec(nx=4, ny=3, nz=0, s=0.5, seed=1)

    def test_rejects_negative_spread(self):
        with pytest.raises(ValueError, match="s must be"):
            GenSpec(nx=4, ny=3, nz=2, s=-0.1, seed=1)
        # nan once passed and was later blamed on block A
        for s in (math.nan, math.inf):
            with pytest.raises(ValueError, match="s must be finite"):
                GenSpec(nx=4, ny=3, nz=2, s=s, seed=1)

    def test_provenance_fields(self):
        spec = GenSpec(nx=6, ny=4, nz=2, s=0.5, seed=42)
        assert spec.provenance() == {"nx": 6, "ny": 4, "nz": 2, "s": 0.5, "seed": 42}


class TestRandomProblem:
    def test_deterministic(self):
        a = random_problem(GenSpec(6, 4, 2, 0.5, 42))
        b = random_problem(GenSpec(6, 4, 2, 0.5, 42))
        for name in ("A", "B", "D", "r_x", "r_z", "r_y"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_seed_changes_output(self):
        a = random_problem(GenSpec(6, 4, 2, 0.5, 42))
        b = random_problem(GenSpec(6, 4, 2, 0.5, 43))
        assert not np.array_equal(a.A, b.A)

    def test_zero_spread_unit_spectra(self):
        p = random_problem(GenSpec(5, 5, 2, 0.0, 7))
        assert np.allclose(np.linalg.svd(p.A, compute_uv=False), 1.0, rtol=1e-12)
        assert np.allclose(np.linalg.eigvalsh(p.D), 1.0, rtol=1e-12)
        m, ell, kappa = dtilde_extremes(p)
        assert (m, ell, kappa) == pytest.approx((1.0, 1.0, 1.0), rel=1e-10)

    def test_shapes_and_validity(self):
        p = random_problem(GenSpec(9, 6, 3, 1.0, 11))
        assert p.A.shape == (6, 9)
        assert p.B.shape == (6, 3)
        assert p.D.shape == (9, 9)
        sa = np.linalg.svd(p.A, compute_uv=False)
        assert sa[-1] > 0
        assert np.linalg.eigvalsh(p.D)[0] > 0

    def test_spread_sweep_spans_condition_numbers(self):
        kappas = []
        for s in (0.0, 0.25, 0.5, 0.75, 1.0):
            for seed in range(10):
                p = random_problem(GenSpec(14, 10, 4, s, 1000 * seed + 17))
                kappas.append(dtilde_extremes(p)[2])
        assert min(kappas) <= 1.5
        assert max(kappas) >= 1e3

    def test_haar_entry_statistics(self):
        # first entry of an orthogonal factor behaves like a coordinate of a
        # uniform point on the sphere: mean 0, variance 1/n
        rng = np.random.default_rng(123)
        vals = np.array([haar_orthogonal(8, rng)[0, 0] for _ in range(10_000)])
        assert abs(vals.mean()) < 0.02
        assert abs(vals.var() - 1.0 / 8.0) <= 0.1 * (1.0 / 8.0)

    def test_provenance_round_trip(self, tmp_path):
        spec = GenSpec(6, 4, 2, 0.5, 42)
        path = tmp_path / "p.json"
        save_problem(random_problem(spec), path, provenance=spec.provenance())
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["provenance"] == {"nx": 6, "ny": 4, "nz": 2, "s": 0.5, "seed": 42}


class TestSampleBeta:
    def test_always_in_range(self):
        betas = [sample_beta(seed) for seed in range(2000)]
        assert min(betas) >= 1e-2
        assert max(betas) <= 1e2

    def test_deterministic(self):
        assert sample_beta(99) == sample_beta(99)

    def test_log_uniform_distribution(self):
        # log10(beta)/2 should be uniform on [-1, 1]; the exponent median
        # sits at the midpoint beta = 1
        betas = np.array([sample_beta(seed) for seed in range(100_000)])
        exponents = np.log10(betas)
        assert abs(np.median(exponents)) < 0.02
        u = np.sort((exponents + 2.0) / 4.0)
        n = len(u)
        ks = np.max(np.abs(u - (np.arange(1, n + 1) - 0.5) / n)) + 0.5 / n
        assert ks < 0.01
