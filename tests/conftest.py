"""Shared problem factories and call spies for the test suite."""

import functools
import importlib
import math

import numpy as np
import pytest

from admmgmres.core import SaddleProblem
from admmgmres.precond import AdmmEngine
from admmgmres.randgen import GenSpec, haar_orthogonal, random_problem


def seeded_problem(nx=6, ny=4, nz=2, s=0.5, seed=42):
    return random_problem(GenSpec(nx=nx, ny=ny, nz=nz, s=s, seed=seed))


def random_dims(rng, nx_max=16, total_max=None):
    """Draw admissible (nx, ny, nz), optionally capping nx + nz + ny."""
    while True:
        nx = int(rng.integers(2, nx_max + 1))
        ny = int(rng.integers(2, nx + 1))
        nz = int(rng.integers(1, ny + 1))
        if total_max is None or nx + nz + ny <= total_max:
            return nx, ny, nz


def extremes_problem(ny, nz, m, ell, seed, interior="log"):
    """Problem with exactly prescribed extremes of (A D^{-1} A')^{-1}.

    Uses A = I so the rescaled matrix is D itself; D gets a rotated
    spectrum on [m, ell] with both endpoints attained.
    """
    rng = np.random.default_rng(seed)
    nx = ny
    if nx < 2:
        raise ValueError("need ny >= 2 to pin both extremes")
    if interior == "log":
        inner = np.exp(rng.uniform(math.log(m), math.log(ell), nx - 2))
    else:
        inner = np.linspace(m, ell, nx)[1:-1]
    evals = np.concatenate([[m, ell], inner])
    U = haar_orthogonal(nx, rng)
    D = (U * evals) @ U.T
    D = 0.5 * (D + D.T)
    B = haar_orthogonal(ny, rng)[:, :nz]
    return SaddleProblem(
        np.eye(nx),
        B,
        D,
        rng.standard_normal(nx),
        rng.standard_normal(nz),
        rng.standard_normal(ny),
    )


def count_calls(monkeypatch, name):
    """Spy on ``name`` where the solver modules look it up; return the list of its calls."""
    calls = []
    for module_name in ("admmgmres.admm", "admmgmres.gmres"):
        module = importlib.import_module(module_name)
        original = getattr(module, name, None)
        if original is None:  # the module does not call it
            continue

        def spy(*args, _original=original, **kwargs):
            calls.append(name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


# the fields of an engine that its kernel coordinate forms on first read
KERNEL_FIELDS = {"T", "CU", "N"}


def spy_formed(monkeypatch, name):
    """Spy on the cached engine field ``name``; return the engines that formed it."""
    formed, original = [], getattr(AdmmEngine, name).func
    spy = functools.cached_property(lambda engine: formed.append(engine) or original(engine))
    spy.__set_name__(AdmmEngine, name)
    monkeypatch.setattr(AdmmEngine, name, spy)
    return formed


@pytest.fixture
def problem42():
    return seeded_problem(6, 4, 2, 0.5, 42)


@pytest.fixture
def problem7():
    return seeded_problem(7, 5, 3, 0.6, 7)
