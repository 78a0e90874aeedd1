"""Self-tests of the benchmark: metric names and units, failure counting,
exact repeat of counts, and the tie of ``sweep`` to ``admmgmres scaling``."""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import admmgmres
import run
import spans
import workloads
from admmgmres.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_workload(seed=5):
    """Every op kind on problems small enough for a test."""
    ops = (workloads.sweep(seed, sweeps=1, count=3).ops
           + workloads.large(seed, problems=1, dims=(12, 8, 3)).ops
           + workloads.spectral(seed, problems=2, dim_range=(12, 24)).ops)
    return workloads.Workload("smoke", ops, trace_ops=len(ops), summary="smoke")


def measure(build, trace, tmp_path):
    result = run.measure(workloads, build, 0.01, trace, spans_dir=tmp_path)
    return json.loads(json.dumps(result))


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(trace, section, tmp_path):
    result = measure(tiny_workload, trace, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_non_converged_solve_counts_as_failed(tmp_path):
    good = tiny_workload().ops[0]
    stalled = workloads.Op("admm", good.problem, None, good.rhs_norm, max_iter=1)

    def build():
        return workloads.Workload("stall", [good, stalled], trace_ops=2, summary="stall")

    result = measure(build, False, tmp_path)
    attempted, failed = result["attempted"], result["failed"]
    assert not result["correct"]
    assert failed == attempted // 2 >= 1
    assert result["metrics"]["ok_rate"]["value"] == (attempted - failed) / attempted


def test_iterations_and_calls_repeat_exactly(tmp_path):
    runs = [measure(tiny_workload, trace, tmp_path) for trace in (False, False, True, True)]
    assert runs[0]["metrics"]["iterations"] == runs[1]["metrics"]["iterations"]
    counts = [{k: m["value"] for k, m in r["metrics"].items() if k.endswith((".calls", ".steps"))}
              for r in runs[2:]]
    assert counts[0] and counts[0] == counts[1]


def test_missing_function_drops_its_metrics_only(monkeypatch, tmp_path):
    monkeypatch.delattr(admmgmres.precond, "apply_inverse")
    result = measure(tiny_workload, True, tmp_path)
    assert result["correct"]
    names = set(result["metrics"])
    assert not any(name.startswith("precond.apply_inverse.") for name in names)
    assert "gmres.gmres.steps" in names


def test_tracer_skips_unknown_targets():
    tracer = spans.Tracer()
    tracer.install([("admm", "no_such_function", None), ("no_such_module", "f", None)])
    tracer.uninstall()
    assert tracer.absent == {"admm.no_such_function", "no_such_module.f"}


def test_sweep_matches_scaling_csv(tmp_path):
    seed = 1234
    out = tmp_path / "scaling.csv"
    assert cli_main(["scaling", "--count", str(workloads.SCALING_COUNT),
                     "--dim-max", str(workloads.SCALING_DIM_MAX),
                     "--s-max", str(workloads.SCALING_S_MAX),
                     "--eps", str(workloads.EPSILON), "--seed", str(seed), "-o", str(out)]) == 0
    expected = [(int(r["nx"]), int(r["ny"]), int(r["nz"]), float(r["beta"]), int(r["iterations"]))
                for r in csv.DictReader(open(out, encoding="utf-8"))]

    rows = []
    for op in workloads.sweep(seed, sweeps=1).ops:
        outcome = workloads.check(op, workloads.execute(op))
        assert outcome.failure is None
        rows.append((*op.dims, outcome.beta, outcome.iterations))
    assert rows == expected


def test_without_the_package_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
