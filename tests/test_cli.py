import csv
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admmgmres import cli
from admmgmres.cli import main
from admmgmres.core import NumericalError, assemble_kkt, direct_solve, load_problem, save_problem
from admmgmres.spectral import dtilde_extremes
from conftest import extremes_problem


def gen_args(path, nx=6, ny=4, nz=2, s=0.5, seed=42):
    return ["gen", "--nx", str(nx), "--ny", str(ny), "--nz", str(nz),
            "--s", str(s), "--seed", str(seed), "-o", str(path)]


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "p42.json"
    assert main(gen_args(path)) == 0
    return path


class TestGen:
    def test_writes_provenance(self, problem_file):
        data = json.loads(problem_file.read_text(encoding="utf-8"))
        assert data["provenance"] == {"nx": 6, "ny": 4, "nz": 2, "s": 0.5, "seed": 42}
        load_problem(problem_file)

    def test_regeneration_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(gen_args(a)) == 0
        assert main(gen_args(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dimension_rule_exit_code(self, tmp_path, capsys):
        rc = main(gen_args(tmp_path / "bad.json", nz=5, ny=4))
        assert rc == 2
        assert "nz <= ny" in capsys.readouterr().err


class TestSolve:
    def test_admm_auto_converges(self, tmp_path, problem_file):
        prefix = str(tmp_path / "run")
        rc = main(["solve", str(problem_file), "--method", "admm", "--beta", "auto",
                   "--eps", "1e-6", "--out-prefix", prefix])
        assert rc == 0
        record = json.loads((tmp_path / "run.json").read_text(encoding="utf-8"))
        assert record["converged"] is True
        assert record["method_tag"] == "admm"
        assert record["final_rel_residual"] <= 1e-6
        p = load_problem(problem_file)
        m, ell, _ = dtilde_extremes(p)
        assert record["beta"] == pytest.approx(math.sqrt(m * ell), rel=1e-12)
        assert record["kappa"] == pytest.approx(ell / m, rel=1e-12)
        assert record["seed"] == 42

        with open(tmp_path / "run.trace.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [*rows[0]] == ["k", "rel_residual"]
        assert len(rows) == record["iterations"] + 1
        assert float(rows[0]["rel_residual"]) == 1.0

    @pytest.mark.parametrize("method", ["admm", "gmres-left", "gmres-right"])
    @pytest.mark.parametrize("max_iter", [None, 3], ids=["converged", "capped"])
    def test_solution_file_is_as_close_as_the_runs_residual_allows(self, tmp_path, problem_file,
                                                                    method, max_iter):
        # u - u* = M^{-1} (M u - r), so the written u is within the run's last
        # residual ||M u - r|| = final_rel_residual * ||r|| (from the zero
        # start) over sigma_min(M) of direct_solve, converged or not; rho
        # covers the roundoff of both sides as in the solver property test
        prefix = tmp_path / "run"
        cap = [] if max_iter is None else ["--max-iter", str(max_iter)]
        assert main(["solve", str(problem_file), "--method", method, "--beta", "0.9",
                     "--out-prefix", str(prefix), *cap]) == 0
        record = json.loads((tmp_path / "run.json").read_text(encoding="utf-8"))
        solution = json.loads((tmp_path / "run.solution.json").read_text(encoding="utf-8"))
        assert record["converged"] == (max_iter is None)
        p = load_problem(problem_file)
        assert {name: len(part) for name, part in solution.items()} == {"x": p.nx, "z": p.nz,
                                                                         "y": p.ny}
        u, exact = np.concatenate([solution[name] for name in "xzy"]), direct_solve(p)
        sigma = np.linalg.svd(assemble_kkt(p), compute_uv=False)
        rho = 10 * p.dim * np.finfo(float).eps * sigma[0] / sigma[-1]
        residual = record["final_rel_residual"] * np.linalg.norm(p.rhs())
        bound = (1 + rho) * residual / sigma[-1]
        assert np.linalg.norm(u - exact) <= bound + rho * (np.linalg.norm(u) + np.linalg.norm(exact))

    def test_gmres_right_random_beta(self, tmp_path, problem_file):
        prefix = str(tmp_path / "gm")
        rc = main(["solve", str(problem_file), "--method", "gmres-right",
                   "--beta", "random:3", "--out-prefix", prefix])
        assert rc == 0
        record = json.loads((tmp_path / "gm.json").read_text(encoding="utf-8"))
        assert record["method_tag"] == "admm-gmres-right"
        assert record["converged"] is True
        assert 1e-2 <= record["beta"] <= 1e2

    def test_left_right_traces_differ(self, tmp_path, problem_file):
        for method in ("gmres-left", "gmres-right"):
            rc = main(["solve", str(problem_file), "--method", method,
                       "--beta", "0.9", "--out-prefix", str(tmp_path / method)])
            assert rc == 0
        read = lambda name: [float(r["rel_residual"]) for r in
                             csv.DictReader(open(tmp_path / f"{name}.trace.csv"))]
        left, right = read("gmres-left"), read("gmres-right")
        n = min(len(left), len(right))
        assert max(abs(l - r) for l, r in zip(left[:n], right[:n])) > 0

    def test_unreadable_file(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json")]) == 2

    def test_invalid_beta(self, problem_file, capsys):
        # 1e-310 once exited 2 with scipy's "array must not contain infs or NaNs",
        # random:abc with int()'s message, which did not name --beta
        for beta in ("-1", "grmbl", "inf", "1e-310", "random:abc", "random:-1"):
            assert main(["solve", str(problem_file), "--beta", beta]) == 2
            assert "beta" in capsys.readouterr().err.splitlines()[-1]

    @pytest.mark.parametrize("method", ["admm", "gmres-left", "gmres-right"])
    def test_overflowing_beta_exits_3(self, tmp_path, problem_file, capsys, method):
        # numpy's overflow warning once reached stderr before the message
        def to_stderr(message, category, filename, lineno, file=None, line=None):
            sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

        prefix = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = to_stderr  # as outside pytest, which records warnings
            assert main(["solve", str(problem_file), "--method", method, "--beta", "1e-200",
                         "--out-prefix", str(prefix)]) == 3
        err = capsys.readouterr().err
        assert "non-finite" in err and "Traceback" not in err
        assert "RuntimeWarning" not in err
        # the three solvers once gave three unrelated messages, none naming
        # beta; each now overflows in its first sweep, so one record names
        # the same cause for all three
        tag = "admm" if method == "admm" else f"admm-gmres-{method[6:]}"
        head = f"numerical error: {tag} at beta=1e-200: "
        last = err.splitlines()[-1]
        assert last.startswith(head)
        rnorm = np.linalg.norm(load_problem(problem_file).rhs())
        assert last[len(head):] == ("non-finite KKT residual at iteration 1; "
                                      f"last finite iteration was 0 with residual {rnorm:.3e}")
        assert not (tmp_path / "run.json").exists()

    def test_non_finite_data_names_block(self, tmp_path, problem_file, capsys):
        # inf in rx once made solve report converged=True with a NaN residual
        data = json.loads(problem_file.read_text(encoding="utf-8"))
        data["rx"][1] = math.inf
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        assert main(["solve", str(bad), "--out-prefix", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "block r_x" in err and "index 1" in err
        assert not (tmp_path / "run.json").exists()

    @pytest.mark.parametrize("edit, field", [
        (lambda d: {**d, "A": {"a": 1}}, "'A'"),
        (lambda d: [d], "JSON object"),
        (lambda d: {**d, "nx": None}, "'nx'"),
        (lambda d: {**d, "provenance": [1]}, "'provenance'"),
        (lambda d: {**d, "nx": 6.5}, "'nx'"),
        (lambda d: {**d, "provenance": {"s": "abc", "seed": [1]}}, "'provenance.s'"),
        (lambda d: {**d, "provenance": {"s": math.nan, "seed": True}}, "'provenance.s'"),
        (lambda d: {**d, "provenance": {**d["provenance"], "s": True}}, "'provenance.s'"),
        (lambda d: {**d, "provenance": {**d["provenance"], "s": -math.inf}}, "'provenance.s'"),
        (lambda d: {**d, "provenance": {**d["provenance"], "seed": [1]}}, "'provenance.seed'"),
        (lambda d: {**d, "provenance": {**d["provenance"], "seed": True}}, "'provenance.seed'"),
        (lambda d: {**d, "provenance": {**d["provenance"], "seed": -1}}, "'provenance.seed'"),
        (lambda d: {**d, "provenance": {**d["provenance"], "seed": 2.0}}, "'provenance.seed'"),
    ], ids=["object-array", "top-level-list", "null-dimension", "list-provenance",
            "float-dimension", "string-s-list-seed", "nan-s-bool-seed", "bool-s", "inf-s",
            "list-seed", "bool-seed", "negative-seed", "float-seed"])
    def test_malformed_file_names_field(self, tmp_path, problem_file, capsys, edit, field):
        # each once ended in a TypeError/AttributeError traceback or, for 6.5,
        # was silently read as 6; a provenance s or seed of the wrong type was
        # copied into the run record as given, NaN as a bare token that is
        # not JSON
        data = json.loads(problem_file.read_text(encoding="utf-8"))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(data)), encoding="utf-8")
        assert main(["solve", str(bad), "--out-prefix", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not list(tmp_path.glob("run*"))

    @pytest.mark.parametrize("method", ["admm", "gmres-left", "gmres-right"])
    def test_max_iter_below_one_exits_2(self, tmp_path, problem_file, capsys, method):
        # gmres-left/right once ran one step at --max-iter 0 and exited 0
        prefix = tmp_path / "run"
        assert main(["solve", str(problem_file), "--method", method, "--max-iter", "0",
                     "--out-prefix", str(prefix)]) == 2
        err = capsys.readouterr().err
        assert "max_iter" in err and "Traceback" not in err
        assert not (tmp_path / "run.json").exists()

    def test_max_iter_reaches_gmres(self, tmp_path):
        path = tmp_path / "p.json"
        assert main(gen_args(path, nx=30, ny=20, nz=8, s=0.6, seed=7)) == 0
        prefix = tmp_path / "gm"
        assert main(["solve", str(path), "--method", "gmres-right", "--beta", "1",
                     "--max-iter", "1", "--out-prefix", str(prefix)]) == 0
        record = json.loads((tmp_path / "gm.json").read_text(encoding="utf-8"))
        assert record["iterations"] == 1
        assert record["converged"] is False

    def test_auto_beta_eigendecomposes_once(self, tmp_path, monkeypatch):
        # beta = sqrt(m ell) and the record's kappa come from one A D^-1 A'
        import admmgmres.spectral as spectral

        path = tmp_path / "p.json"
        assert main(gen_args(path, nx=20, ny=12, nz=5)) == 0
        calls = []
        eig = spectral._dtilde_eig
        monkeypatch.setattr(spectral, "_dtilde_eig", lambda p: calls.append(1) or eig(p))
        assert main(["solve", str(path), "--beta", "auto",
                     "--out-prefix", str(tmp_path / "run")]) == 0
        assert len(calls) == 1


def count_dtilde_eig(monkeypatch, argv):
    """Run the CLI on ``argv``, expect exit 0, and count eigendecompositions of A D^-1 A'."""
    import admmgmres.spectral as spectral

    calls = []
    eig = spectral._dtilde_eig
    monkeypatch.setattr(spectral, "_dtilde_eig", lambda p: calls.append(1) or eig(p))
    assert main(argv) == 0
    return len(calls)


class TestSpectrum:
    def test_auto_beta_eigendecomposes_once(self, tmp_path, monkeypatch):
        # beta = sqrt(m ell) and the report share one A D^-1 A'
        path = tmp_path / "p.json"
        assert main(gen_args(path, nx=20, ny=12, nz=5)) == 0
        argv = ["spectrum", str(path), "--beta", "auto", "-o", str(tmp_path / "s.json")]
        assert count_dtilde_eig(monkeypatch, argv) == 1

    def test_regime_sweep(self, tmp_path):
        # extremes pinned near 0.49 / 2.2: sweeping the penalty into the
        # balanced window moves the spectrum from real clusters into the
        # complex disk and back out again
        p = extremes_problem(ny=10, nz=5, m=0.49, ell=2.2, seed=5)
        path = tmp_path / "fig2.json"
        save_problem(p, path)
        expected = {
            0.01: "two_intervals",
            0.1: "two_intervals",
            0.33: "single_interval",
            0.5: "disk_and_interval",
            0.67: "disk_and_interval",
            1.0: "disk_and_interval",
            5.0: "two_intervals",
        }
        for beta, regime in expected.items():
            out = tmp_path / f"spec{beta}.json"
            rc = main(["spectrum", str(path), "--beta", str(beta), "-o", str(out)])
            assert rc == 0
            report = json.loads(out.read_text(encoding="utf-8"))
            assert report["regime"] == regime, f"beta={beta}"
            assert report["enclosure_ok"] is True

    def test_auto_beta_hits_root_kappa(self, tmp_path, problem_file):
        out = tmp_path / "spec.json"
        assert main(["spectrum", str(problem_file), "--beta", "auto", "-o", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["gamma"] == pytest.approx(math.sqrt(report["kappa"]), abs=1e-8)


class TestBounds:
    def test_auto_beta_eigendecomposes_once(self, tmp_path, monkeypatch):
        # beta = sqrt(m ell) and the report behind the curve share one A D^-1 A'
        path = tmp_path / "p.json"
        assert main(gen_args(path, nx=20, ny=12, nz=5)) == 0
        argv = ["bounds", str(path), "--kind", "thm9", "--beta", "auto",
                "-o", str(tmp_path / "c.csv")]
        assert count_dtilde_eig(monkeypatch, argv) == 1

    def test_curve_csv(self, tmp_path, problem_file):
        out = tmp_path / "curve.csv"
        p = load_problem(problem_file)
        _, ell, _ = dtilde_extremes(p)
        rc = main(["bounds", str(problem_file), "--kind", "thm7",
                   "--beta", str(4.0 * ell), "--k-max", "20", "-o", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(open(out, encoding="utf-8")))
        assert len(rows) == 21
        assert rows[0]["kind"] == "thm7"
        values = [float(r["value"]) for r in rows]
        assert all(v > 0 for v in values)
        assert all(a >= b for a, b in zip(values[2:], values[3:]))

    def test_regime_mismatch_exit_code(self, problem_file):
        assert main(["bounds", str(problem_file), "--kind", "thm7",
                     "--beta", "auto"]) == 2


class TestScaling:
    def test_deterministic_and_well_formed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["scaling", "--count", "10", "--dim-max", "12", "--seed", "5"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

        rows = list(csv.DictReader(open(a, encoding="utf-8")))
        assert len(rows) == 20  # two methods per problem
        for row in rows:
            assert row["method"] in ("admm", "admm-gmres-right")
            assert row["status"] == "ok"
            ref = float(row["seventeen_sqrt_kappa"])
            assert ref == pytest.approx(17.0 * math.sqrt(float(row["kappa"])), rel=1e-12)

    def test_max_iter_caps_both_methods(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["scaling", "--count", "3", "--dim-max", "8", "--seed", "2",
                     "--max-iter", "1", "-o", str(out)]) == 0
        rows = list(csv.DictReader(open(out, encoding="utf-8")))
        assert {row["method"] for row in rows} == {"admm", "admm-gmres-right"}
        assert all(row["iterations"] == "1" for row in rows)

    def test_failed_rows(self, tmp_path, monkeypatch):
        # spreads up to 40 make many drawn blocks numerically singular, so
        # generation fails for some problems; a failed problem still gets one
        # row per method, with no penalty or kappa, while a failed run keeps
        # both (here right GMRES is made to fail on every problem; the sweep
        # cap only keeps ADMM on the surviving, ill-conditioned problems short)
        run_method = cli._run_method

        def right_gmres_fails(problem, method, *args):
            if method == "gmres-right":
                raise NumericalError("injected")
            return run_method(problem, method, *args)

        monkeypatch.setattr(cli, "_run_method", right_gmres_fails)
        out = tmp_path / "s.csv"
        assert main(["scaling", "--count", "30", "--dim-max", "8", "--s-max", "40",
                     "--seed", "1", "--max-iter", "20", "-o", str(out)]) == 0
        rows = list(csv.DictReader(open(out, encoding="utf-8")))
        assert [row["method"] for row in rows] == ["admm", "admm-gmres-right"] * 30
        statuses = {"failed:ValueError": 0, "ok": 0}
        for admm_row, right_row in zip(rows[::2], rows[1::2]):
            assert admm_row["problem_id"] == right_row["problem_id"]
            statuses[admm_row["status"]] += 1
            if admm_row["status"] == "failed:ValueError":
                for row in (admm_row, right_row):
                    assert row["status"] == "failed:ValueError"
                    assert (row["iterations"], row["converged"]) == ("0", "false")
                    assert all(math.isnan(float(row[column])) for column in
                               ("beta", "kappa", "seventeen_sqrt_kappa", "final_rel_residual"))
            else:
                assert right_row["status"] == "failed:NumericalError"
                assert (right_row["iterations"], right_row["converged"]) == ("0", "false")
                assert math.isnan(float(right_row["final_rel_residual"]))
                assert all(math.isfinite(float(right_row[column])) for column in ("beta", "kappa"))
        assert statuses["failed:ValueError"] >= 1 and statuses["ok"] >= 1

    def test_reference_column_present(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["scaling", "--count", "4", "--dim-max", "8", "--seed", "1",
                     "-o", str(out)]) == 0
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert "seventeen_sqrt_kappa" in header.split(",")


@pytest.mark.parametrize("name, argv", [
    ("p.json", ["solve", "PROBLEM", "--out-prefix", "p"]),
    ("p.trace.csv", ["solve", "PROBLEM", "--out-prefix", "p"]),
    ("p.solution.json", ["solve", "PROBLEM", "--out-prefix", "p"]),
    ("q.json", ["spectrum", "PROBLEM", "--beta", "1", "-o", "PROBLEM"]),
    ("q.json", ["bounds", "PROBLEM", "--kind", "prop5", "-o", "PROBLEM"]),
], ids=["solve-record", "solve-trace", "solve-solution", "spectrum", "bounds"])
def test_solve_refuses_to_overwrite_problem(tmp_path, capsys, name, argv):
    # all but solve-record once exited 0 with the problem file replaced
    path = tmp_path / name
    assert main(gen_args(path)) == 0
    before = path.read_bytes()
    capsys.readouterr()
    argv = [str(path) if arg == "PROBLEM" else str(tmp_path / arg) if arg == "p" else arg
            for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "overwrite" in err and str(path) in err
    assert path.read_bytes() == before


@pytest.mark.parametrize("argv", [
    ["solve", "PROBLEM", "--out-prefix", "out"],
    ["spectrum", "PROBLEM", "--beta", "1", "-o", "out"],
    ["bounds", "PROBLEM", "--kind", "thm7", "-o", "out"],
], ids=["solve", "spectrum", "bounds"])
def test_deeply_nested_file_exits_2_and_names_it(tmp_path, capsys, argv):
    # the JSON parser's RecursionError once ended each command in a traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    argv = [str(path) if arg == "PROBLEM" else str(tmp_path / arg) if arg == "out" else arg
            for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command", [["spectrum"], ["bounds", "--kind", "thm7"]],
                         ids=["spectrum", "bounds"])
def test_beta_with_infinite_reciprocal_names_beta(problem_file, capsys, command):
    # once exited 2 with scipy's "array must not contain infs or NaNs"
    assert main([command[0], str(problem_file), *command[1:], "--beta", "1e-310"]) == 2
    assert "beta" in capsys.readouterr().err


@pytest.mark.parametrize("block, scale", [("B", 1e150), ("B", 1e-150), ("D", 1e150),
                                          ("D", 1e-150)])
@pytest.mark.parametrize("command", [["spectrum", "--beta", "auto"], ["bounds", "--kind", "prop5"],
                                     ["bounds", "--kind", "thm9"]],
                         ids=["spectrum", "bounds-prop5", "bounds-thm9"])
def test_overflowing_c1_exits_3_and_names_it(tmp_path, problem_file, capsys, block, scale,
                                             command):
    # c1 = |S| |S^-1| |G|^2 overflows to inf on these scalings; spectrum once
    # wrote "c1": Infinity, which is not JSON, bounds thm9 a CSV of inf and
    # bounds prop5 an OverflowError traceback
    data = json.loads(problem_file.read_text(encoding="utf-8"))
    data[block] = (scale * np.array(data[block])).tolist()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command[0], str(bad), *command[1:], "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and "c1" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, name", [
    (["bounds", "PROBLEM", "--kind", "prop5", "--eps", "0"], "epsilon"),
    (["bounds", "PROBLEM", "--kind", "prop5", "--eps", "-1"], "epsilon"),
    (["bounds", "PROBLEM", "--kind", "prop5", "--eps", "2"], "epsilon"),
    (["bounds", "PROBLEM", "--kind", "prop5", "--k-max", "-3"], "k_max"),
    (["scaling", "--count", "-1"], "--count"),
    (["scaling", "--seed", "-1"], "--seed"),
    (["scaling", "--dim-max", "0"], "--dim-max"),
    (["scaling", "--s-max", "-1"], "--s-max"),
    (["scaling", "--s-max", "nan"], "--s-max"),
    (["scaling", "--eps", "0"], "epsilon"),
    (["scaling", "--max-iter", "0"], "max_iter"),
    (["gen", "--nx", "6", "--ny", "4", "--nz", "2", "--seed", "1", "--s", "nan"], "spread s"),
], ids=["bounds-eps-0", "bounds-eps-negative", "bounds-eps-2", "bounds-k-max-negative",
        "scaling-count-negative", "scaling-seed-negative", "scaling-dim-max-0", "scaling-s-max-negative",
        "scaling-s-max-nan", "scaling-eps-0", "scaling-max-iter-0", "gen-s-nan"])
def test_bad_flag_exits_2_and_names_it(tmp_path, problem_file, capsys, argv, name):
    # bounds once raised ZeroDivisionError (eps 0), said only "math domain error"
    # (eps -1) or exited 0 (eps 2, k-max -3); scaling died in SeedSequence.spawn
    # (count -1), said only "expected non-negative integer" (seed -1), "low >=
    # high" (dim-max 0) or "high - low < 0" (s-max -1), or exited 0 with every
    # row failed (eps 0, max-iter 0); gen blamed nan on block A
    out = tmp_path / "out"
    argv = [str(problem_file) if arg == "PROBLEM" else arg for arg in argv]
    assert main(argv + ["-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert name in err.splitlines()[-1] and "Traceback" not in err
    assert not out.exists()


# One mutation of a valid 6-4-2 problem file: a field set to an odd value,
# or a block scaled toward overflow or underflow.
FUZZ_FIELDS = ("nx", "ny", "nz", "A", "B", "D", "rx", "rz", "ry", "provenance")
FUZZ_VALUES = (None, True, -1, 2**70, math.nan, math.inf, -math.inf, "abc", [], {},
               [[1.0, [2.0]], [3.0]])
FUZZ_BLOCKS = ("A", "B", "D", "rx", "rz", "ry")
MUTATIONS = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(FUZZ_FIELDS), st.sampled_from(FUZZ_VALUES)),
    st.tuples(st.just("scale"), st.sampled_from(FUZZ_BLOCKS),
              st.sampled_from((1e150, 1e-150, 1e300, 1e-300))),
)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@example(("scale", "B", 1e150))  # c1 overflows: once a traceback from bounds prop5
@given(MUTATIONS)
def test_mutated_problem_file_exits_0_2_or_3(mutation):
    # every command either works or says why with its exit code: no exception
    # escapes main, and a solve that exits 0 never claims convergence at a
    # non-finite residual
    edit, field, value = mutation
    with tempfile.TemporaryDirectory() as directory:
        directory = Path(directory)
        path = directory / "p.json"
        assert main(gen_args(path, seed=1)) == 0
        data = json.loads(path.read_text(encoding="utf-8"))
        data[field] = value if edit == "set" else [value * entry for entry in data[field]]
        path.write_text(json.dumps(data), encoding="utf-8")
        prefix = directory / "run"
        for method in ("admm", "gmres-left", "gmres-right"):
            rc = main(["solve", str(path), "--method", method, "--out-prefix", str(prefix)])
            assert rc in (0, 2, 3), method
            if rc == 0:
                record = json.loads((directory / "run.json").read_text(encoding="utf-8"))
                assert not record["converged"] or math.isfinite(record["final_rel_residual"])
        for command in (["spectrum", "--beta", "auto"], ["bounds", "--kind", "prop5"],
                        ["bounds", "--kind", "thm9"]):
            rc = main([command[0], str(path), *command[1:], "-o", str(directory / "out")])
            assert rc in (0, 2, 3), command
