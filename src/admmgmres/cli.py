"""Benchmark command line: generate, solve, inspect spectra, dump bounds, scale.

Subcommands
-----------
gen       write a random problem to a JSON file (deterministic per seed)
solve     run one solver on a problem file; writes a trace CSV, a run
          record JSON and the solution JSON
spectrum  write the spectral report for one (problem, beta) pair
bounds    dump one bound curve as CSV
scaling   random-problem sweep comparing ADMM at the optimal penalty with
          right-preconditioned GMRES at a random penalty; writes one CSV
          with the 17*sqrt(kappa) reference column

Exit codes: 0 success, 2 validation error, 3 numerical failure.  All file
output is UTF-8 with dot decimals, byte-reproducible from flags and seeds.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .admm import admm_solve
from .bounds import curve_to_csv, theorem_curve
from .core import (NumericalError, _read_json, check_beta, check_epsilon, check_max_iter,
                   load_problem, problem_from_dict, save_problem, stacked_parts)
from .gmres import admm_gmres_solve
from .precond import make_engine
from .randgen import GenSpec, random_problem, sample_beta
from .spectral import classify_and_verify, dtilde_extremes

_METHODS = ("admm", "gmres-left", "gmres-right")


def fit_scaling_exponent(kappas, iterations, quantile=0.9):
    """Envelope exponent of iteration counts against condition number.

    Fits log(iterations) = a + b * log(kappa) by quantile regression
    (pinball loss, solved as a linear program) and returns the slope b.
    The upper quantile tracks the envelope of the cloud: balanced-split
    problems converge strictly faster than the norm rate, so a mean fit
    would understate the worst-case growth the envelope describes.
    """
    from scipy.optimize import linprog

    lk, li = np.asarray(kappas, dtype=float), np.asarray(iterations, dtype=float)
    if lk.shape != li.shape or lk.ndim != 1 or len(lk) < 8:
        raise ValueError("need at least 8 paired samples")
    bad = np.flatnonzero(~(np.isfinite(lk) & (lk > 0) & np.isfinite(li) & (li > 0)))
    if bad.size:
        raise ValueError(f"sample {bad[0]}: kappa {lk[bad[0]]} and iteration count "
                         f"{li[bad[0]]} must both be finite and positive")
    lk, li = np.log(lk), np.log(li)
    n = len(lk)
    design = np.column_stack([np.ones(n), lk])
    cost = np.concatenate([[0, 0, 0, 0], quantile * np.ones(n), (1 - quantile) * np.ones(n)])
    a_eq = np.column_stack([design, -design, np.eye(n), -np.eye(n)])
    res = linprog(cost, A_eq=a_eq, b_eq=li, bounds=[(0, None)] * (4 + 2 * n), method="highs")
    if not res.success:
        raise NumericalError(f"quantile regression failed: {res.message}")
    return float(res.x[1] - res.x[3])  # the slope, split into its two nonnegative parts


def _resolve_beta(problem, text):
    """Parse a --beta value: a float, 'auto' (sqrt(m*ell)), or 'random:SEED'."""
    if text == "auto":
        m, ell, _ = dtilde_extremes(problem)
        return math.sqrt(m * ell)
    if text.startswith("random:"):
        seed = text[len("random:"):]
        if not (seed.isascii() and seed.isdigit()):
            raise ValueError(f"--beta random:SEED needs a nonnegative integer seed, got {text!r}")
        return sample_beta(int(seed))
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"--beta must be a number, auto or random:SEED, got {text!r}") from None
    return check_beta(value)


def _run_method(problem, method, beta, epsilon, max_iter):
    if method == "admm":
        return admm_solve(make_engine(problem, beta), epsilon=epsilon, max_iter=max_iter)
    side = method.split("-", 1)[1]
    return admm_gmres_solve(problem, beta, side, epsilon=epsilon, max_iter=max_iter)


def _rel_residuals(trace):
    """The residual history relative to its initial entry, or as is when that is 0."""
    return trace.residuals / (trace.residuals[0] or 1.0)


def _trace_csv(trace):
    rows = (f"{k},{float(res)!r}" for k, res in enumerate(_rel_residuals(trace)))
    return "\n".join(["k,rel_residual", *rows]) + "\n"


def _provenance(raw):
    """The checked ``provenance`` object of a problem file: s finite, seed an integer >= 0."""
    provenance = raw.get("provenance", {})
    if not isinstance(provenance, dict):
        raise ValueError(
            f"problem file field 'provenance' must be an object, got {type(provenance).__name__}"
        )
    s, seed = provenance.get("s", 0.0), provenance.get("seed", 0)
    if not (type(s) is int or type(s) is float and math.isfinite(s)):
        raise ValueError(f"problem file field 'provenance.s' must be a finite number, got {s!r}")
    if type(seed) is not int or seed < 0:
        raise ValueError(
            f"problem file field 'provenance.seed' must be a nonnegative integer, got {seed!r}"
        )
    return provenance


def _write_text(path, text):
    Path(path).write_text(text, encoding="utf-8")


def _refuse_to_overwrite(problem_path, *outputs):
    """Raise before any write if an output path is the problem file itself."""
    for output in outputs:
        if output and Path(output).exists() and Path(output).samefile(problem_path):
            raise ValueError(f"output {output!r} would overwrite the problem file; pick another")


def _emit(output, text):
    """Write ``text`` to the file ``output`` and print its path, or print ``text``."""
    if output:
        _write_text(output, text)
        print(output)
    else:
        print(text, end="")


def cmd_gen(args):
    spec = GenSpec(nx=args.nx, ny=args.ny, nz=args.nz, s=args.s, seed=args.seed)
    problem = random_problem(spec)
    save_problem(problem, args.output, provenance=spec.provenance())
    print(args.output)
    return 0


def cmd_solve(args):
    prefix = args.out_prefix or str(Path(args.problem).with_suffix("")) + f".{args.method}"
    trace_path = prefix + ".trace.csv"
    record_path = prefix + ".json"
    solution_path = prefix + ".solution.json"
    _refuse_to_overwrite(args.problem, trace_path, record_path, solution_path)
    raw = _read_json(args.problem)
    problem = problem_from_dict(raw)
    provenance = _provenance(raw)
    beta = _resolve_beta(problem, args.beta)
    trace = _run_method(problem, args.method, beta, args.eps, args.max_iter)

    # the run record; kappa is recomputed from the problem, never read from the file
    record = dict(problem_id=Path(args.problem).stem, nx=problem.nx, ny=problem.ny,
                  nz=problem.nz, s=provenance.get("s"), seed=provenance.get("seed"), beta=beta,
                  method_tag=trace.method_tag, kappa=dtilde_extremes(problem)[2], **_result(trace))
    _write_text(trace_path, _trace_csv(trace))
    _write_text(record_path, json.dumps(record, indent=1, sort_keys=True) + "\n")
    parts = dict(zip("xzy", (part.tolist() for part in stacked_parts(problem, trace.solution))))
    _write_text(solution_path, json.dumps(parts, indent=1, sort_keys=True) + "\n")
    print(f"{trace.method_tag} beta={beta:.6g} iterations={trace.iterations} "
          f"converged={trace.converged}", trace_path, record_path, solution_path, sep="\n")
    return 0


def _report(args):
    """The penalty of ``--beta`` and the spectral report of the problem file at it."""
    _refuse_to_overwrite(args.problem, args.output)
    problem = load_problem(args.problem)
    beta = _resolve_beta(problem, args.beta)
    return beta, classify_and_verify(problem, beta)


def cmd_spectrum(args):
    _emit(args.output, _report(args)[1].to_json() + "\n")
    return 0


def cmd_bounds(args):
    beta, report = _report(args)
    factors = (report.c1, report.kappa_P, report.kappa_X, report.kappa_M)
    curve = theorem_curve(args.kind, args.k_max, beta, report.m, report.ell, factors, args.eps)
    _emit(args.output, curve_to_csv(curve))
    return 0


def _result(trace):
    """Result fields of a run that returned ``trace``, in ``solve``'s record and a scaling row."""
    return dict(iterations=trace.iterations, converged=trace.converged,
                final_rel_residual=float(_rel_residuals(trace)[-1]))


def _failed(exc):
    """Result columns of a run that raised ``exc``."""
    return dict(iterations=0, converged=False, final_rel_residual=float("nan"),
                status=f"failed:{type(exc).__name__}")


def _scaling_rows(args):
    streams = np.random.SeedSequence(args.seed).spawn(args.count)
    rows = []
    for index, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        nx = int(rng.integers(1, args.dim_max + 1))
        ny = int(rng.integers(1, nx + 1))
        nz = int(rng.integers(1, ny + 1))
        s = float(rng.uniform(0.0, args.s_max))
        problem_seed = int(rng.integers(0, 2**63))
        beta_seed = int(rng.integers(0, 2**63))

        problem_id = f"p{index:04d}"
        base = dict(problem_id=problem_id, nx=nx, ny=ny, nz=nz, s=s, seed=problem_seed)
        try:
            problem = random_problem(GenSpec(nx=nx, ny=ny, nz=nz, s=s, seed=problem_seed))
            m, ell, kappa = dtilde_extremes(problem)
        except (ValueError, NumericalError) as exc:
            for column in ("admm", "admm-gmres-right"):
                rows.append({**base, "method": column, "beta": float("nan"), "kappa": float("nan"),
                             "seventeen_sqrt_kappa": float("nan"), **_failed(exc)})
            continue
        base.update(kappa=kappa, seventeen_sqrt_kappa=17.0 * math.sqrt(kappa))

        runs = (
            ("admm", "admm", math.sqrt(m * ell)),
            ("admm-gmres-right", "gmres-right", sample_beta(beta_seed)),
        )
        for column, method, beta in runs:
            row = {**base, "method": column, "beta": beta}
            try:
                trace = _run_method(problem, method, beta, args.eps, args.max_iter)
                row.update(_result(trace), status="ok")
            except (ValueError, NumericalError) as exc:
                row.update(_failed(exc))
            rows.append(row)
    return rows


_SCALING_COLUMNS = (
    "problem_id", "nx", "ny", "nz", "s", "seed", "method", "beta", "kappa", "iterations",
    "converged", "final_rel_residual", "seventeen_sqrt_kappa", "status",
)


def _csv_cell(value):
    """A bool as true/false, a float (numpy's too) by the repr of the float, else str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(float(value)) if isinstance(value, float) else str(value)


def cmd_scaling(args):
    if args.count < 0:
        raise ValueError(f"--count must be at least 0, got {args.count}")
    if args.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
    if args.dim_max < 1:
        raise ValueError(f"--dim-max must be at least 1, got {args.dim_max}")
    if not 0 <= args.s_max < math.inf:
        raise ValueError(f"--s-max must be finite and nonnegative, got {args.s_max}")
    check_epsilon(args.eps)
    check_max_iter(args.max_iter)
    lines = [",".join(_SCALING_COLUMNS)]
    for row in _scaling_rows(args):
        lines.append(",".join(_csv_cell(row[column]) for column in _SCALING_COLUMNS))
    _write_text(args.output, "\n".join(lines) + "\n")
    print(args.output)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="admmgmres",
        description="Saddle-point solver benchmark pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random problem JSON file")
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--ny", type=int, required=True)
    p.add_argument("--nz", type=int, required=True)
    p.add_argument("--s", type=float, default=0.5, help="log spread of the spectra")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="run one solver on a problem file")
    p.add_argument("problem")
    p.add_argument("--method", choices=_METHODS, default="admm")
    p.add_argument("--beta", default="auto", help="float, 'auto', or 'random:SEED'")
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=200_000)
    p.add_argument("--out-prefix", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("spectrum", help="spectral report for one penalty value")
    p.add_argument("problem")
    p.add_argument("--beta", required=True, help="float, 'auto', or 'random:SEED'")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("bounds", help="dump a bound curve as CSV")
    p.add_argument("problem")
    p.add_argument("--kind", choices=["prop5", "thm7", "thm9"], required=True)
    p.add_argument("--beta", default="auto", help="float, 'auto', or 'random:SEED'")
    p.add_argument("--k-max", type=int, default=100)
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("scaling", help="random-problem scaling sweep, one CSV")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--dim-max", type=int, default=60, help="largest nx")
    p.add_argument("--s-max", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=200_000)
    p.add_argument("-o", "--output", default="scaling.csv")
    p.set_defaults(func=cmd_scaling)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # The solvers check their results for non-finite values and raise
        # NumericalError, so numpy's overflow warnings would only repeat that
        # cause from inside the library before the message below.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (NumericalError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
