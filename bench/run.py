"""Closed-loop benchmark of admmgmres: one process, one op at a time.

Usage, from the repository root:

    python3 bench/run.py --workload {sweep,large,spectral} --seed N \
        --seconds S --trace {0,1}

The package is imported from ``src/`` next to this directory and nowhere
else, with BLAS pinned to one thread.  Inputs come from ``--seed`` alone.

``--trace 0`` sets up the workload three times (reporting the median, plus
the import time, as ``setup_s``), then runs its fixed op list in order,
over and over, until ``--seconds`` have passed and every op has run at least
once.  Each op's time is the fastest of its runs: on a shared machine slow
phases last seconds, and the fastest of runs spread over the whole loop
steps around them.  It prints the end-to-end metrics.

``--trace 1`` sets up once with the tracer installed, then runs the
workload's traced pass (a fixed leading part of its op list) once, each op
untraced and traced back to back; ``--seconds`` does not apply.  It prints
the per-layer metrics, including the tracing overhead, and writes every
span to ``.bench_out/spans_<workload>.csv``.

The last line of standard output is the result object:
``{"correct", "attempted", "failed", "metrics"}``.  Lines before it give the
workload and the environment (Python, numpy, scipy, BLAS, nproc, commit).
"""

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

_STARTED = time.perf_counter()

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "iterations": "count",
    "ok_rate": "ratio",
    "peak_rss_mb": "MB",
}


def _load_package():
    """Import admmgmres from SRC, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import admmgmres
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import admmgmres from {SRC}: {exc}")
    found = Path(admmgmres.__file__).resolve().parent
    if found != SRC / "admmgmres":
        raise SystemExit(f"bench: imported admmgmres from {found}, not from {SRC}")
    return admmgmres


def _git_commit():
    """Commit of the checkout from .git, without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
    }


class Runner:
    """Executes and checks ops, counting failures and iteration totals."""

    def __init__(self, workloads):
        self.workloads = workloads
        self.first_iterations = {}
        self.failures = []

    def run_op(self, index, op, tracer=None):
        """Run one op; return (seconds, outcome) with failures recorded."""
        execute = self.workloads.execute
        if tracer is not None:
            tracer.op_id = index
            execute = tracer.wrap(f"op.{op.kind}", execute)
        start = time.perf_counter()
        try:
            result = execute(op)
        except Exception as exc:  # a raising op is a failed op, not a failed run
            elapsed = time.perf_counter() - start
            outcome = self.workloads.Outcome(0, op.beta or float("nan"),
                                             failure=f"raised {type(exc).__name__}: {exc}")
        else:
            elapsed = time.perf_counter() - start
            outcome = self.workloads.check(op, result)
        finally:
            if tracer is not None:
                tracer.op_id = -1
        known = self.first_iterations.setdefault(index, outcome.iterations)
        if outcome.failure is None and known != outcome.iterations:
            outcome.failure = f"iterations changed between runs: {known} then {outcome.iterations}"
        if outcome.failure is not None:
            self.failures.append(f"op {index} ({op.kind}, dims {op.dims}): {outcome.failure}")
        return elapsed, outcome

    def warm_up(self, ops):
        """Run the first op of each kind once, untimed."""
        seen = set()
        for index, op in enumerate(ops):
            if op.kind not in seen:
                seen.add(op.kind)
                self.run_op(index, op)

    def timed_loop(self, ops, seconds):
        """Cycle through ops until ``seconds`` passed and each op ran once.

        Returns each op's fastest time, the number of ops attempted and the
        number that failed.
        """
        best = [math.inf] * len(ops)
        failed = 0
        regimes, regimes_missing = set(), []
        start = time.perf_counter()
        i = 0
        while i < len(ops) or time.perf_counter() - start < seconds:
            index = i % len(ops)
            elapsed, outcome = self.run_op(index, ops[index])
            best[index] = min(best[index], elapsed)
            failed += outcome.failure is not None
            if outcome.regime is not None:
                regimes.add(outcome.regime)
            i += 1
            if i % len(ops) == 0:
                if regimes and regimes != self.workloads.REGIMES:
                    regimes_missing.append(sorted(self.workloads.REGIMES - regimes))
                regimes = set()
        for missing in regimes_missing:
            self.failures.append(f"a pass saw no report in regimes {missing}")
        return best, i, failed

    def pass_iterations(self, count):
        return sum(self.first_iterations[i] for i in range(count))


def percentile_ms(times, q):
    """The q-th percentile of times in milliseconds, interpolated linearly."""
    if len(times) == 1:
        return times[0] * 1e3
    return statistics.quantiles(times, n=100, method="inclusive")[q - 1] * 1e3


def measure(workloads, build, seconds, trace, import_s=0.0, spans_dir=OUT):
    """Set up, time and check one workload; return the result object.

    ``import_s`` is the time spent importing before this call; it counts
    towards ``setup_s``.  A traced run writes its spans under ``spans_dir``.
    """
    if trace:
        return _measure_traced(workloads, build, spans_dir)

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = build()
        runner = Runner(workloads)
        runner.warm_up(workload.ops)
        setups.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setups)
    print(workload.summary, flush=True)

    best, attempted, failed = runner.timed_loop(workload.ops, seconds)
    print(f"iterations over the first {workload.trace_ops} ops (the traced pass): "
          f"{runner.pass_iterations(workload.trace_ops)}", flush=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": setup_s,
        "op_ms_p50": percentile_ms(best, 50),
        "op_ms_p90": percentile_ms(best, 90),
        "ops_per_s": len(best) / sum(best),
        "iterations": runner.pass_iterations(len(workload.ops)),
        "ok_rate": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    return _result(runner, attempted, failed,
                   {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()})


def _measure_traced(workloads, build, spans_dir):
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        workload = build()
    finally:
        tracer.uninstall()
    print(workload.summary, flush=True)
    runner = Runner(workloads)
    runner.warm_up(workload.ops)

    # Each op of the traced pass runs untraced and traced back to back, in
    # alternating order, so the overhead is measured on the same work.
    untraced, traced, failed = [], [], 0
    for index, op in enumerate(workload.ops[:workload.trace_ops]):
        for traced_run in ((False, True) if index % 2 == 0 else (True, False)):
            if traced_run:
                tracer.install()
                try:
                    elapsed, outcome = runner.run_op(index, op, tracer)
                finally:
                    tracer.uninstall()
                traced.append(elapsed)
            else:
                elapsed, outcome = runner.run_op(index, op)
                untraced.append(elapsed)
            failed += outcome.failure is not None

    metrics = spans.per_layer_metrics(spans.SpanSummary(tracer))
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (percentile_ms(traced, 50) / percentile_ms(untraced, 50) - 1.0),
        "unit": "%",
    }
    spans_dir.mkdir(exist_ok=True)
    tracer.write(spans_dir / f"spans_{workload.name}.csv",
                 f"{workload.summary}; {len(tracer.spans)} spans")
    return _result(runner, len(untraced) + len(traced), failed, metrics)


def _result(runner, attempted, failed, metrics):
    for failure in runner.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    return {
        "correct": not runner.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=["sweep", "large", "spectral"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    _load_package()
    import workloads

    import_s = time.perf_counter() - _STARTED
    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    build = lambda: workloads.BUILDERS[args.workload](args.seed)  # noqa: E731
    result = measure(workloads, build, args.seconds, bool(args.trace), import_s)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
