"""In-memory span tracer that wraps the package's public functions from outside.

``Tracer.install`` replaces each listed function at every ``admmgmres``
module attribute that holds it, which is where its callers look it up, and
``uninstall`` puts the originals back.  The ``op`` and ``callback``
arguments that ``gmres()`` receives are wrapped per call, as the spans
``gmres.operator`` and ``gmres.monitor``.  A listed function that no longer
exists is recorded as absent; the metrics built on it are left out and the
run goes on.

A span is (name, start, end, parent, op id, work).  Spans stay in memory
until ``write`` is called at the end of the run.  Self time is a span's
duration minus the time its child spans cover; calls are sequential, so
that is the sum of the children's durations.
"""

import importlib
import inspect
import sys
import time

import numpy as np

PACKAGE = "admmgmres"


def _admm_step_flops(args, kwargs, result):
    """Flops of one sweep from block shapes: two triangular solve pairs, six products."""
    engine = kwargs["engine"] if "engine" in kwargs else args[0]
    p = engine.problem
    nx, ny, nz = p.nx, p.ny, p.nz
    return 2 * nx * nx + 2 * nz * nz + 6 * nx * ny + 6 * ny * nz


def _gmres_steps(args, kwargs, result):
    return result.iterations


# (module, function, work recorded per call or None)
TARGETS = [
    ("randgen", "random_problem", None),
    ("core", "kkt_residual", None),
    ("core", "kkt_matvec", None),
    ("core", "direct_solve", None),
    ("admm", "make_engine", None),
    ("admm", "admm_step", _admm_step_flops),
    ("admm", "admm_solve", None),
    ("precond", "apply_inverse", None),
    ("gmres", "gmres", _gmres_steps),
    ("gmres", "admm_gmres_solve", None),
    ("spectral", "dtilde_extremes", None),
    ("spectral", "build_k_matrix", None),
    ("spectral", "build_iteration_matrix", None),
    ("spectral", "eigvec_condition", None),
    ("spectral", "conditioning_factors", None),
    ("spectral", "classify_and_verify", None),
    ("bounds", "theorem_curve", None),
]


class _Operator:
    """Stand-in for the operator handed to gmres(): same ``dim``, traced call."""

    def __init__(self, dim, apply):
        self.dim = dim
        self._apply = apply

    def __call__(self, v):
        return self._apply(v)


class Tracer:
    """Records spans around calls into the package while installed."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []
        self._stack = []
        self.op_id = -1
        self.absent = set()
        self._patches = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, work=None, adapt=None):
        """Return ``fn`` wrapped so that every call records one span."""
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if adapt is not None:
                args, kwargs = adapt(args, kwargs)
            index = len(spans)
            record = [name_id, clock(), 0, stack[-1] if stack else -1, self.op_id, 0]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if work is not None:
                record[5] = work(args, kwargs, result)
            return result

        return traced

    def _gmres_adapter(self, fn):
        """Wrap the operator and callback of each gmres() call in their own spans."""
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            return None
        if not {"op", "callback"} <= set(signature.parameters):
            return None

        def adapt(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            op = bound.arguments.get("op")
            if op is not None:
                bound.arguments["op"] = _Operator(op.dim, self.wrap("gmres.operator", op))
            callback = bound.arguments.get("callback")
            if callback is not None:
                bound.arguments["callback"] = self.wrap("gmres.monitor", callback)
            return bound.args, bound.kwargs

        return adapt

    def install(self, targets=TARGETS):
        """Wrap every target function wherever the package's modules hold it.

        The wrappers are made on the first call; later calls re-apply them.
        """
        if not self._patches:
            self._patches = self._patch_list(targets)
        for holder, attr, _, wrapper in self._patches:
            setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, fn, _ in reversed(self._patches):
            setattr(holder, attr, fn)

    def _patch_list(self, targets):
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        patches = []
        for module_name, fn_name, work in targets:
            name = f"{module_name}.{fn_name}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.add(name)
                continue
            fn = getattr(module, fn_name, None)
            if not callable(fn):
                self.absent.add(name)
                continue
            adapt = None
            if name == "gmres.gmres":
                adapt = self._gmres_adapter(fn)
                if adapt is None:
                    self.absent.update({"gmres.operator", "gmres.monitor"})
            wrapper = self.wrap(name, fn, work=work, adapt=adapt)
            patches.extend((holder, attr, fn, wrapper)
                           for holder in modules
                           for attr, value in vars(holder).items() if value is fn)
        return patches

    def write(self, path, header):
        """Write all spans as CSV: name, start_ns, end_ns, parent, op_id, work."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {header}\n")
            fh.write("index,name,start_ns,end_ns,parent,op_id,work\n")
            for index, (name_id, start, end, parent, op_id, work) in enumerate(self.spans):
                fh.write(f"{index},{self.names[name_id]},{start},{end},{parent},{op_id},{work}\n")


class SpanSummary:
    """Per-name durations, self times and work totals of a tracer's spans."""

    def __init__(self, tracer):
        self.absent = tracer.absent
        self._names = tracer.names
        if tracer.spans:
            table = np.array(tracer.spans, dtype=np.int64)
        else:
            table = np.zeros((0, 6), dtype=np.int64)
        self._name = table[:, 0]
        self._dur = (table[:, 2] - table[:, 1]).astype(float)
        parent = table[:, 3]
        child_time = np.zeros(len(table))
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], self._dur[has_parent])
        self._self = self._dur - child_time
        self._work = table[:, 5].astype(float)

    def _mask(self, name):
        if name not in self._names:
            return np.zeros(len(self._name), dtype=bool)
        return self._name == self._names.index(name)

    def calls(self, name):
        return int(np.count_nonzero(self._mask(name)))

    def p50_ns(self, name):
        durations = self._dur[self._mask(name)]
        return float(np.median(durations)) if len(durations) else 0.0

    def total_ns(self, name):
        return float(np.sum(self._dur[self._mask(name)]))

    def self_ns(self, name):
        return float(np.sum(self._self[self._mask(name)]))

    def work(self, name):
        return float(np.sum(self._work[self._mask(name)]))


def ratio(numerator, denominator):
    """numerator / denominator, or 0 when nothing was measured."""
    return numerator / denominator if denominator else 0.0


# stat -> (unit, value of span ``n`` in SpanSummary ``s``)
STATS = {
    "calls": ("count", lambda s, n: s.calls(n)),
    "us_p50": ("us", lambda s, n: s.p50_ns(n) / 1e3),
    "ms_p50": ("ms", lambda s, n: s.p50_ns(n) / 1e6),
    "self_ms": ("ms", lambda s, n: s.self_ns(n) / 1e6),
    "steps": ("count", lambda s, n: int(s.work(n))),
    "self_us_per_step": ("us", lambda s, n: ratio(s.self_ns(n), s.work(n)) / 1e3),
    # flops per nanosecond is GFLOP/s
    "gflops_computed": ("GFLOP/s", lambda s, n: ratio(s.work(n), s.total_ns(n))),
    "per_krylov_step": ("ratio", lambda s, n: ratio(s.calls(n), s.work("gmres.gmres"))),
}

# Each name is <span>.<stat>.
PER_LAYER = [
    "randgen.random_problem.ms_p50",
    "core.kkt_residual.calls",
    "core.kkt_residual.us_p50",
    "core.kkt_matvec.calls",
    "core.direct_solve.ms_p50",
    "admm.make_engine.calls",
    "admm.make_engine.us_p50",
    "admm.admm_step.calls",
    "admm.admm_step.us_p50",
    "admm.admm_step.gflops_computed",
    "admm.admm_solve.self_ms",
    "precond.apply_inverse.calls",
    "precond.apply_inverse.us_p50",
    "precond.apply_inverse.per_krylov_step",
    "gmres.gmres.steps",
    "gmres.gmres.self_us_per_step",
    "gmres.operator.calls",
    "gmres.monitor.self_ms",
    "spectral.dtilde_extremes.calls",
    "spectral.dtilde_extremes.ms_p50",
    "spectral.build_k_matrix.calls",
    "spectral.build_iteration_matrix.ms_p50",
    "spectral.eigvec_condition.ms_p50",
    "spectral.conditioning_factors.self_ms",
    "spectral.classify_and_verify.self_ms",
    "bounds.theorem_curve.us_p50",
]


def per_layer_metrics(summary):
    """Every per-layer metric whose functions exist, as {name: {value, unit}}."""
    metrics = {}
    for name in PER_LAYER:
        span, stat = name.rsplit(".", 1)
        needs = {span, "gmres.gmres"} if stat == "per_krylov_step" else {span}
        if needs & summary.absent:
            continue
        unit, value = STATS[stat]
        metrics[name] = {"value": value(summary, span), "unit": unit}
    return metrics
