"""Span tracing from outside the program, and the per-layer split it yields.

The program under test carries no instrumentation.  ``Instrumentation``
replaces the module attributes and class methods the program calls across
layer boundaries with thin wrappers that record a span (name, start, end,
parent, run id) in memory, and puts the originals back afterwards.  A
span's self time is its duration minus the part of it covered by its child
spans, so the self times of one tree sum to the root's duration.
"""

from __future__ import annotations

import csv
import functools
import time


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, run_id]
        self.stack: list[int] = []
        self.run_id = 0
        self.enabled = False

    def wrap(self, name, fn, on_return=None):
        """Wrap fn so each call records a span; on_return(result, args) may count."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else -1
            idx = len(self.spans)
            span = [name, time.perf_counter(), 0.0, parent, self.run_id]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if on_return is not None:
                on_return(result, args)
            return result
        return traced

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start", "end", "parent", "run_id"])
            out.writerows(self.spans)


def covered_length(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        kids = [(max(lo, start), min(hi, end)) for lo, hi in children.get(i, [])]
        out.append((end - start) - covered_length(k for k in kids if k[1] > k[0]))
    return out


def calls_by_name(spans) -> dict[str, int]:
    counts: dict[str, int] = {}
    for name, *_ in spans:
        counts[name] = counts.get(name, 0) + 1
    return counts


# --- the program's layer boundaries -----------------------------------------

# span name -> (module key, attribute).  Module keys are resolved against the
# imported taxis_cascade modules; the solver reaches scipy's DCT through its
# own ``_fft`` name, which is replaced by a proxy rather than patching scipy.
MODULE_BOUNDARIES = {
    "solver.run": ("solver", "run"),
    "solver.step": ("solver", "step"),
    "solver.suggest_dt": ("solver", "suggest_dt"),
    "solver.pcg": ("solver", "_pcg"),
    "grid.laplacian": ("grid", "laplacian"),
    "grid.taxis_divergence": ("grid", "taxis_divergence"),
    "grid.reductions:integrate": ("grid", "integrate"),
    "grid.reductions:norm_linf": ("grid", "norm_linf"),
    "grid.reductions:norm_lp": ("grid", "norm_lp"),
    "grid.reductions:max_face_gradient": ("grid", "max_face_gradient"),
    "grid.reductions:seminorm_w2p": ("grid", "seminorm_w2p"),
    "grid.write_field": ("grid", "write_field"),
    "grid.read_field": ("grid", "read_field"),
    "monitors.step_checks:check_mass": ("monitors", "check_mass"),
    "monitors.step_checks:check_w_supersolution": ("monitors", "check_w_supersolution"),
    "monitors.step_checks:supersolution_step": ("monitors", "supersolution_step"),
    "monitors.step_checks:log_gradient_integrand": ("monitors", "log_gradient_integrand"),
    "monitors.cadence_checks:check_window_integrals": ("monitors", "check_window_integrals"),
    "monitors.cadence_checks:check_v_mass_identity": ("monitors", "check_v_mass_identity"),
    "monitors.cadence_checks:check_log_gradient_energy": ("monitors", "check_log_gradient_energy"),
    "monitors.cadence_checks:weighted_functional": ("monitors", "weighted_functional"),
    "monitors.tail:detect_w_decay": ("monitors", "detect_w_decay"),
    "monitors.tail:eventual_regularity_report": ("monitors", "eventual_regularity_report"),
    "weakform.load_trajectory": ("weakform", "load_trajectory"),
    "weakform.quadrature:residual_u": ("weakform", "residual_u"),
    "weakform.quadrature:residual_w": ("weakform", "residual_w"),
    "weakform.quadrature:defect_v": ("weakform", "defect_v"),
    "weakform.quadrature:identity_budget": ("weakform", "identity_budget"),
    "weakform.quadrature:defect_budget": ("weakform", "defect_budget"),
    "weakform.quadrature:check_mass_inequality": ("weakform", "check_mass_inequality"),
    "config.build_setup": ("config", "Config.build_setup"),
    "cli.mms_study": ("cli", "mms_study"),
    "cli.verify_weak": ("cli", "verify_weak"),
    "kinetics.resupply_field": ("kinetics", "ResupplySpec.field"),
    "weakform.load": ("weakform", "TrajectoryHandle.load"),
}


# Layers whose self time is reported.  Every span belongs to one of them.
SELF_TIME_LAYERS = (
    "solver.run", "solver.step", "solver.suggest_dt", "solver.pcg", "solver.dct",
    "grid.laplacian", "grid.taxis_divergence", "grid.reductions",
    "grid.write_field", "grid.read_field",
    "kinetics.law", "kinetics.resupply_field",
    "monitors.step_checks", "monitors.cadence_checks", "monitors.tail",
    "weakform.load_trajectory", "weakform.load", "weakform.quadrature",
    "config.build_setup", "cli.mms_study", "cli.verify_weak",
)
# Counts of one traced repetition, with units; they repeat exactly for a seed.
COUNT_METRICS = {
    "solver.step.calls": "count",
    "solver.cg_iters_u": "count/step",
    "solver.cg_iters_v": "count/step",
    "solver.cg_iters_w": "count/step",
    "solver.dct_pairs_per_step": "count/step",
    "solver.suggest_dt.calls": "count",
    "grid.laplacian.calls_per_step": "count/step",
    "grid.write_field.calls": "count",
    "grid.write_field.bytes": "bytes",
    "grid.read_field.calls": "count",
    "grid.read_field.bytes": "bytes",
    "kinetics.law.calls_per_step": "count/step",
    "weakform.load.hit_ratio": "ratio",
}
# roots of the span tree that the run's wall time covers
RUN_ROOTS = ("solver.run", "cli.mms_study")


def layer_of(span_name: str) -> str:
    """Aggregation key: 'grid.reductions:integrate' -> 'grid.reductions'."""
    return span_name.split(":", 1)[0]


class _FftProxy:
    """Stands in for the solver's ``_fft`` module name with traced DCTs."""

    def __init__(self, real, tracer):
        self._real = real
        self.dctn = tracer.wrap("solver.dct", real.dctn)
        self.idctn = tracer.wrap("solver.dct:idctn", real.idctn)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Instrumentation:
    """The wrappers installed on one set of taxis_cascade modules, and counters.

    Counters the spans cannot give are kept here: the CG iterations that
    ``solver.step`` returns, the payload bytes of snapshot files, and how
    many ``TrajectoryHandle.load`` calls were served without reading a file.
    """

    def __init__(self, modules: dict, tracer: Tracer):
        self.modules = modules
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []
        self.cg_iterations = [0, 0, 0]
        self.bytes_written = 0
        self.bytes_read = 0
        self.reads = 0
        self.load_calls = 0
        self.load_hits = 0

    def _patch(self, owner, attr, value):
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Instrumentation":
        tr = self.tracer
        hooks = {"solver.step": self._on_step,
                 "grid.write_field": self._on_write,
                 "grid.read_field": self._on_read}
        for span, (mod_key, dotted) in MODULE_BOUNDARIES.items():
            owner = self.modules[mod_key]
            *cls_path, attr = dotted.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if span == "weakform.load":
                original = self._counting_load(original)
            self._patch(owner, attr, tr.wrap(span, original, hooks.get(span)))
        kin = self.modules["kinetics"]
        for law_cls in kin.GrowthLaw.__subclasses__():
            if "__call__" in law_cls.__dict__:
                self._patch(law_cls, "__call__",
                            tr.wrap("kinetics.law", law_cls.__dict__["__call__"]))
        solver = self.modules["solver"]
        self._patch(solver, "_fft", _FftProxy(solver.__dict__["_fft"], tr))
        return self

    def restore(self):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()

    def _on_step(self, result, args):
        for k, it in enumerate(result[1].cg_iterations):
            self.cg_iterations[k] += it

    def _on_write(self, result, args):
        self.bytes_written += args[1].nbytes

    def _on_read(self, result, args):
        self.reads += 1
        self.bytes_read += result[0].nbytes

    def _counting_load(self, original):
        """A load that reads no file is a cache hit, whatever the cache is."""
        def load(handle, i):
            reads_before = self.reads
            result = original(handle, i)
            self.load_calls += 1
            if self.reads == reads_before:
                self.load_hits += 1
            return result
        return load

    def metrics(self, steps: int) -> dict:
        """Counts and per-layer self times of the recorded spans."""
        spans = self.tracer.spans
        root: list[int] = []
        by_layer: dict[str, float] = {}
        run_tree_self = 0.0
        for i, (span, st) in enumerate(zip(spans, self_times(spans))):
            root.append(i if span[3] < 0 else root[span[3]])
            layer = layer_of(span[0])
            by_layer[layer] = by_layer.get(layer, 0.0) + st
            if spans[root[i]][0] in RUN_ROOTS:
                run_tree_self += st
        unknown = set(by_layer) - set(SELF_TIME_LAYERS)
        if unknown:
            raise RuntimeError(f"spans outside the reported layers: {sorted(unknown)}")
        calls = calls_by_name(spans)
        per_step = max(steps, 1)
        out = {
            "solver.step.calls": calls.get("solver.step", 0),
            "solver.cg_iters_u": self.cg_iterations[0] / per_step,
            "solver.cg_iters_v": self.cg_iterations[1] / per_step,
            "solver.cg_iters_w": self.cg_iterations[2] / per_step,
            "solver.dct_pairs_per_step": calls.get("solver.dct", 0) / per_step,
            "solver.suggest_dt.calls": calls.get("solver.suggest_dt", 0),
            "grid.laplacian.calls_per_step": calls.get("grid.laplacian", 0) / per_step,
            "grid.write_field.calls": calls.get("grid.write_field", 0),
            "grid.write_field.bytes": self.bytes_written,
            "grid.read_field.calls": calls.get("grid.read_field", 0),
            "grid.read_field.bytes": self.bytes_read,
            "kinetics.law.calls_per_step": calls.get("kinetics.law", 0) / per_step,
            "weakform.load.hit_ratio": (self.load_hits / self.load_calls
                                        if self.load_calls else 0.0),
            "weakform.load_trajectory_s": sum(
                s[2] - s[1] for s in spans if s[0] == "weakform.load_trajectory"),
            "trace.self_sum_s": run_tree_self,
        }
        for layer in SELF_TIME_LAYERS:
            out[f"{layer}.self_s"] = by_layer.get(layer, 0.0)
        return out
