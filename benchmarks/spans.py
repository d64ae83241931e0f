"""In-memory trace spans and the wrappers that hang them on nessolve's layers.

Nothing under ``src/`` is changed: ``instrumented`` replaces public functions
in the namespaces that call them and methods on their classes, and puts every
original back when it exits.  nessolve's modules import names directly
(``from .kernels import assemble_features``), so a function is wrapped in
each caller's namespace, not only in the module that defines it.

A layer's self time is its spans' total duration minus the part covered by
their direct children.  Spans of one thread nest, so direct children never
overlap and the self times of all spans add up to the root span's duration.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time

import numpy as np


class Tracer:
    """Spans (name, start, end, parent, run id) and counters of one process."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans = []             # [name, start, end, parent index]
        self.counters = {}
        self._stack = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def add(self, name: str, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name: str, value):
        self.counters[name] = max(self.counters.get(name, value), value)

    def calls(self) -> dict:
        out = {}
        for name, _, _, _ in self.spans:
            out[name] = out.get(name, 0) + 1
        return out

    def self_times(self) -> dict:
        """Per span name, total duration minus time covered by children."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + (end - start) - child
        return out

    def dump(self, path: str):
        """Write one JSON object per span."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": self.run_id}) + "\n")


def _wrap(tracer: Tracer, name: str, fn, hook=None):
    """``fn`` inside a span; ``hook(args, kwargs, result)`` runs afterwards
    inside its own ``trace.hooks`` span, so its cost is visible."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if hook is not None:
            idx = tracer.begin("trace.hooks")
            try:
                hook(args, kwargs, result)
            finally:
                tracer.end(idx)
        return result

    return wrapper


@contextlib.contextmanager
def instrumented(tracer: Tracer, targets):
    """Install wrappers for ``targets`` and restore every original on exit.

    Each target is ``(owner, attribute, span name, hook or None)``; the owner
    is a module or a class and the attribute must be defined on it directly.
    """
    saved = []
    try:
        for owner, attr, name, hook in targets:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, name, original, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def nessolve_targets(tracer: Tracer):
    """Wrappers for every layer the benchmark reports, with their counters."""
    # the package re-exports a function named ``seminorm`` over the module
    (experiments, gauss_newton, metrics, noise, operators, reference,
     seminorm, spde) = (importlib.import_module(f"nessolve.{m}") for m in (
         "experiments", "gauss_newton", "metrics", "noise", "operators",
         "reference", "seminorm", "spde"))

    assemble_sig = inspect.signature(gauss_newton.assemble_features)
    ls_sig = inspect.signature(gauss_newton.constrained_ls_solve)
    seen_grids = set()

    def on_assemble(args, kwargs, blocks):
        bound = assemble_sig.bind(*args, **kwargs).arguments
        spec, fs = bound["spec"], bound["fs"]
        key = (spec, fs.space.kind, fs.space.size, fs.n_quad,
               fs.boundary_points.tobytes())
        tracer.add("kernels.repeat_grid", key in seen_grids)
        seen_grids.add(key)
        tracer.maximum("kernels.gram_bytes", sum(
            a.nbytes for a in (blocks.k_chi_phi, blocks.k_x_phi,
                               blocks.k_phi_phi, blocks.quad_eval)
            if a is not None))

    previous_ls = []

    def on_ls_solve(args, kwargs, result):
        a = ls_sig.bind(*args, **kwargs).arguments
        ctx, blocks = a["ctx"], a["blocks"]
        current = (blocks.k_chi_phi, blocks.k_x_phi, blocks.k_phi_phi,
                   np.asarray(a["r_entries"]), np.asarray(a["g_boundary"]),
                   a["gamma"], ctx.space, ctx.s)
        repeat = bool(previous_ls) and all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(current, previous_ls))
        tracer.add("gauss_newton.repeat_ls", repeat)
        previous_ls[:] = [np.array(a, copy=True)
                          if isinstance(a, np.ndarray) else a
                          for a in current]

    def on_solve(args, kwargs, result):
        tracer.add("gauss_newton.iterations", result[1].iterations)

    targets = [
        (gauss_newton, "assemble_features", "kernels.assemble", on_assemble),
        (spde, "assemble_features", "kernels.assemble", on_assemble),
        (experiments, "assemble_features", "kernels.assemble", on_assemble),
        (experiments, "assemble_collocation", "kernels.collocation", None),
        (experiments, "evaluate_collocation", "kernels.collocation", None),
        (gauss_newton, "constrained_ls_solve", "gauss_newton.ls_solve",
         on_ls_solve),
        (gauss_newton.KKTSystem, "__init__", "gauss_newton.kkt_factor",
         None),
        (gauss_newton.KKTSystem, "solve", "gauss_newton.kkt_solve", None),
        (experiments, "solve", "gauss_newton.solve", on_solve),
        (spde.Stepper, "__init__", "spde.stepper_setup", None),
        (spde.Stepper, "step", "spde.step", None),
        (operators, "linearize", "operators.linearize", None),
        (seminorm.SeminormContext, "whiten", "seminorm.busy", None),
        (seminorm.SeminormContext, "apply_inverse", "seminorm.busy", None),
        (gauss_newton, "seminorm_squared", "seminorm.busy", None),
    ]
    # experiments calls these through the module (``noise.build_path``)
    for fn in ("sample_white_noise_spectral", "build_path",
               "aggregate_increments"):
        targets.append((noise, fn, "noise.busy", None))
    for fn in ("closed_form_elliptic_1d", "manufactured_semilinear_2d",
               "spectral_galerkin_spde"):
        targets.append((reference, fn, "reference.busy", None))
    for fn in ("rel_l2_error", "sup_error", "space_time_l2_error"):
        targets.append((metrics, fn, "metrics.busy", None))
    for module in (experiments, gauss_newton, spde, reference):
        targets.append((module, "project", "spaces.project", None))
    for module in (experiments, reference):
        targets.append((module, "synthesize", "spaces.synthesize", None))
    return targets


# span name -> (self-time metric, call-count metric or None)
LAYER_SPANS = {
    "kernels.assemble": ("kernels.assemble_s", "kernels.assemble_calls"),
    "kernels.collocation": ("kernels.collocation_s", None),
    "gauss_newton.ls_solve": ("gauss_newton.ls_solve_s",
                              "gauss_newton.ls_solve_calls"),
    "gauss_newton.kkt_factor": ("gauss_newton.kkt_factor_s", None),
    "gauss_newton.kkt_solve": ("gauss_newton.kkt_solve_s",
                               "gauss_newton.kkt_solve_calls"),
    "gauss_newton.solve": ("gauss_newton.solve_s", None),
    "noise.busy": ("noise.busy_s", "noise.calls"),
    "reference.busy": ("reference.busy_s", "reference.calls"),
    "spaces.project": ("spaces.project_s", "spaces.project_calls"),
    "spaces.synthesize": ("spaces.synthesize_s", "spaces.synthesize_calls"),
    "spde.stepper_setup": ("spde.stepper_setup_s", None),
    "spde.step": ("spde.step_s", "spde.steps"),
    "operators.linearize": ("operators.linearize_s",
                            "operators.linearize_calls"),
    "seminorm.busy": ("seminorm.busy_s", None),
    "metrics.busy": ("metrics.busy_s", None),
    "experiments": ("experiments.self_s", None),
    "trace.hooks": ("trace.hooks_s", None),
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced run rooted at an ``experiments``
    span; layers that never ran report zero."""
    unknown = set(tracer.calls()) - set(LAYER_SPANS)
    if unknown:
        raise ValueError(f"spans without a metric: {sorted(unknown)}")
    selfs = tracer.self_times()
    calls = tracer.calls()
    out = {}
    for name, (time_metric, count_metric) in LAYER_SPANS.items():
        out[time_metric] = selfs.get(name, 0.0)
        if count_metric is not None:
            out[count_metric] = calls.get(name, 0)
    c = tracer.counters
    n_assemble = calls.get("kernels.assemble", 0)
    n_ls = calls.get("gauss_newton.ls_solve", 0)
    out["kernels.gram_mb"] = c.get("kernels.gram_bytes", 0) / 2 ** 20
    out["kernels.repeat_grid_frac"] = \
        c.get("kernels.repeat_grid", 0) / n_assemble if n_assemble else 0.0
    out["gauss_newton.repeat_ls_frac"] = \
        c.get("gauss_newton.repeat_ls", 0) / n_ls if n_ls else 0.0
    out["gauss_newton.iterations"] = c.get("gauss_newton.iterations", 0)
    return out


def inclusive_time(tracer: Tracer, name: str) -> float:
    """Duration of the ``name`` spans, including whatever they called;
    a span nested in another of the same name is not counted twice."""
    total = 0.0
    for start, end, parent in ((s, e, p) for n, s, e, p in tracer.spans
                               if n == name):
        while parent >= 0 and tracer.spans[parent][0] != name:
            parent = tracer.spans[parent][3]
        if parent < 0:
            total += end - start
    return total
