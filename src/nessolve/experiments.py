"""End-to-end benchmark experiments with deterministic artifacts.

Each experiment runs noise sampling, reference construction, the kernel
solve, and metrics, then writes ``results.json`` (resolved config included),
a long-format ``errors.csv``, and plot-ready field CSVs.  Reruns with the
same config and seed produce byte-identical outputs.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np
import scipy

from . import metrics, noise, operators, reference, spde
from .errors import ConfigError, StageError
from .gauss_newton import SolverConfig, constrained_ls_solve, solve
from .kernels import FeatureSet, KernelSpec, assemble_collocation, \
    assemble_features, evaluate_collocation, grid_values
from .seminorm import SeminormContext
from .spaces import GridFunction, MeasurementVector, build_test_space, \
    default_n_quad, grid_points, project, synthesize
from .spde import SpdeConfig

__all__ = ["ExperimentConfig", "run_experiment", "check_thresholds",
           "EXPERIMENTS", "DEFAULTS"]

EXPERIMENTS = ("elliptic1d", "semilinear2d", "norm_study", "heat",
               "allen_cahn", "rate_study")

DEFAULTS = {
    "elliptic1d": {
        "nu": 0.01, "n_modes": 1024, "n_modes_full": 4096,
        "truncation": 2 ** 14, "gamma": 1e-12, "gamma_pointwise": 1e-8,
        "length_scale": 0.2,
    },
    "semilinear2d": {
        "nu": 0.1, "eps": 0.15, "n_per_dim": 32, "n_per_dim_full": 64,
        "truncation": 2 ** 8, "gamma": 1e-8, "length_scale": 0.2,
        "max_iterations": 10, "measurement_grid": 0,
    },
    "norm_study": {
        "nu": 0.1, "eps": 0.0, "n_per_dim": 16, "truncation": 120,
        "gamma": 1e-4, "length_scale": 0.2, "max_iterations": 10,
        "s_values": [0.0, 0.5, 1.0, 1.1, 2.0], "measurement_grid": 65,
    },
    "heat": {
        "nu": 0.025, "sigma": 0.1, "t_final": 1.0, "dt": 2.0 ** -10,
        "n_fem": 64, "refine": 8, "truncation": 2 ** 11, "gamma": 1e-10,
        "length_scale": 0.05, "n_seeds": 3,
    },
    "allen_cahn": {
        "nu": 1e-4, "sigma": 0.01, "t_final": 1.0, "dt": 2.0 ** -10,
        "n_fem": 64, "refine": 8, "truncation": 2 ** 11, "gamma": 1e-10,
        "length_scale": 0.05, "n_seeds": 3,
    },
    "rate_study": {
        "nu": 1.0, "n_modes": 64, "gamma_values":
            [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7],
        "gamma_reference": 1e-12, "length_scale": 0.2, "s": 1.0,
        "forcing_decay": 2.0,
    },
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and \
        bool(np.isfinite(v))


# the rule each parameter must meet, as a check and the words that name it
_COUNT = (lambda v: _is_int(v) and v >= 1, "an integer >= 1")
_POSITIVE = (lambda v: _is_real(v) and v > 0, "a finite number > 0")
_NONNEGATIVE = (lambda v: _is_real(v) and v >= 0, "a finite number >= 0")
_RULES = {
    "nu": _POSITIVE, "gamma": _POSITIVE, "gamma_pointwise": _POSITIVE,
    "gamma_reference": _POSITIVE, "length_scale": _POSITIVE,
    "dt": _POSITIVE, "t_final": _POSITIVE,
    "eps": _NONNEGATIVE, "sigma": _NONNEGATIVE, "s": _NONNEGATIVE,
    "forcing_decay": _NONNEGATIVE,
    "n_modes": _COUNT, "n_modes_full": _COUNT, "n_per_dim": _COUNT,
    "n_per_dim_full": _COUNT, "truncation": _COUNT,
    "max_iterations": _COUNT, "n_fem": _COUNT, "refine": _COUNT,
    "n_seeds": _COUNT,
    "measurement_grid": (lambda v: _is_int(v) and v >= 0,
                         "an integer >= 0 (0: the reference grid)"),
    # a negative exponent is refused by the seminorm, in its solve stage
    "s_values": (
        lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and
        all(_is_real(x) for x in v),
        "a non-empty list of finite numbers"),
    "gamma_values": (
        lambda v: isinstance(v, (list, tuple)) and len(v) >= 3 and
        all(_is_real(x) and x > 0 for x in v),
        "a list of at least 3 finite numbers > 0"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Named experiment, seed, scale flag, and parameter overrides.

    Each override is checked against its rule in ``_RULES`` before any
    stage runs; one that breaks it raises ``ConfigError``."""

    experiment: str
    seed: int
    out_dir: str = None
    full_scale: bool = False
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.seed is None:
            raise ValueError("a seed is mandatory")
        unknown = set(self.params) - set(DEFAULTS[self.experiment])
        if unknown:
            raise ValueError(f"unknown parameters {sorted(unknown)}")
        for key, value in self.params.items():
            check, rule = _RULES[key]
            if not check(value):
                raise ConfigError(key, value, rule)

    def resolved(self) -> dict:
        p = dict(DEFAULTS[self.experiment])
        p.update(self.params)
        p["seed"] = self.seed
        p["full_scale"] = self.full_scale
        return p


@contextmanager
def _stage(name: str):
    try:
        yield
    except Exception as exc:
        raise StageError(name, exc) from exc


def _boundary_1d():
    return np.array([0.0, 1.0])


def _boundary_2d():
    """Points along the four edges of the unit square, corners included:
    eight intervals per side."""
    t = np.linspace(0.0, 1.0, 9)
    edges = [np.column_stack([t, np.zeros_like(t)]),
             np.column_stack([t, np.ones_like(t)]),
             np.column_stack([np.zeros_like(t[1:-1]), t[1:-1]]),
             np.column_stack([np.ones_like(t[1:-1]), t[1:-1]])]
    return np.vstack(edges)


def _run_elliptic1d(p: dict) -> dict:
    n = p["n_modes_full"] if p["full_scale"] else p["n_modes"]
    with _stage("noise"):
        xi = noise.sample_white_noise_spectral(p["truncation"], p["seed"])
    space = build_test_space("sine1d", n)
    xi_meas = MeasurementVector(xi.entries[:n], space)
    kernel = KernelSpec(length_scale=p["length_scale"])
    cfg = SolverConfig(space, kernel, _boundary_1d(), gamma=p["gamma"],
                       s=1.0, max_iterations=1)
    op = operators.OperatorSpec("linear_elliptic", p["nu"])
    with _stage("reference"):
        u_star = reference.closed_form_elliptic_1d(xi, p["nu"])
        trunc_space = build_test_space("sine1d", min(p["truncation"],
                                                     cfg.n_quad - 2))
        truth = synthesize(u_star.entries[:trunc_space.size], trunc_space,
                           cfg.n_quad)
    with _stage("solve"):
        rep, report = solve(op, xi_meas, cfg)
        estimate = report.final_grid
    with _stage("solve_pointwise"):
        # L2-style baseline: collocate the operator pointwise on the rough
        # truncated forcing instead of measuring it against test functions
        x_col = np.arange(1, n + 1) / (n + 1.0)
        xi_vals = _sine_series_at_nodes(xi.entries, space)
        blocks0 = assemble_collocation(kernel, x_col, 1.0, p["nu"],
                                       _boundary_1d())
        # identity weights: the plain sum of squared pointwise residuals
        ctx0 = SeminormContext.build(build_test_space("sine1d", n), 0.0)
        coeffs0 = constrained_ls_solve(ctx0, blocks0, xi_vals,
                                       np.zeros(2), p["gamma_pointwise"])
        # the evaluation matrix in row blocks: no n_quad x (n + 2) array
        estimate0 = GridFunction(np.concatenate([
            evaluate_collocation(kernel, x_col, 1.0, p["nu"],
                                 _boundary_1d(), y) @ coeffs0
            for y in np.array_split(grid_points(cfg.n_quad), 16)]))
    with _stage("metrics"):
        err = metrics.rel_l2_error(estimate, truth)
        err0 = metrics.rel_l2_error(estimate0, truth)
        result = {
            "rel_l2_error": err,
            "sup_error": metrics.sup_error(estimate, truth),
            "rel_l2_error_pointwise": err0,
            "error_ratio_pointwise_over_weak": err0 / err,
            "iterations": report.iterations,
            "stop_reason": report.reason,
            "loss_history": report.loss_history,
        }
    x = grid_points(cfg.n_quad)
    fields = _downsample_1d(x, truth.values, estimate.values)
    rows = [("loss", 1.0, "rel_l2_error", err),
            ("loss", 0.0, "rel_l2_error", err0)]
    return {"metrics": result, "rows": rows, "fields": fields}


def _sine_series_at_nodes(coeffs, space) -> np.ndarray:
    """sum_k c_k sqrt(2) sin(pi k x) at the n interior nodes x_j = j/(n+1)
    of the DST-I grid, for any number of coefficients (n = ``space.size``).

    On those nodes sin(pi k x) has period P = 2(n+1) in k and is odd about
    multiples of P, so with r = k mod P mode k equals mode r for r <= n,
    minus mode P-r for r >= n+2, and vanishes for r = 0 or n+1.  The
    coefficients fold onto n modes, which one DST-I synthesizes.
    """
    n = space.size
    period = 2 * (n + 1)
    c = np.asarray(coeffs, dtype=float)
    folded = np.bincount(np.arange(1, c.shape[0] + 1) % period, weights=c,
                         minlength=period)
    modes = folded[1:n + 1] - folded[:n + 1:-1]
    return synthesize(modes, space, n + 2).values[1:-1]


def _downsample_1d(x, truth, estimate):
    """Field rows at a stride that keeps at most 1025 of them."""
    stride = max(1, (len(x) - 1) // 1024)
    sl = slice(None, None, stride)
    return {"columns": ["x", "truth", "estimate", "error"],
            "data": np.column_stack([x[sl], truth[sl], estimate[sl],
                                     estimate[sl] - truth[sl]])}


def _downsample_2d(n_grid, truth, estimate):
    """Field rows at a stride that keeps at most 65 points per dim."""
    stride = max(1, (n_grid - 1) // 64)
    x = grid_points(n_grid)
    xs = x[::stride]
    tv = truth[::stride, ::stride]
    ev = estimate[::stride, ::stride]
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    return {"columns": ["x", "y", "truth", "estimate", "error"],
            "data": np.column_stack([xx.ravel(), yy.ravel(), tv.ravel(),
                                     ev.ravel(), (ev - tv).ravel()])}


def _resample_2d(f: GridFunction, n_modes: int, n_coarse: int) -> GridFunction:
    """Point values of a fine-grid field on a coarse uniform grid.

    The field is expanded in its sine series (fully resolved on the fine
    grid) and evaluated pointwise on the coarse grid, so modes the coarse
    grid cannot carry fold down onto the ones it can, exactly as they
    would when sampling the rough field at quadrature nodes.
    """
    full = project(f, build_test_space("sine2d", n_per_dim=n_modes))
    c = full.entries.reshape(n_modes, n_modes)
    x = grid_points(n_coarse)
    sx = np.sin(np.pi * x[:, None] * np.arange(1, n_modes + 1)[None, :])
    return GridFunction(2.0 * sx @ c @ sx.T)


def _semilinear_setup(p: dict, n_per_dim: int):
    with _stage("reference"):
        _, xi, u_coeffs = reference.manufactured_semilinear_2d(
            p["eps"], p["truncation"], p["seed"], p["nu"])
    space = build_test_space("sine2d", n_per_dim=n_per_dim)
    with _stage("forcing_projection"):
        m_grid = p.get("measurement_grid", 0)
        if m_grid:
            # integrate the forcing on a grid that cannot resolve its full
            # rough expansion, so the measured coefficients carry the
            # resulting fold-down contamination of the highest test modes
            xi_meas = project(_resample_2d(xi, p["truncation"], m_grid),
                              space)
        else:
            xi_meas = project(xi, space)
    return u_coeffs, space, xi_meas


def _metric_grid(n_quad: int) -> int:
    """Points per dim of the grid the 2D metrics are taken on: the
    quadrature grid with its spacing halved, so a smaller quadrature grid
    does not also drop the truth's higher modes from the metric."""
    return 2 * (n_quad - 1) + 1


def _truth_on_grid(u_coeffs: MeasurementVector, n_grid: int) -> GridFunction:
    """The truth's L x L sine series, cut to what the grid carries."""
    L = u_coeffs.space.n_per_dim
    n_keep = min(L, n_grid - 2)
    trunc_space = build_test_space("sine2d", n_per_dim=n_keep)
    return synthesize(
        u_coeffs.entries.reshape(L, L)[:n_keep, :n_keep].ravel(),
        trunc_space, n_grid)


def _estimate_on_grid(rep, n_grid: int) -> GridFunction:
    """The solution on the metric grid, matrix-free (``grid_values``)."""
    values = grid_values(rep.kernel, rep.features, rep.coefficients, n_grid)
    return GridFunction(values.reshape(n_grid, n_grid))


def _run_semilinear2d(p: dict) -> dict:
    n_per_dim = p["n_per_dim_full"] if p["full_scale"] else p["n_per_dim"]
    u_coeffs, space, xi_meas = _semilinear_setup(p, n_per_dim)
    kernel = KernelSpec(length_scale=p["length_scale"])
    cfg = SolverConfig(space, kernel, _boundary_2d(), gamma=p["gamma"],
                       s=1.0, max_iterations=p["max_iterations"])
    op = operators.OperatorSpec("semilinear_sine", p["nu"])
    n_grid = _metric_grid(cfg.n_quad)
    with _stage("truth_synthesis"):
        truth = _truth_on_grid(u_coeffs, n_grid)
    with _stage("solve"):
        rep, report = solve(op, xi_meas, cfg)
        estimate = _estimate_on_grid(rep, n_grid)
    with _stage("metrics"):
        err = metrics.rel_l2_error(estimate, truth)
        result = {"rel_l2_error": err,
                  "sup_error": metrics.sup_error(estimate, truth),
                  "iterations": report.iterations,
                  "stop_reason": report.reason,
                  "loss_history": report.loss_history}
    fields = _downsample_2d(n_grid, truth.values, estimate.values)
    rows = [("iteration", float(i), "loss", v)
            for i, v in enumerate(report.loss_history)]
    rows.append(("n_per_dim", float(n_per_dim), "rel_l2_error", err))
    return {"metrics": result, "rows": rows, "fields": fields}


def _run_norm_study(p: dict) -> dict:
    n_per_dim = p["n_per_dim"]
    u_coeffs, space, xi_meas = _semilinear_setup(p, n_per_dim)
    kernel = KernelSpec(length_scale=p["length_scale"])
    op = operators.OperatorSpec("semilinear_sine", p["nu"])
    errors = {}
    stop_reasons = {}
    rows = []
    fields = None
    # the quadrature grid, and so the metric grid and the truth on it, is
    # the same for every s
    base = SolverConfig(space, kernel, _boundary_2d(), gamma=p["gamma"],
                        max_iterations=p["max_iterations"])
    n_grid = _metric_grid(base.n_quad)
    with _stage("truth_synthesis"):
        truth = _truth_on_grid(u_coeffs, n_grid)
    for s in p["s_values"]:
        cfg = replace(base, s=float(s))
        with _stage(f"solve_s_{s}"):
            rep, rpt = solve(op, xi_meas, cfg)
            estimate = _estimate_on_grid(rep, n_grid)
        err = metrics.rel_l2_error(estimate, truth)
        errors[str(s)] = err
        stop_reasons[str(s)] = rpt.reason
        rows.append(("s", float(s), "rel_l2_error", err))
        if fields is None:
            fields = _downsample_2d(n_grid, truth.values, estimate.values)
    s_vals = [float(s) for s in p["s_values"]]
    argmin_s = s_vals[int(np.argmin([errors[str(s)] for s in p["s_values"]]))]
    result = {"errors_by_s": errors, "argmin_s": argmin_s,
              "stop_reasons": stop_reasons}
    return {"metrics": result, "rows": rows, "fields": fields}


def _spde_initial(n_quad: int, n_modes: int):
    """Initial condition: grid values for the kernel run and sine
    coefficients (orthonormal convention) for the spectral reference."""
    x = grid_points(n_quad)
    values = np.sin(np.pi * x)
    coeffs = np.zeros(n_modes)
    coeffs[0] = 1.0 / np.sqrt(2.0)
    return GridFunction(values), coeffs


def _spde_paths(p: dict, family: str, seed: int, init_coeffs: np.ndarray,
                n_quad: int):
    """The coarse noise path of the kernel run and the spectral reference
    on the fine path of the same Brownian motion, from one pass over the
    fine increments.

    Each block of ``refine`` fine steps drives the reference and is summed
    into the coarse step it makes up, and a few coarse steps at a time are
    measured on the kernel run's tents by the tent-sine cross Gram, formed
    first.  So no more than one block of the fine path, and no (n_steps, L)
    coarse array, is held at a time.  The blocks are drawn as the reference
    consumes them, so the draws and their failures count under the
    reference stage.
    """
    dt, refine, trunc = p["dt"], p["refine"], p["truncation"]
    n_steps = int(round(p["t_final"] / dt))
    fem = build_test_space("fem1d", p["n_fem"])
    cross = spde.tent_sine_cross_gram(fem, trunc)
    measured = np.empty((n_steps, fem.size))
    with _stage("reference"):
        fine = noise.increment_blocks(seed, dt / refine, n_steps * refine,
                                      trunc, refine)
        ref, _ = reference.spectral_galerkin_spde(
            family, p["nu"], p["sigma"], dt / refine, trunc, p["t_final"],
            noise.aggregating(fine, refine, cross, measured),
            initial=init_coeffs, store_every=refine, n_grid=n_quad)
    return noise.NoisePath(dt, fem, measured), ref


def _spde_seed(p: dict, family: str, seed: int):
    """Space-time error of one seed's kernel run against its reference,
    and the final grid values of both.  The seed's trajectories and noise
    path are dropped on return, before the next seed's are built."""
    n_quad = default_n_quad(build_test_space("fem1d", p["n_fem"]))
    init_grid, init_coeffs = _spde_initial(n_quad, p["truncation"])
    coarse_path, ref = _spde_paths(p, family, seed, init_coeffs, n_quad)
    with _stage("kernel_integration"):
        cfg = SpdeConfig(family, p["nu"], p["sigma"], p["t_final"], p["dt"],
                         space=coarse_path.space,
                         kernel=KernelSpec(length_scale=p["length_scale"]),
                         gamma=p["gamma"], n_quad=n_quad, initial=init_grid)
        traj = spde.integrate(cfg, coarse_path)
    with _stage("metrics"):
        err = metrics.space_time_l2_error(traj, ref)
    return err, ref.values[-1].copy(), traj.values[-1].copy()


def _run_spde(p: dict, family: str) -> dict:
    errors = []
    rows = []
    fields = None
    for k in range(p["n_seeds"]):
        seed = p["seed"] + k
        err, ref_final, final = _spde_seed(p, family, seed)
        errors.append(err)
        rows.append(("seed", float(seed), "space_time_l2_error", err))
        if fields is None:
            fields = _downsample_1d(grid_points(ref_final.shape[0]),
                                    ref_final, final)
    result = {"space_time_l2_errors": errors,
              "mean_space_time_l2_error": float(np.mean(errors)),
              "cfl_product": p["n_fem"] ** 2 * p["dt"]}
    return {"metrics": result, "rows": rows, "fields": fields}


def _run_rate_study(p: dict) -> dict:
    n = p["n_modes"]
    space = build_test_space("sine1d", n)
    kernel = KernelSpec(length_scale=p["length_scale"])
    s = p["s"]
    with _stage("forcing"):
        j = np.arange(1, n + 1)
        raw = noise.stream(p["seed"]).standard_normal(n)
        xi = MeasurementVector(raw / j ** p["forcing_decay"], space)
    op = operators.OperatorSpec("linear_elliptic", p["nu"])
    ctx = SeminormContext.build(space, s)
    with _stage("assembly"):
        n_quad = default_n_quad(space)
        lin = operators.linearize(op, GridFunction(np.zeros(n_quad)))
        fs = FeatureSet(space, lin.c_field.values, lin.nu_diff,
                        _boundary_1d(), n_quad)
        blocks = assemble_features(kernel, fs)

    # chi_i(u) = (c + nu lambda_i) <phi_i, u>, and chi_i of the
    # representer is row i of the Gram matrix times its coefficients, so
    # the sine coefficients of the solution are read without a grid
    scale = lin.c_field.values[0] + lin.nu_diff * space.eigenvalues

    def coeffs_for(gamma):
        coeffs = constrained_ls_solve(ctx, blocks, xi.entries,
                                      np.zeros(2), gamma)
        return blocks.k_chi_phi @ coeffs / scale

    with _stage("gamma_sweep"):
        u_ref = coeffs_for(p["gamma_reference"])
        weights = space.eigenvalues ** (2.0 - s)
        errs = []
        for gamma in p["gamma_values"]:
            du = coeffs_for(gamma) - u_ref
            errs.append(float(weights @ du ** 2))
    with _stage("fit"):
        slope, intercept, r2 = metrics.fit_rate(p["gamma_values"], errs)
    rows = [("gamma", g, "h_alpha_sq_error", e)
            for g, e in zip(p["gamma_values"], errs)]
    result = {"slope": slope, "intercept": intercept, "r_squared": r2,
              "errors": errs}
    fields = {"columns": ["gamma", "h_alpha_sq_error"],
              "data": np.column_stack([p["gamma_values"], errs])}
    return {"metrics": result, "rows": rows, "fields": fields}


_RUNNERS = {
    "elliptic1d": _run_elliptic1d,
    "semilinear2d": _run_semilinear2d,
    "norm_study": _run_norm_study,
    "heat": lambda p: _run_spde(p, "heat"),
    "allen_cahn": lambda p: _run_spde(p, "allen_cahn"),
    "rate_study": _run_rate_study,
}


def check_thresholds(experiment: str, m: dict, full_scale: bool = False):
    """Acceptance-style threshold checks; returns a list of failures."""
    failures = []

    def expect(cond, text):
        if not cond:
            failures.append(text)

    if experiment == "elliptic1d":
        bound = 5e-4 if full_scale else 1e-3
        expect(m["rel_l2_error"] <= bound,
               f"rel_l2_error {m['rel_l2_error']:.3e} > {bound:g}")
        ratio = m["error_ratio_pointwise_over_weak"]
        expect(ratio >= 50.0,
               f"pointwise/weak error ratio {ratio:.1f} < 50")
    elif experiment == "semilinear2d":
        expect(m["rel_l2_error"] <= 0.15,
               f"rel_l2_error {m['rel_l2_error']:.3e} > 0.15")
    elif experiment == "norm_study":
        expect(m["argmin_s"] == 1.1, f"argmin_s {m['argmin_s']} != 1.1")
        expect(m["errors_by_s"]["2.0"] > m["errors_by_s"]["1.1"],
               "error at s=2.0 not larger than at s=1.1")
    elif experiment == "heat":
        expect(m["mean_space_time_l2_error"] <= 5e-2,
               f"mean error {m['mean_space_time_l2_error']:.3e} > 5e-2")
    elif experiment == "allen_cahn":
        expect(m["mean_space_time_l2_error"] <= 1e-1,
               f"mean error {m['mean_space_time_l2_error']:.3e} > 1e-1")
    elif experiment == "rate_study":
        expect(1.7 <= m["slope"] <= 2.3,
               f"slope {m['slope']:.3f} outside [1.7, 2.3]")
        expect(m["r_squared"] >= 0.95,
               f"R^2 {m['r_squared']:.3f} < 0.95")
    return failures


def _to_jsonable(obj):
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run the named pipeline end-to-end and write its artifacts.

    Returns {"metrics": ..., "config": resolved config}."""
    p = cfg.resolved()
    out = _RUNNERS[cfg.experiment](p)
    report = {
        "experiment": cfg.experiment,
        "config": _to_jsonable(p),
        "metrics": _to_jsonable(out["metrics"]),
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__,
                     "nessolve": "0.1.0"},
    }
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        with open(os.path.join(cfg.out_dir, "results.json"), "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(os.path.join(cfg.out_dir, "errors.csv"), "w",
                  newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["parameter", "value", "metric", "error"])
            for row in out["rows"]:
                writer.writerow([row[0], repr(float(row[1])), row[2],
                                 repr(float(row[3]))])
        fields = out.get("fields")
        if fields is not None:
            path = os.path.join(cfg.out_dir, f"{cfg.experiment}_fields.csv")
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(fields["columns"])
                for row in np.atleast_2d(fields["data"]):
                    writer.writerow([repr(float(v)) for v in row])
    return report
