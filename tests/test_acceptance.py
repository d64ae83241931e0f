"""Acceptance harness: one test (and one printed pass/fail line) per
criterion, run at benchmark scale with seed 7.

Criteria 1-7 exercise the six experiment pipelines end to end; criterion 8
bundles the structural property suites (dual-norm identities, step-QP
oracle agreement, one-step exactness, Taylor remainder order, Monte Carlo
noise covariance, boundary exactness, and bitwise rerun determinism of
every experiment at reduced size).
"""

import time

import numpy as np
import pytest
import scipy.linalg

from nessolve.experiments import ExperimentConfig, run_experiment
from nessolve.gauss_newton import KKTSystem, SolverConfig, \
    constrained_ls_solve, evaluate, solve
from nessolve.kernels import FeatureSet, KernelSpec, assemble_features
from nessolve.noise import sample_wiener_increment, stream
from nessolve.operators import OperatorSpec, apply, laplacian, linearize
from nessolve.seminorm import SeminormContext, seminorm_squared
from nessolve.spaces import GridFunction, MeasurementVector, \
    build_test_space, grid_points, stiffness_matrix

SEED = 7

REDUCED = {
    "elliptic1d": {"n_modes": 128, "truncation": 1024},
    "semilinear2d": {"n_per_dim": 8, "truncation": 64, "max_iterations": 4},
    "norm_study": {"n_per_dim": 8, "truncation": 56, "measurement_grid": 33,
                   "s_values": [1.0, 2.0]},
    "heat": {"n_fem": 16, "dt": 2.0 ** -6, "refine": 2, "truncation": 64,
             "n_seeds": 1},
    "allen_cahn": {"n_fem": 16, "dt": 2.0 ** -6, "refine": 2,
                   "truncation": 64, "n_seeds": 1},
    "rate_study": {"n_modes": 32},
}


def _report(capsys, num, label, checks):
    ok = all(c[0] for c in checks)
    detail = "; ".join(c[1] for c in checks)
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nCRITERION {num} [{label}]: {verdict} ({detail})",
              flush=True)
    assert ok, detail


def _timed_run(experiment, full_scale=False, **params):
    t0 = time.monotonic()
    rep = run_experiment(ExperimentConfig(experiment, SEED,
                                          full_scale=full_scale,
                                          params=params))
    return rep["metrics"], time.monotonic() - t0


@pytest.fixture(scope="module")
def elliptic_desk():
    return _timed_run("elliptic1d")


def test_criterion_1_elliptic_accuracy(elliptic_desk, capsys):
    m, elapsed = elliptic_desk
    m_full, _ = _timed_run("elliptic1d", full_scale=True)
    _report(capsys, 1, "1D elliptic accuracy", [
        (m["rel_l2_error"] <= 1e-3,
         f"desk rel_l2 {m['rel_l2_error']:.2e} vs 1e-3"),
        (elapsed <= 120.0, f"desk runtime {elapsed:.1f}s vs 120s"),
        (m_full["rel_l2_error"] <= 5e-4,
         f"full-scale rel_l2 {m_full['rel_l2_error']:.2e} vs 5e-4"),
    ])


def test_criterion_2_weak_loss_beats_pointwise(elliptic_desk, capsys):
    m, _ = elliptic_desk
    ratio = m["error_ratio_pointwise_over_weak"]
    _report(capsys, 2, "pointwise loss fails on rough forcing", [
        (ratio >= 50.0, f"pointwise/weak error ratio {ratio:.1f} vs >= 50"),
    ])


def test_criterion_3_semilinear_2d(capsys):
    m, elapsed = _timed_run("semilinear2d")
    _report(capsys, 3, "2D semilinear convergence", [
        (m["rel_l2_error"] <= 0.15,
         f"rel_l2 {m['rel_l2_error']:.3f} vs 0.15"),
        (m["iterations"] <= 10, f"{m['iterations']} iterations vs 10"),
        (elapsed <= 600.0, f"runtime {elapsed:.1f}s vs 600s"),
    ])


def test_criterion_4_norm_exponent_study(capsys):
    m, _ = _timed_run("norm_study")
    err = m["errors_by_s"]
    _report(capsys, 4, "misfit-norm exponent study", [
        (m["argmin_s"] == 1.1, f"argmin_s {m['argmin_s']} vs 1.1"),
        (err["2.0"] > err["1.1"],
         f"err(2.0)={err['2.0']:.3f} > err(1.1)={err['1.1']:.3f}"),
    ])


def test_criterion_5_stochastic_heat(capsys):
    m, elapsed = _timed_run("heat")
    per_seed = elapsed / len(m["space_time_l2_errors"])
    _report(capsys, 5, "stochastic heat equation", [
        (m["mean_space_time_l2_error"] <= 5e-2,
         f"mean error {m['mean_space_time_l2_error']:.3e} vs 5e-2"),
        (m["cfl_product"] <= 5.0,
         f"CFL product {m['cfl_product']:.1f} vs 5"),
        (per_seed <= 300.0, f"{per_seed:.1f}s per seed vs 300s"),
    ])


def test_criterion_6_stochastic_allen_cahn(capsys):
    m, _ = _timed_run("allen_cahn")
    _report(capsys, 6, "stochastic Allen-Cahn equation", [
        (m["mean_space_time_l2_error"] <= 1e-1,
         f"mean error {m['mean_space_time_l2_error']:.3e} vs 1e-1"),
    ])


def test_criterion_7_regularization_rate(capsys):
    m, _ = _timed_run("rate_study")
    _report(capsys, 7, "gamma-bias rate", [
        (1.7 <= m["slope"] <= 2.3, f"slope {m['slope']:.3f} in [1.7, 2.3]"),
        (m["r_squared"] >= 0.95, f"R^2 {m['r_squared']:.4f} vs 0.95"),
    ])


def _check_seminorm_identities():
    rng = np.random.default_rng(0)
    n = 8
    f = rng.standard_normal(2 * n)
    lam = (np.pi * np.arange(1, 2 * n + 1)) ** 2

    def sq(k):
        ctx = SeminormContext.build(build_test_space("sine1d", k), 1.0)
        return seminorm_squared(ctx, f[:k])

    vals = [sq(k) for k in range(1, 2 * n + 1)]
    mono = all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))
    exact = float(np.sum(f ** 2 / lam))
    tail = float(np.sum(f[n:] ** 2 / lam[n:]))
    decomp = abs(exact - (sq(n) + tail)) <= 1e-10
    return mono and decomp, "seminorm nesting/decomposition"


def _check_kkt_oracle():
    sp = build_test_space("sine1d", 3)
    fs = FeatureSet(sp, np.ones(13), 0.05, np.array([0.0, 1.0]), 13)
    blocks = assemble_features(KernelSpec("matern52", 0.2), fs)
    ctx = SeminormContext.build(sp, 1.0)
    r = stream(1).standard_normal(3)
    g = np.array([0.1, -0.2])
    gamma = 1e-3
    b, c_mat = blocks.k_chi_phi, blocks.k_x_phi
    a_inv = np.linalg.inv(stiffness_matrix(ctx.space, ctx.s))
    q = 2.0 * (b.T @ a_inv @ b + gamma * blocks.k_phi_phi)
    c_p = np.linalg.lstsq(c_mat, g, rcond=None)[0]
    z = scipy.linalg.null_space(c_mat)
    y = np.linalg.solve(z.T @ q @ z,
                        -z.T @ (q @ c_p - 2.0 * b.T @ a_inv @ r))
    oracle = c_p + z @ y
    coeffs = constrained_ls_solve(ctx, blocks, r, g, gamma)
    kkt_coeffs = KKTSystem(ctx, blocks, gamma).solve(r, g)
    tol = 1e-8 * max(1.0, np.abs(oracle).max())
    ok = np.max(np.abs(coeffs - oracle)) <= tol and \
        np.max(np.abs(kkt_coeffs - oracle)) <= tol
    return ok, "KKT vs dense QP oracle"


def _linear_solve(g=None, u0=None):
    n = 64
    sp = build_test_space("sine1d", n)
    xi = MeasurementVector(np.eye(n)[0], sp)
    cfg = SolverConfig(sp, KernelSpec("matern52", 0.2),
                       np.array([0.0, 1.0]), gamma=1e-10, g_boundary=g)
    return solve(OperatorSpec("linear_elliptic", 0.01), xi, cfg, u0)


def _check_one_step_exactness():
    # a linear solve stops after its one step; a second step, from the
    # first one's grid values, lands on the same loss
    _, report = _linear_solve()
    _, again = _linear_solve(u0=report.final_grid)
    first, second = report.loss_history[0], again.loss_history[0]
    ok = report.iterations == 1 and report.reason == "linear" and \
        abs(second - first) <= 1e-10 * max(abs(first), 1.0)
    return ok, "linear one-step exactness"


def _check_taylor_order():
    op = OperatorSpec("semilinear_sine", 0.1)
    x = grid_points(129)
    u = GridFunction(0.6 * np.sqrt(2) * np.sin(np.pi * x))
    v = GridFunction(np.sqrt(2) * np.sin(2 * np.pi * x))
    lin = linearize(op, u)
    base = apply(op, u).values

    def rem(h):
        pert = GridFunction(u.values + h * v.values)
        pred = base + h * (-op.nu_diff * laplacian(v).values +
                           lin.c_field.values * v.values)
        return np.max(np.abs(apply(op, pert).values - pred))

    order = np.log10(rem(1e-2) / rem(1e-3))
    return order >= 1.9, f"Taylor remainder order {order:.2f}"


def _check_noise_covariance():
    dt = 0.25
    rng = stream(123)
    n = 100_000
    draws = np.empty((n, 3))
    for i in range(n):
        draws[i] = sample_wiener_increment(3, dt, rng).entries
    cov = np.cov(draws.T)
    diag_ok = np.allclose(np.diag(cov), dt, rtol=0.05)
    off = cov - np.diag(np.diag(cov))
    return diag_ok and np.abs(off).max() <= 0.05 * dt, \
        "noise covariance (1e5 draws)"


def _check_boundary_exactness():
    g = np.array([0.3, -0.2])
    rep, _ = _linear_solve(g)
    resid = np.max(np.abs(evaluate(rep, np.array([0.0, 1.0])) - g))
    return resid <= 1e-8, f"boundary residual {resid:.1e}"


def _check_experiment_determinism(tmp_path):
    names = {"results.json", "errors.csv"}
    for experiment, params in REDUCED.items():
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{experiment}_{tag}"
            run_experiment(ExperimentConfig(experiment, SEED,
                                            out_dir=str(out), params=params))
            blobs.append({f.name: f.read_bytes() for f in out.iterdir()})
        if blobs[0] != blobs[1] or not names <= set(blobs[0]):
            return False, f"{experiment} rerun differs"
    return True, "bitwise rerun determinism (6 experiments)"


def test_criterion_8_property_suites(tmp_path, capsys):
    checks = [
        _check_seminorm_identities(),
        _check_kkt_oracle(),
        _check_one_step_exactness(),
        _check_taylor_order(),
        _check_noise_covariance(),
        _check_boundary_exactness(),
        _check_experiment_determinism(tmp_path),
    ]
    _report(capsys, 8, "property suites", checks)
