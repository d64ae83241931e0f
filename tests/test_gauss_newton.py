"""Tests for the constrained Gauss-Newton step and outer solve loop."""

import numpy as np
import pytest
import scipy.linalg

from nessolve.errors import DegenerateFeaturesError
from nessolve.gauss_newton import KKTSystem, Representer, SolverConfig, \
    constrained_ls_solve, evaluate, gn_step, solve
from nessolve.kernels import FeatureSet, GramBlocks, KernelSpec, \
    assemble_features
from nessolve.operators import OperatorSpec
from nessolve.seminorm import SeminormContext
from nessolve.spaces import MeasurementVector, build_test_space, grid_points

KER = KernelSpec("matern52", 0.2)
BP = np.array([0.0, 1.0])


def _tiny_problem(n=3, gamma=1e-3, seed=0):
    sp = build_test_space("sine1d", n)
    fs = FeatureSet(sp, np.ones(4 * n + 1), 0.05, BP, 4 * n + 1)
    blocks = assemble_features(KER, fs)
    ctx = SeminormContext.build(sp, 1.0)
    rng = np.random.default_rng(seed)
    r = rng.standard_normal(n)
    g = np.array([0.1, -0.2])
    return ctx, blocks, r, g, gamma


def _null_space_oracle(ctx, blocks, r, g, gamma):
    """Dense reduced-space solve of the step QP, independent of the solver."""
    b = blocks.k_chi_phi
    c_mat = blocks.k_x_phi
    a_inv = np.linalg.inv(ctx.matrix())
    q = 2.0 * (b.T @ a_inv @ b + gamma * blocks.k_phi_phi)
    b_lin = -2.0 * b.T @ a_inv @ r
    c_p = np.linalg.lstsq(c_mat, g, rcond=None)[0]
    z = scipy.linalg.null_space(c_mat)
    y = np.linalg.solve(z.T @ q @ z, -z.T @ (q @ c_p + b_lin))
    return c_p + z @ y, q, b_lin


def test_step_matches_null_space_oracle():
    ctx, blocks, r, g, gamma = _tiny_problem()
    oracle, q, b_lin = _null_space_oracle(ctx, blocks, r, g, gamma)
    coeffs, mult = constrained_ls_solve(ctx, blocks, r, g, gamma)
    scale = max(1.0, np.abs(oracle).max())
    assert np.max(np.abs(coeffs - oracle)) <= 1e-8 * scale
    # multipliers close the stationarity condition
    assert np.max(np.abs(q @ coeffs + b_lin + blocks.k_x_phi.T @ mult)) \
        <= 1e-8 * max(1.0, np.abs(b_lin).max())
    # the factored KKT path agrees with the least-squares path
    kkt = KKTSystem(ctx, blocks, gamma)
    coeffs2, _ = kkt.solve(r, g)
    assert np.max(np.abs(coeffs2 - oracle)) <= 1e-8 * scale


def test_step_constraint_exactness():
    ctx, blocks, r, g, gamma = _tiny_problem(seed=4)
    coeffs, _ = constrained_ls_solve(ctx, blocks, r, g, gamma)
    assert np.max(np.abs(blocks.k_x_phi @ coeffs - g)) <= 1e-8


def test_step_beats_feasible_baseline():
    ctx, blocks, r, g, gamma = _tiny_problem(seed=7)
    kkt = KKTSystem(ctx, blocks, gamma)
    coeffs, _ = constrained_ls_solve(ctx, blocks, r, g, gamma)
    baseline = np.linalg.lstsq(blocks.k_x_phi, g, rcond=None)[0]
    assert sum(kkt.loss_terms(coeffs, r)) <= \
        sum(kkt.loss_terms(baseline, r)) + 1e-12


def test_large_gamma_shrinks_coefficients():
    ctx, blocks, r, _, _ = _tiny_problem()
    g0 = np.zeros(2)
    small, _ = constrained_ls_solve(ctx, blocks, r, g0, 1e-8)
    big, _ = constrained_ls_solve(ctx, blocks, r, g0, 1e6)
    assert np.linalg.norm(big) <= 1e-4 * np.linalg.norm(small)


def test_gn_step_reports_loss_terms():
    ctx, blocks, r, g, gamma = _tiny_problem()
    sp = ctx.space
    rep, (misfit, penalty) = gn_step(
        ctx, blocks, MeasurementVector(r, sp), g, gamma)
    assert misfit >= 0 and penalty >= 0
    kkt = KKTSystem(ctx, blocks, gamma)
    m2, p2 = kkt.loss_terms(rep.coefficients, r)
    assert misfit == pytest.approx(m2, rel=1e-10)
    assert penalty == pytest.approx(p2, rel=1e-10)


def test_degenerate_gram_raises():
    n, m = 2, 1
    bad = GramBlocks(np.zeros((n, n + m)), np.zeros((m, n + m)),
                     -np.eye(n + m))
    ctx = SeminormContext.build(build_test_space("sine1d", n), 1.0)
    with pytest.raises(DegenerateFeaturesError):
        constrained_ls_solve(ctx, bad, np.zeros(n), np.zeros(m), 1e-6)


def test_factored_system_reused_across_right_hand_sides():
    ctx, blocks, _, _, gamma = _tiny_problem()
    kkt = KKTSystem(ctx, blocks, gamma)
    rng = np.random.default_rng(3)
    for _ in range(3):
        r = rng.standard_normal(ctx.space.size)
        g = rng.standard_normal(2)
        coeffs, mult = kkt.solve(r, g)
        fresh_coeffs, fresh_mult = constrained_ls_solve(ctx, blocks, r, g,
                                                        gamma)
        assert np.max(np.abs(coeffs - fresh_coeffs)) <= \
            1e-12 * max(1.0, np.abs(fresh_coeffs).max())
        assert np.max(np.abs(mult - fresh_mult)) <= \
            1e-12 * max(1.0, np.abs(fresh_mult).max())


def test_rank_deficient_constraints_raise():
    ctx, blocks, _, _, gamma = _tiny_problem()
    c = blocks.k_x_phi
    bad = GramBlocks(blocks.k_chi_phi, np.vstack([c[0], c[0]]),
                     blocks.k_phi_phi)
    with pytest.raises(DegenerateFeaturesError) as info:
        KKTSystem(ctx, bad, gamma)
    assert info.value.block == "k_x_phi"


def test_solver_config_validation():
    sp = build_test_space("sine1d", 4)
    with pytest.raises(ValueError):
        SolverConfig(sp, KER, BP, gamma=0.0)
    with pytest.raises(ValueError):
        SolverConfig(sp, KER, BP, max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(sp, KER, BP, g_boundary=np.zeros(3))
    cfg = SolverConfig(sp, KER, BP)
    assert cfg.n_quad == 17
    assert np.allclose(cfg.g_boundary, 0.0)


def _single_mode_setup(n=64, gamma=1e-10):
    nu = 0.01
    sp = build_test_space("sine1d", n)
    xi = MeasurementVector(np.eye(n)[0], sp)
    op = OperatorSpec("linear_elliptic", nu)
    cfg = SolverConfig(sp, KER, BP, gamma=gamma)
    return op, xi, cfg, nu


def test_solve_single_mode_closed_form():
    op, xi, cfg, nu = _single_mode_setup()
    rep, report = solve(op, xi, cfg)
    x = grid_points(257)
    exact = np.sqrt(2) * np.sin(np.pi * x) / (nu * np.pi ** 2 + 1.0)
    got = evaluate(rep, x)
    assert np.max(np.abs(got - exact)) <= 1e-3


def test_solve_linear_one_step_exactness():
    op, xi, cfg, _ = _single_mode_setup()
    _, report = solve(op, xi, cfg)
    assert report.reason == "loss_plateau"
    assert report.iterations == 2
    losses = report.loss_history
    assert abs(losses[1] - losses[0]) <= 1e-10 * max(abs(losses[0]), 1.0)


def test_solve_boundary_exactness():
    op, xi, cfg, _ = _single_mode_setup()
    g = np.array([0.3, -0.2])
    cfg = SolverConfig(cfg.space, cfg.kernel, BP, gamma=cfg.gamma,
                       g_boundary=g)
    rep, _ = solve(op, xi, cfg)
    got = evaluate(rep, BP)
    assert np.max(np.abs(got - g)) <= 1e-8 * max(1.0, np.abs(g).max())


def test_solve_grid_agrees_with_direct_evaluation():
    op, xi, cfg, _ = _single_mode_setup(n=32)
    rep, report = solve(op, xi, cfg)
    x = grid_points(cfg.n_quad)
    direct = evaluate(rep, x)
    assert np.max(np.abs(direct - report.final_grid.values)) <= \
        1e-8 * max(1.0, np.abs(direct).max())


def test_representer_shape_validation():
    sp = build_test_space("sine1d", 3)
    fs = FeatureSet(sp, np.ones(17), 0.1, BP, 17)
    with pytest.raises(ValueError):
        Representer(np.zeros(4), np.zeros(2), features=fs)
