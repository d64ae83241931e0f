"""Tests for the kernel-driven semi-implicit Euler time stepper."""

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

from nessolve.kernels import KernelSpec
from nessolve.noise import build_path
from nessolve.spaces import GridFunction, build_test_space, grid_points, \
    project
from nessolve.spde import SpdeConfig, Stepper, integrate, \
    tent_sine_cross_gram


def _sine_cfg(**kw):
    base = dict(family="heat", nu=0.025, sigma=0.0, t_final=1.0 / 256,
                dt=1.0 / 256, space=build_test_space("sine1d", 32),
                kernel=KernelSpec("matern52", 0.05), gamma=1e-12)
    base.update(kw)
    return SpdeConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _sine_cfg(family="wave")
    with pytest.raises(ValueError):
        _sine_cfg(dt=0.3, t_final=1.0)
    with pytest.raises(ValueError):
        _sine_cfg(dt=-0.1)
    cfg = _sine_cfg()
    assert cfg.n_steps == 1
    assert cfg.cfl_product == pytest.approx(32 ** 2 / 256)


def test_cfl_guard():
    with pytest.raises(ValueError):
        Stepper(_sine_cfg(dt=1.0 / 64, t_final=1.0 / 64))
    Stepper(_sine_cfg(dt=1.0 / 64, t_final=1.0 / 64,
                      allow_cfl_violation=True))


def test_single_mode_attenuation():
    # the measured coefficients reproduce the implicit-Euler attenuation to
    # solver tolerance; grid values additionally carry the (larger) kernel
    # representation error of the smooth mode
    cfg = _sine_cfg(kernel=KernelSpec("matern52", 0.2))
    x = grid_points(cfg.n_quad)
    a = 0.3
    u0 = GridFunction(a * np.sqrt(2) * np.sin(np.pi * x))
    u1 = GridFunction(Stepper(cfg).step(u0.values))
    coeffs = project(u1, cfg.space).entries
    factor = a / (1.0 + cfg.dt * cfg.nu * np.pi ** 2)
    assert abs(coeffs[0] - factor) <= 1e-6
    assert np.max(np.abs(coeffs[1:])) <= 1e-6
    expect = factor * np.sqrt(2) * np.sin(np.pi * x)
    assert np.max(np.abs(u1.values - expect)) <= 5e-4


def test_zero_initial_stays_zero():
    cfg = _sine_cfg(t_final=4.0 / 256)
    traj = integrate(cfg)
    assert np.max(np.abs(traj.values)) <= 1e-12


def test_step_linearity():
    cfg = _sine_cfg()
    stepper = Stepper(cfg)
    x = grid_points(cfg.n_quad)
    u = np.sqrt(2) * np.sin(np.pi * x) + 0.4 * np.sqrt(2) * \
        np.sin(3 * np.pi * x)
    v = 0.7 * np.sqrt(2) * np.sin(2 * np.pi * x)
    lhs = stepper.step(u + v)
    rhs = stepper.step(u) + stepper.step(v)
    assert np.max(np.abs(lhs - rhs)) <= 1e-8 * max(1.0, np.abs(lhs).max())


def test_allen_cahn_explicit_euler_limit():
    # with vanishing diffusion one step of the scheme is plain explicit
    # Euler on u' = u - u^3: 0.5 -> 0.5 + dt * 0.375 away from the boundary
    dt = 1.0 / 1024
    cfg = SpdeConfig(family="allen_cahn", nu=1e-12, sigma=0.0, t_final=dt,
                     dt=dt, kernel=KernelSpec("matern52", 0.05),
                     gamma=1e-12)
    u0 = GridFunction(np.full(cfg.n_quad, 0.5))
    u1 = GridFunction(Stepper(cfg).step(u0.values))
    mid = cfg.n_quad // 2
    assert u1.values[mid] == pytest.approx(0.5 + dt * 0.375, abs=1e-6)


def test_heat_semigroup_time_order():
    # first-order accuracy in dt of the mode-1 attenuation over [0, T]
    nu, t_final = 1.0, 0.25
    space = build_test_space("sine1d", 16)
    x = None
    exact = np.exp(-nu * np.pi ** 2 * t_final)

    def final_mode(dt):
        cfg = SpdeConfig(family="heat", nu=nu, sigma=0.0, t_final=t_final,
                         dt=dt, space=space,
                         kernel=KernelSpec("matern52", 0.1), gamma=1e-12)
        grid = grid_points(cfg.n_quad)
        cfg2 = SpdeConfig(family="heat", nu=nu, sigma=0.0, t_final=t_final,
                          dt=dt, space=space,
                          kernel=KernelSpec("matern52", 0.1), gamma=1e-12,
                          initial=GridFunction(
                              np.sqrt(2) * np.sin(np.pi * grid)))
        traj = integrate(cfg2)
        return traj.measurements[-1, 0]

    e1 = abs(final_mode(1.0 / 64) - exact)
    e2 = abs(final_mode(1.0 / 128) - exact)
    order = np.log2(e1 / e2)
    assert 0.9 <= order <= 1.1


def test_boundary_values_vanish():
    path = build_path(4, "spectral", 1.0 / 256, 4, 32)
    cfg = _sine_cfg(sigma=0.5, t_final=4.0 / 256)
    traj = integrate(cfg, path)
    assert np.max(np.abs(traj.values[:, 0])) <= 1e-8
    assert np.max(np.abs(traj.values[:, -1])) <= 1e-8


def test_integration_determinism():
    path = build_path(21, "spectral", 1.0 / 256, 4, 32)
    cfg = _sine_cfg(sigma=0.1, t_final=4.0 / 256)
    t1 = integrate(cfg, path)
    t2 = integrate(cfg, path)
    assert np.array_equal(t1.values, t2.values)
    assert np.array_equal(t1.measurements, t2.measurements)


def test_integrate_path_validation():
    cfg = _sine_cfg(sigma=0.1, t_final=4.0 / 256)
    with pytest.raises(ValueError):
        integrate(cfg, build_path(0, "spectral", 1.0 / 256, 3, 32))
    with pytest.raises(ValueError):
        integrate(cfg, build_path(0, "spectral", 1.0 / 128, 4, 32))


def test_tent_sine_cross_gram_quadrature_oracle():
    sp = build_test_space("fem1d", 4)
    got = tent_sine_cross_gram(sp, 3)
    h = sp.h

    def tent(i, x):
        return max(0.0, 1.0 - abs(x - (i + 1) * h) / h)

    for i in range(4):
        for j in range(1, 4):
            lo, hi = max(0.0, i * h), min(1.0, (i + 2) * h)
            val, _ = quad(lambda x: tent(i, x) * np.sqrt(2) *
                          np.sin(np.pi * j * x), lo, hi,
                          points=[(i + 1) * h], limit=200)
            assert got[i, j - 1] == pytest.approx(val, abs=1e-10)
    with pytest.raises(ValueError):
        tent_sine_cross_gram(build_test_space("sine1d", 4), 3)


def test_fem_measurement_path():
    # default fem measurement basis accepts spectral increments through the
    # exact cross gram; just check a short noisy run stays finite and
    # deterministic
    dt = 1.0 / 1024
    cfg = SpdeConfig(family="heat", nu=0.025, sigma=0.1, t_final=4 * dt,
                     dt=dt, space=build_test_space("fem1d", 16),
                     kernel=KernelSpec("matern52", 0.1), gamma=1e-10)
    path = build_path(3, "spectral", dt, 4, 64)
    t1 = integrate(cfg, path)
    t2 = integrate(cfg, path)
    assert np.all(np.isfinite(t1.values))
    assert np.array_equal(t1.values, t2.values)


def test_heat_step_matches_dgglse_under_refinement():
    # at n_fem=256 with dt scaled to the mesh the normal-equations KKT
    # matrix has condition ~1e21; the factored step must still agree with
    # LAPACK's generalized-RQ least-squares solve on the grid
    n_fem, dt = 256, 2.0 ** -16
    cfg = SpdeConfig(family="heat", nu=0.025, sigma=0.0, t_final=dt, dt=dt,
                     space=build_test_space("fem1d", n_fem),
                     kernel=KernelSpec("matern52", 0.05), gamma=1e-10)
    stepper = Stepper(cfg)
    x = grid_points(cfg.n_quad)
    u = np.sin(np.pi * x) + 0.1 * np.sin(17 * np.pi * x)
    got = stepper.step(u)

    ctx, blocks = stepper.ctx, stepper.blocks
    g_chol = scipy.linalg.cholesky(blocks.k_phi_phi, lower=True)
    stack = np.vstack([ctx.whiten(blocks.k_chi_phi),
                       np.sqrt(cfg.gamma) * g_chol.T])
    m = project(GridFunction(u), cfg.space).entries
    d = np.concatenate([ctx.whiten(m), np.zeros(g_chol.shape[0])])
    out = scipy.linalg.lapack.dgglse(stack, blocks.k_x_phi.copy(), d,
                                     np.zeros(2))
    assert out[-1] == 0
    ref = blocks.quad_eval @ out[3]
    assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))
