"""Tests for the kernel-driven semi-implicit Euler time stepper."""

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

import nessolve.kernels as kernels
from nessolve.errors import ResolutionTooCoarseError
from nessolve.gauss_newton import KKTSystem
from nessolve.kernels import KernelSpec
from nessolve.noise import NoisePath, build_path
from nessolve.spaces import GridFunction, MeasurementVector, basis_values, \
    build_test_space, grid_points, project, trapezoid_weights
from nessolve.spde import SpdeConfig, Stepper, integrate, \
    tent_sine_cross_gram


def _sine_cfg(**kw):
    base = dict(family="heat", nu=0.025, sigma=0.0, t_final=1.0 / 256,
                dt=1.0 / 256, space=build_test_space("sine1d", 32),
                kernel=KernelSpec("matern52", 0.05), gamma=1e-12)
    base.update(kw)
    return SpdeConfig(**base)


def _fem_lattice_weights(fs):
    """The N x G fem weight rows from the lattice definition: 1 - |l|/r at
    grid node (i + 1) r + l, |l| <= r, times c/(q - 1), plus the diffusion
    stencil nu/h (2, -1, -1) at the tent nodes (i + 1) r, i r, (i + 2) r.
    Tent values from ``basis_values`` at the grid points would each carry
    their own rounding, which the stepper's map amplifies to about 1e-12
    of its largest entry."""
    n, q = fs.n_features, fs.n_quad
    r = (q - 1) // (n + 1)
    d = fs.nu_diff / fs.space.h
    w = np.zeros((n, q))
    for i in range(n):
        for offset in range(-r, r + 1):
            w[i, (i + 1) * r + offset] = \
                (1.0 - abs(offset) / r) * (fs.c_field[0] / (q - 1))
        w[i, (i + 1) * r] += 2.0 * d
        w[i, i * r] -= d
        w[i, (i + 2) * r] -= d
    return w


def _dense_quad_eval(stepper):
    """The stepper's G x (N+M) grid evaluation matrix of a fem scheme,
    formed densely: the lattice weight rows against the pairwise kernel
    matrix of the grid, then the boundary columns."""
    fs, spec = stepper.features, stepper.cfg.kernel
    grid = fs.quad_points
    rows = _fem_lattice_weights(fs) @ kernels._pairwise(spec, grid, grid)
    return np.vstack([rows, kernels._pairwise(spec, fs.boundary_points,
                                              grid)]).T


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
    with pytest.raises(ValueError, match="bound 5;"):
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
        return project(GridFunction(traj.values[-1]), space).entries[0]

    e1 = abs(final_mode(1.0 / 64) - exact)
    e2 = abs(final_mode(1.0 / 128) - exact)
    order = np.log2(e1 / e2)
    assert 0.9 <= order <= 1.1


def test_boundary_values_vanish():
    path = build_path(4, 1.0 / 256, 4, 32)
    cfg = _sine_cfg(sigma=0.5, t_final=4.0 / 256)
    traj = integrate(cfg, path)
    assert np.max(np.abs(traj.values[:, 0])) <= 1e-8
    assert np.max(np.abs(traj.values[:, -1])) <= 1e-8


def test_integration_determinism():
    path = build_path(21, 1.0 / 256, 4, 32)
    cfg = _sine_cfg(sigma=0.1, t_final=4.0 / 256)
    t1 = integrate(cfg, path)
    t2 = integrate(cfg, path)
    assert np.array_equal(t1.values, t2.values)


def test_integrate_path_validation():
    cfg = _sine_cfg(sigma=0.1, t_final=4.0 / 256)
    with pytest.raises(ValueError):
        integrate(cfg, build_path(0, 1.0 / 256, 3, 32))
    with pytest.raises(ValueError):
        integrate(cfg, build_path(0, 1.0 / 128, 4, 32))


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


def _fem_measured(path: NoisePath, space) -> NoisePath:
    """A spectral path measured against fem tents by the exact cross gram."""
    return NoisePath(path.dt, space, path.records @ tent_sine_cross_gram(
        space, path.space.size).T)


def test_fem_measurement_path():
    # spectral increments measured on the fem basis through the exact cross
    # gram; just check a short noisy run stays finite and deterministic
    dt = 1.0 / 1024
    cfg = SpdeConfig(family="heat", nu=0.025, sigma=0.1, t_final=4 * dt,
                     dt=dt, space=build_test_space("fem1d", 16),
                     kernel=KernelSpec("matern52", 0.1), gamma=1e-10)
    path = _fem_measured(build_path(3, dt, 4, 64), cfg.space)
    t1 = integrate(cfg, path)
    t2 = integrate(cfg, path)
    assert np.all(np.isfinite(t1.values))
    assert np.array_equal(t1.values, t2.values)


def test_increments_must_be_measured_against_the_scheme_basis():
    # a sine path is not silently mapped to tents or truncated: both
    # integrate and step reject increments measured against another basis
    dt = 1.0 / 1024
    fem = SpdeConfig(family="heat", nu=0.025, sigma=0.1, t_final=4 * dt,
                     dt=dt, space=build_test_space("fem1d", 16),
                     kernel=KernelSpec("matern52", 0.1), gamma=1e-10)
    sine = _sine_cfg(sigma=0.1, t_final=4.0 / 256)
    for cfg, path in ((fem, build_path(3, dt, 4, 64)),
                      (sine, build_path(3, 1.0 / 256, 4, 64))):
        with pytest.raises(ValueError, match="increments measured"):
            integrate(cfg, path)
        u = np.zeros(cfg.n_quad)
        with pytest.raises(ValueError, match="increments measured"):
            Stepper(cfg).step(u, path.increment(0))


def test_fem_stored_measurements_match_projection():
    # the Stepper measures states with the tent projection matrix it formed
    # once; on the states of a run they must equal project() bit for bit
    dt = 1.0 / 1024
    cfg = SpdeConfig(family="allen_cahn", nu=0.025, sigma=0.1,
                     t_final=4 * dt, dt=dt,
                     space=build_test_space("fem1d", 16),
                     kernel=KernelSpec("matern52", 0.1), gamma=1e-10,
                     initial=GridFunction(np.sin(np.pi * grid_points(69))))
    traj = integrate(cfg, _fem_measured(build_path(5, dt, 4, 64),
                                        cfg.space))
    stepper = Stepper(cfg)
    for u in traj.values:
        want = project(GridFunction(u), cfg.space).entries
        assert np.array_equal(stepper.measure(u), want)


def test_fem_grid_too_coarse_for_the_tents_raises():
    # 17 grid points cannot resolve 8 tents (2 (N + 1) = 18 intervals);
    # 65 points, spacing 1/64, miss the tent nodes k/9
    for n_quad in (17, 65):
        cfg = SpdeConfig(family="heat", nu=0.025, sigma=0.0,
                         t_final=1.0 / 64, dt=1.0 / 64,
                         space=build_test_space("fem1d", 8), n_quad=n_quad)
        with pytest.raises(ResolutionTooCoarseError):
            Stepper(cfg)


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
    g = blocks.k_phi_phi
    nugget = 1e-10 * np.trace(g) / g.shape[0]
    g_chol = scipy.linalg.cholesky(g + nugget * np.eye(g.shape[0]),
                                   lower=True)
    stack = np.vstack([ctx.whiten(blocks.k_chi_phi),
                       np.sqrt(cfg.gamma) * g_chol.T])
    m = project(GridFunction(u), cfg.space).entries
    d = np.concatenate([ctx.whiten(m), np.zeros(g_chol.shape[0])])
    out = scipy.linalg.lapack.dgglse(stack, blocks.k_x_phi.copy(), d,
                                     np.zeros(2))
    assert out[-1] == 0
    ref = _dense_quad_eval(stepper) @ out[3]
    assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_fem_step_matches_per_step_projection():
    # the tent projection weights formed once give the step of projecting
    # the right-hand side by quadrature each step, then solving
    dt = 2.0 ** -10
    space = build_test_space("fem1d", 32)
    cfg = SpdeConfig(family="allen_cahn", nu=0.025, sigma=0.1, t_final=dt,
                     dt=dt, space=space, kernel=KernelSpec("matern52", 0.05),
                     gamma=1e-10)
    stepper = Stepper(cfg)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(cfg.n_quad)
    dxi = MeasurementVector(rng.standard_normal(space.size), space)
    got = stepper.step(u, dxi)

    rhs = u + dt * (u - u ** 3)
    x = grid_points(cfg.n_quad)
    m = basis_values(space, x) @ (trapezoid_weights(cfg.n_quad) * rhs)
    want = stepper.solution_map @ (m + cfg.sigma * dxi.entries)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("family, nu", [("heat", 0.025),
                                        ("allen_cahn", 1e-4)])
def test_solution_map_matches_dense_evaluation(family, nu):
    # the map formed from on_grid columns, at the heat and allen_cahn
    # defaults, against the dense evaluation matrix times the solved
    # coefficients; they differ by 8.3e-14 and 1.4e-13 of the largest
    # entry, the solver's coefficients reaching 7.5e5 and 2.0e6
    dt = 2.0 ** -10
    cfg = SpdeConfig(family=family, nu=nu, sigma=0.1, t_final=dt, dt=dt,
                     space=build_test_space("fem1d", 64),
                     kernel=KernelSpec("matern52", 0.05), gamma=1e-10)
    stepper = Stepper(cfg)
    coeffs = KKTSystem(stepper.ctx, stepper.blocks, cfg.gamma).solve(
        np.eye(cfg.space.size), np.zeros(2))
    want = _dense_quad_eval(stepper) @ coeffs
    assert stepper.solution_map.shape == want.shape
    assert np.max(np.abs(stepper.solution_map - want)) <= \
        1e-12 * np.max(np.abs(want))
