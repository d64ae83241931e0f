"""Tests for the independent ground-truth generators."""

import tracemalloc

import numpy as np
import pytest
from scipy.fft import dst

from nessolve import experiments, operators, reference
from nessolve.noise import build_path, stream
from nessolve.noise import increment_blocks
from nessolve.reference import closed_form_elliptic_1d, \
    manufactured_semilinear_2d, spectral_galerkin_spde, stepped_modes
from nessolve.spaces import GridFunction, MeasurementVector, \
    build_test_space, project, synthesize


def test_closed_form_elliptic_values():
    nu = 0.01
    u = closed_form_elliptic_1d(np.array([1.0, 0.0, 0.0]), nu)
    assert u.entries[0] == pytest.approx(1.0 / (nu * np.pi ** 2 + 1.0),
                                         rel=1e-14)
    assert np.allclose(u.entries[1:], 0.0)
    assert np.allclose(closed_form_elliptic_1d(np.zeros(4), 1.0).entries, 0.0)
    # measurement-vector input keeps its space
    sp = build_test_space("sine1d", 5)
    mv = MeasurementVector(np.ones(5), sp)
    out = closed_form_elliptic_1d(mv, 0.5)
    assert out.space.size == 5
    j = np.arange(1, 6)
    assert np.allclose(out.entries, 1.0 / (0.5 * (np.pi * j) ** 2 + 1.0))


def test_closed_form_operator_round_trip():
    # applying the elliptic operator to the synthesized solution returns
    # the forcing coefficients
    rng = np.random.default_rng(1)
    n = 8
    sp = build_test_space("sine1d", n)
    xi = rng.standard_normal(n)
    nu = 0.3
    u = closed_form_elliptic_1d(xi, nu)
    u_grid = synthesize(u.entries, sp, 65)
    back = project(operators.apply(
        operators.OperatorSpec("linear_elliptic", nu), u_grid), sp).entries
    assert np.allclose(back, xi, atol=1e-10)


def test_manufactured_semilinear_single_mode():
    eps, nu, seed = 0.5, 0.1, 3
    u_star, xi, coeffs = manufactured_semilinear_2d(eps, 1, seed, nu)
    c = stream(seed).standard_normal((1, 1))[0, 0] / 2.0 ** (1 + eps)
    assert coeffs.space.kind == "sine2d" and coeffs.space.n_per_dim == 1
    assert np.array_equal(coeffs.entries, [c])
    x = np.linspace(0, 1, u_star.values.shape[0])
    mode = 2.0 * np.outer(np.sin(np.pi * x), np.sin(np.pi * x))
    assert np.allclose(u_star.values, c * mode, atol=1e-12)
    expect = (2 * nu * np.pi ** 2 + 1.0) * c * mode + np.sin(np.pi * c * mode)
    assert np.allclose(xi.values, expect, atol=1e-9)


def test_manufactured_determinism_and_validation():
    a1, b1, c1 = manufactured_semilinear_2d(0.15, 4, 7, 0.1)
    a2, b2, c2 = manufactured_semilinear_2d(0.15, 4, 7, 0.1)
    assert np.array_equal(a1.values, a2.values)
    assert np.array_equal(b1.values, b2.values)
    assert np.array_equal(c1.entries, c2.entries)
    a3, _, _ = manufactured_semilinear_2d(0.15, 4, 8, 0.1)
    assert not np.array_equal(a1.values, a3.values)
    with pytest.raises(ValueError):
        manufactured_semilinear_2d(0.15, 0, 1, 0.1)
    with pytest.raises(ValueError):
        manufactured_semilinear_2d(-0.1, 4, 1, 0.1)


@pytest.mark.parametrize("n_quad", [129, 41])
def test_manufactured_truth_from_drawn_coefficients(n_quad):
    # the truth synthesized from the drawn coefficients matches the one
    # recovered by projecting u* back onto its L x L modes, both on a grid
    # that carries every mode and on one that cuts the series
    L = 48
    u_star, _, coeffs = manufactured_semilinear_2d(0.15, L, 7, 0.1)
    n_keep = min(L, n_quad - 2)
    keep = build_test_space("sine2d", n_per_dim=n_keep)
    full = project(u_star, build_test_space("sine2d", n_per_dim=L))
    want = synthesize(full.entries.reshape(L, L)[:n_keep, :n_keep].ravel(),
                      keep, n_quad).values
    got = experiments._truth_on_grid(coeffs, n_quad).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _still(n_steps, L):
    """Zero increments for a noise-free run, as one block."""
    return [np.zeros((n_steps, L))]


def test_spectral_heat_recurrence_exact():
    nu, dt, L = 0.5, 0.01, 6
    init = np.zeros(L)
    init[0] = 0.8
    _, coeffs = spectral_galerkin_spde("heat", nu, 0.0, dt, L, 10 * dt,
                                       _still(10, L), initial=init)
    denom = 1.0 + dt * nu * np.pi ** 2
    for k in range(11):
        assert coeffs[k, 0] == pytest.approx(0.8 / denom ** k, rel=1e-12)
    assert np.allclose(coeffs[:, 1:], 0.0)


def test_spectral_noisy_heat_recurrence():
    nu, dt, L, sigma = 0.2, 0.05, 4, 0.3
    path = build_path(13, dt, 8, L)
    _, coeffs = spectral_galerkin_spde("heat", nu, sigma, dt, L, 8 * dt,
                                       [path.records])
    a = np.zeros(L)
    lam = (np.pi * np.arange(1, L + 1)) ** 2
    for k in range(8):
        a = (a + sigma * path.records[k]) / (1.0 + dt * nu * lam)
        assert np.allclose(coeffs[k + 1], a, atol=1e-13)


def test_spectral_allen_cahn_relaxation():
    # smooth positive initial data relaxes toward the +1 well without
    # blowing up; the sup norm ends within 2% of 1
    L = 64
    j = np.arange(1, L + 1)
    init = np.where(j % 2 == 1, np.sqrt(2.0) / (np.pi * j), 0.0)  # u0 = 0.5
    traj, _ = spectral_galerkin_spde("allen_cahn", 1e-3, 0.0, 1.0 / 256, L,
                                     4.0, _still(1024, L), initial=init,
                                     store_every=16)
    assert np.all(np.isfinite(traj.values))
    sup = np.abs(traj.values[-1]).max()
    assert 0.98 <= sup <= 1.02


def test_spectral_determinism():
    path = build_path(5, 0.01, 10, 8)
    t1, c1 = spectral_galerkin_spde("heat", 0.1, 0.2, 0.01, 8, 0.1,
                                    [path.records])
    t2, c2 = spectral_galerkin_spde("heat", 0.1, 0.2, 0.01, 8, 0.1,
                                    [path.records])
    assert np.array_equal(t1.values, t2.values)
    assert np.array_equal(c1, c2)


def test_spectral_validation():
    with pytest.raises(ValueError):
        spectral_galerkin_spde("wave", 0.1, 0.0, 0.01, 4, 0.1, _still(10, 4))
    with pytest.raises(ValueError):
        spectral_galerkin_spde("heat", 0.1, 0.0, 0.03, 4, 0.1, _still(10, 4))
    with pytest.raises(ValueError):
        spectral_galerkin_spde("heat", 0.1, 0.0, 0.01, 4, 0.1, _still(10, 4),
                               store_every=3)
    with pytest.raises(ValueError):
        spectral_galerkin_spde("heat", 0.1, 0.0, 0.01, 4, 0.1,
                               [build_path(0, 0.01, 5, 4).records])
    with pytest.raises(ValueError):
        spectral_galerkin_spde(
            "heat", 0.1, 0.0, 0.01, 4, 0.1,
            [build_path(0, 0.01, 10, 2).records])
    with pytest.raises(ValueError):
        spectral_galerkin_spde("heat", 0.1, 0.0, 0.01, 4, 0.1, _still(10, 4),
                               initial=np.zeros(3))


def test_tail_truncation_on_coarse_grids():
    # grid values and the coefficient history keep only the
    # min(L, n_grid - 2) = 15 modes the grid carries
    L = 32
    init = np.zeros(L)
    init[-1] = 1.0
    init[14] = 0.5
    traj, coeffs = spectral_galerkin_spde("heat", 0.1, 0.0, 0.01, L, 0.02,
                                          _still(2, L), initial=init,
                                          n_grid=17)
    assert traj.values.shape[1] == 17
    assert coeffs.shape == (3, 15)
    assert coeffs[0, -1] == 0.5 and np.all(coeffs[0, :-1] == 0.0)
    # mode 32 is invisible at 17 points: only mode 15 is synthesized
    want = 0.5 * np.sqrt(2.0) * np.sin(15 * np.pi * np.linspace(0, 1, 17))
    assert np.allclose(traj.values[0], want, rtol=0.0, atol=1e-14)


def test_history_holds_only_the_output_grid_modes():
    # L = 2048 modes over 256 stored steps on a 261-point grid: the history
    # keeps 259 columns (0.5 MiB), not all 2048 (4 MiB)
    L, n_steps = 2048, 256
    tracemalloc.start()
    try:
        traj, coeffs = spectral_galerkin_spde(
            "heat", 0.01, 0.1, 1.0 / n_steps, L, 1.0,
            increment_blocks(1, 1.0 / n_steps, n_steps, L, 16),
            n_grid=261)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert coeffs.shape == (n_steps + 1, 259)
    assert traj.values.shape == (n_steps + 1, 261)
    assert peak <= 3 * 2 ** 20


def _drift_on_grid(a, n_points):
    """Allen-Cahn drift coefficients with u - u^3 sampled on n_points."""
    space = build_test_space("sine1d", a.shape[0])
    u = synthesize(a, space, n_points).values
    return project(GridFunction(u - u ** 3), space).entries


def _smooth_initial(L):
    j = np.arange(1, L + 1)
    return np.random.default_rng(L).standard_normal(L) / j


@pytest.mark.parametrize("L", [64, 2048])
def test_allen_cahn_drift_on_five_smooth_grid(L, monkeypatch):
    # one step with nu = sigma = 0 and dt = 1 gives a_1 = a_0 + fhat, so the
    # reference's drift can be read off and set against the drift on the
    # 2L + 3 point grid; the dealiasing grid must have a 5-smooth number of
    # intervals, at least 2L + 1 of them
    sizes = []

    def recording_synthesize(coeffs, space, n_points):
        sizes.append(n_points)
        return synthesize(coeffs, space, n_points)

    monkeypatch.setattr(reference, "synthesize", recording_synthesize)
    a0 = _smooth_initial(L)
    traj, coeffs = spectral_galerkin_spde("allen_cahn", 0.0, 0.0, 1.0, L,
                                          1.0, _still(1, L), initial=a0)
    n_intervals = sizes[0] - 1
    assert n_intervals >= 2 * L + 1
    for p in (2, 3, 5):
        while n_intervals % p == 0:
            n_intervals //= p
    assert n_intervals == 1
    got = coeffs[1] - a0
    want = _drift_on_grid(a0, 2 * L + 3)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    # the default output grid keeps its 2L + 3 columns
    assert traj.values.shape == (2, 2 * L + 3)


def test_allen_cahn_drift_aliases_on_2L_intervals():
    # with only 2L intervals mode 3L of the cube folds onto mode L (and
    # only there), which the comparison above would catch; project()
    # refuses so coarse a grid, so the sine transform is taken here
    L = 64
    a0 = _smooth_initial(L)
    want = _drift_on_grid(a0, 2 * L + 3)
    n = 2 * L
    u = synthesize(a0, build_test_space("sine1d", L), n + 1).values
    aliased = dst((u - u ** 3)[1:-1], type=1)[:L] * (np.sqrt(2.0) / (2 * n))
    scale = np.linalg.norm(want)
    assert np.abs(aliased[:-1] - want[:-1]).max() <= 1e-13 * scale
    # the alias moves mode L by 3.7e-7, far outside the 1e-13 above
    assert abs(aliased[-1] - want[-1]) >= 1e-9 * scale


@pytest.mark.parametrize("family", ["heat", "allen_cahn"])
def test_streamed_blocks_step_like_the_materialized_path(family):
    # blocks of a wider path drive the first L modes exactly as the whole
    # materialized path does as one block
    dt, L, n_steps = 1.0 / 64, 8, 16
    init = _smooth_initial(L)
    want, want_coeffs = spectral_galerkin_spde(
        family, 0.05, 0.3, dt, L, n_steps * dt,
        [build_path(3, dt, n_steps, 12).records],
        initial=init, store_every=4)
    got, got_coeffs = spectral_galerkin_spde(
        family, 0.05, 0.3, dt, L, n_steps * dt,
        increment_blocks(3, dt, n_steps, 12, 4),
        initial=init, store_every=4)
    assert np.array_equal(got_coeffs, want_coeffs)
    assert np.array_equal(got.values, want.values)


@pytest.mark.parametrize("family", ["heat", "allen_cahn"])
def test_blocks_need_only_the_stepped_modes(family):
    # heat on an 11-point grid steps the 9 modes it carries, Allen-Cahn all
    # L = 12: rows exactly that wide drive the same trajectory as rows of
    # L, and rows one narrower are refused
    dt, L, n_steps, n_grid = 1.0 / 64, 12, 16, 11
    n_step = stepped_modes(family, L, n_grid)
    assert n_step == (9 if family == "heat" else L)

    def run(records):
        return spectral_galerkin_spde(
            family, 0.05, 0.3, dt, L, n_steps * dt, [records],
            initial=_smooth_initial(L), store_every=4, n_grid=n_grid)

    want, want_coeffs = run(build_path(3, dt, n_steps, L).records)
    got, got_coeffs = run(build_path(3, dt, n_steps, n_step).records)
    assert np.array_equal(got_coeffs, want_coeffs)
    assert np.array_equal(got.values, want.values)
    with pytest.raises(ValueError, match="fewer modes"):
        run(build_path(3, dt, n_steps, n_step - 1).records)


def test_streamed_path_validation():
    def run(blocks):
        spectral_galerkin_spde("heat", 0.1, 0.1, 0.01, 4, 0.1, blocks)

    with pytest.raises(ValueError):      # too few steps
        run(increment_blocks(0, 0.01, 9, 4, 3))
    with pytest.raises(ValueError):      # too many steps
        run(increment_blocks(0, 0.01, 11, 4, 5))
    with pytest.raises(ValueError):      # too few modes
        run(increment_blocks(0, 0.01, 10, 3, 5))
