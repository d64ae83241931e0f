"""Tests for error metrics and rate fitting."""

import tracemalloc

import numpy as np
import pytest

from nessolve.metrics import fit_rate, l2_norm, rel_l2_error, sup_error, \
    space_time_l2_error
from nessolve.spaces import GridFunction, build_test_space, grid_points, \
    trapezoid_weights
from nessolve.spde import Trajectory


def test_l2_norm_closed_forms():
    x = grid_points(257)
    assert l2_norm(np.sqrt(2) * np.sin(np.pi * x)) == pytest.approx(1.0,
                                                                    abs=1e-10)
    assert l2_norm(np.zeros(9)) == 0.0
    # 2D: product of two orthonormal sine factors
    u = 2.0 * np.outer(np.sin(np.pi * x), np.sin(2 * np.pi * x))
    assert l2_norm(u) == pytest.approx(1.0, abs=1e-10)


def test_rel_l2_error_basic():
    v = np.sqrt(2) * np.sin(np.pi * grid_points(129))
    assert rel_l2_error(v, v) == 0.0
    assert rel_l2_error(1.1 * v, v) == pytest.approx(0.1, rel=1e-10)
    with pytest.raises(ValueError):
        rel_l2_error(np.zeros(5), np.zeros(9))
    with pytest.raises(ValueError):
        rel_l2_error(v, np.zeros_like(v))


def test_rel_l2_error_parseval_oracle():
    # for truncated sine series the error equals the coefficient-space
    # distance exactly (uniform-grid quadrature is alias-free here)
    rng = np.random.default_rng(6)
    a = rng.standard_normal(5)
    b = rng.standard_normal(5)
    sp = build_test_space("sine1d", 5)
    from nessolve.spaces import synthesize
    u = synthesize(a, sp, 257)
    v = synthesize(b, sp, 257)
    expect = np.linalg.norm(a - b) / np.linalg.norm(b)
    assert rel_l2_error(u, v) == pytest.approx(expect, abs=1e-10)


def test_sup_error():
    u = np.array([0.0, 1.0, -2.0])
    v = np.array([0.5, 1.0, -1.0])
    assert sup_error(u, v) == pytest.approx(1.0)
    assert sup_error(GridFunction(u), GridFunction(u)) == 0.0
    with pytest.raises(ValueError):
        sup_error(u, np.zeros(4))


def _traj(times, values):
    return Trajectory(np.asarray(times, float), np.asarray(values, float))


def test_space_time_l2_error():
    t = np.linspace(0, 1, 5)
    base = np.outer(np.ones(5), np.sin(np.pi * grid_points(33))) + 2.0
    a = _traj(t, base)
    assert space_time_l2_error(a, _traj(t, base)) == 0.0
    # a constant offset gives exactly offset / reference norm
    off = _traj(t, base + 0.5)
    expect = 0.5 / np.sqrt(np.mean(
        np.trapezoid(base[0] ** 2, grid_points(33))))
    got = space_time_l2_error(off, a)
    assert got == pytest.approx(0.5 / np.sqrt(
        np.trapezoid(base[0] ** 2, grid_points(33))), rel=1e-10)


def test_space_time_subset_alignment():
    fine_t = np.linspace(0, 1, 9)
    fine = _traj(fine_t, np.tile(np.sin(np.pi * grid_points(17)) + 1.5,
                                 (9, 1)))
    coarse = _traj(fine_t[::4], fine.values[::4])
    assert space_time_l2_error(coarse, fine) == pytest.approx(0.0, abs=1e-14)
    bad = _traj(np.array([0.0, 0.3, 1.0]), fine.values[:3])
    with pytest.raises(ValueError):
        space_time_l2_error(bad, fine)


def _whole_array_error(coarse, fine):
    # the formula on whole arrays: the aligned reference rows copied out,
    # then squared differences and squares of the same size
    idx = np.searchsorted(fine.times, coarse.times)
    va, vb = coarse.values, fine.values[idx]
    wt = trapezoid_weights(len(idx)) * (coarse.times[-1] - coarse.times[0])
    wx = trapezoid_weights(va.shape[1])
    return float(np.sqrt((wt @ ((va - vb) ** 2 @ wx)) /
                         (wt @ (vb ** 2 @ wx))))


def _random_pair(n_coarse, n_points, refine):
    # coarse stamps every ``refine``-th fine one
    rng = np.random.default_rng(n_coarse)
    fine_t = np.linspace(0.0, 1.0, (n_coarse - 1) * refine + 1)
    fine = _traj(fine_t, rng.standard_normal((len(fine_t), n_points)))
    coarse = _traj(fine_t[::refine],
                   rng.standard_normal((n_coarse, n_points)))
    return coarse, fine


@pytest.mark.parametrize("n_coarse, n_points, refine",
                         [(5, 9, 1), (129, 33, 2), (513, 261, 4)])
def test_space_time_error_in_row_blocks_is_the_whole_array_formula(
        n_coarse, n_points, refine):
    coarse, fine = _random_pair(n_coarse, n_points, refine)
    want = _whole_array_error(coarse, fine)
    assert space_time_l2_error(coarse, fine) == want
    if refine > 1:
        assert space_time_l2_error(fine, coarse) == want


def test_space_time_error_forms_no_trajectory_sized_array():
    coarse, fine = _random_pair(513, 261, 4)
    tracemalloc.start()
    try:
        space_time_l2_error(coarse, fine)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < coarse.values.nbytes, f"peak {peak / 2 ** 20:.2f} MiB"


def test_fit_rate():
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    slope, intercept, r2 = fit_rate(xs, 3.0 * xs ** 2)
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert np.exp(intercept) == pytest.approx(3.0, rel=1e-12)
    assert r2 == pytest.approx(1.0)
    slope, _, _ = fit_rate(xs, np.sqrt(xs))
    assert slope == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        fit_rate([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_rate([1.0, 2.0, -3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fit_rate([1.0, 2.0, 3.0], [1.0, 0.0, 3.0])
