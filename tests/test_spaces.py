"""Tests for test-space construction, Gram matrices, and transforms."""

import tracemalloc

import numpy as np
import pytest
from scipy.fft import dst

from nessolve.errors import ResolutionTooCoarseError, UnsupportedExponentError
from nessolve.spaces import GridFunction, MeasurementVector, \
    build_test_space, grid_points, mass_matrix, project, stiffness_matrix, \
    synthesize, trapezoid_weights
from nessolve import spaces


def _fine_quadrature(n=20001):
    x = grid_points(n)
    w = trapezoid_weights(n)
    return x, w


@pytest.mark.parametrize("n", [5, 7, 9, 10, 15, 25])
def test_gregory_weights_exact_to_degree_five(n):
    # the end corrections, overlapping and added below 10 points, keep the
    # rule exact for polynomials of degree 5 on every grid of at least 5
    # points; degree 6 is not integrated exactly
    x = grid_points(n)
    w = spaces.gregory_weights(n)
    for d in range(6):
        assert abs(w @ x ** d - 1.0 / (d + 1)) <= 1e-14
    assert abs(w @ x ** 6 - 1.0 / 7) > 1e-8
    assert np.array_equal(spaces.gregory_weights(n, 2), np.outer(w, w).ravel())


def test_gregory_weights_sixth_order_and_need_five_points():
    # halving the spacing cuts the error on a smooth integrand whose slope
    # does not vanish at the ends about 2^6-fold (55-fold here), where the
    # trapezoid rule gains 4-fold
    exact = np.expm1(1.0)
    for rule, gain in ((spaces.gregory_weights, 40.0),
                       (trapezoid_weights, 3.9)):
        errs = [abs(rule(m) @ np.exp(grid_points(m)) - exact)
                for m in (21, 41)]
        assert errs[0] / errs[1] >= gain
    with pytest.raises(ResolutionTooCoarseError, match="5"):
        spaces.gregory_weights(4)


def test_sine2d_default_grid():
    # 5p/2 + 5 points, with q - 1 raised to a fast FFT length: only p = 64
    # of these moves (164 = 4 * 41 -> 165)
    got = {p: spaces.default_n_quad(build_test_space("sine2d", n_per_dim=p))
           for p in (1, 4, 8, 16, 20, 32, 64)}
    assert got == {1: 7, 4: 15, 8: 25, 16: 45, 20: 55, 32: 85, 64: 166}


def test_sine1d_basis_values():
    sp = build_test_space("sine1d", 4)
    x = np.array([0.0, 0.25, 0.5, 1.0])
    phi = spaces.basis_values(sp, x)
    for j in range(1, 5):
        assert np.allclose(phi[j - 1],
                           np.sqrt(2.0) * np.sin(np.pi * j * x), atol=1e-14)
    # vanishes on the boundary
    assert np.allclose(phi[:, [0, -1]], 0.0, atol=1e-12)


def test_sine1d_basis_values_reduce_the_argument_exactly():
    # on a grid of 2^p + 1 points the sines agree with long-double sines of
    # exactly reduced arguments to a few rounding errors at every mode,
    # where sin(pi j x) would carry an argument error growing with j
    n, q = 512, 1025
    phi = spaces.basis_values(build_test_space("sine1d", n), grid_points(q))
    ld = np.longdouble
    j = np.arange(1, n + 1)[:, None]
    k = np.arange(q)[None, :]
    exact = np.sqrt(ld(2)) * np.sin(4 * np.arctan(ld(1)) *
                                    ((j * k) % (2 * (q - 1))) / (q - 1))
    assert np.max(np.abs(phi - exact)) <= 2e-15


def test_fem1d_nodes_and_tents():
    sp = build_test_space("fem1d", 3)
    assert sp.h == pytest.approx(0.25)
    phi = spaces.basis_values(sp, np.array([0.25, 0.5, 0.75]))
    assert np.allclose(phi, np.eye(3), atol=1e-14)
    # tent support and slope
    phi_mid = spaces.basis_values(sp, np.array([0.375]))
    assert np.allclose(phi_mid.ravel(), [0.5, 0.5, 0.0])


def test_sine2d_basis_values():
    sp = build_test_space("sine2d", n_per_dim=2)
    assert sp.size == 4
    pts = np.array([[0.25, 0.75]])
    phi = spaces.basis_values(sp, pts).ravel()
    expect = [2.0 * np.sin(np.pi * i * 0.25) * np.sin(np.pi * j * 0.75)
              for i in (1, 2) for j in (1, 2)]
    assert np.allclose(phi, expect, atol=1e-14)


def test_build_errors():
    with pytest.raises(ValueError):
        build_test_space("sine1d", 0)
    with pytest.raises(ValueError):
        build_test_space("sine2d", size=5)
    with pytest.raises(ValueError):
        build_test_space("hermite", 4)


def test_stiffness_sine_eigenvalues():
    sp = build_test_space("sine1d", 2)
    assert np.allclose(stiffness_matrix(sp, 1.0),
                       np.diag([np.pi ** 2, 4 * np.pi ** 2]), rtol=1e-14)
    sp3 = build_test_space("sine1d", 3)
    assert np.allclose(stiffness_matrix(sp3, 0.5),
                       np.diag([np.pi, 2 * np.pi, 3 * np.pi]), rtol=1e-14)
    # s = 0 reduces to the mass matrix (identity for orthonormal sines)
    assert np.allclose(stiffness_matrix(sp3, 0.0), np.eye(3))
    assert np.allclose(stiffness_matrix(build_test_space("fem1d", 4), 0.0),
                       mass_matrix(build_test_space("fem1d", 4)))


def test_stiffness_spd_and_minimum_eigenvalue():
    for sp, s in [(build_test_space("sine1d", 5), 1.3),
                  (build_test_space("sine2d", n_per_dim=3), 0.7),
                  (build_test_space("fem1d", 6), 1.0)]:
        a = stiffness_matrix(sp, s)
        assert np.allclose(a, a.T)
        assert np.linalg.eigvalsh(a).min() > 0
    sp = build_test_space("sine1d", 4)
    for s in (0.5, 1.0, 2.0):
        assert np.linalg.eigvalsh(stiffness_matrix(sp, s)).min() == \
            pytest.approx(np.pi ** (2 * s), rel=1e-12)


def _tent_derivatives(space, points):
    """First derivatives of the fem1d tents at 1D points, shape (N, P); at
    the kinks the left limit."""
    nodes = (np.arange(1, space.size + 1) * space.h)[:, None]
    d = np.asarray(points, dtype=float)[None, :] - nodes
    out = np.zeros_like(d)
    out[(d > -space.h) & (d <= 0)] = 1.0 / space.h
    out[(d > 0) & (d < space.h)] = -1.0 / space.h
    return out


def test_fem_stiffness_matches_quadrature():
    # midpoint rule on a node-aligned grid is exact for the piecewise
    # constant tent derivatives
    sp = build_test_space("fem1d", 3)
    edges = np.linspace(0.0, 1.0, 20001)
    mid = 0.5 * (edges[:-1] + edges[1:])
    dphi = _tent_derivatives(sp, mid)
    oracle = (dphi / mid.shape[0]) @ dphi.T
    assert np.allclose(stiffness_matrix(sp, 1.0), oracle, atol=1e-10)


def test_fem_fractional_exponent_rejected():
    with pytest.raises(UnsupportedExponentError):
        stiffness_matrix(build_test_space("fem1d", 3), 0.5)


def test_mass_matrices():
    assert np.allclose(mass_matrix(build_test_space("sine1d", 6)), np.eye(6))
    assert np.allclose(mass_matrix(build_test_space("sine2d", n_per_dim=2)),
                       np.eye(4))
    m = mass_matrix(build_test_space("fem1d", 3))
    expect = np.diag([1 / 6] * 3) + np.diag([1 / 24] * 2, 1) + \
        np.diag([1 / 24] * 2, -1)
    assert np.allclose(m, expect, atol=1e-14)
    # independent quadrature oracle
    sp = build_test_space("fem1d", 3)
    x, w = _fine_quadrature()
    phi = spaces.basis_values(sp, x)
    assert np.allclose(m, (phi * w) @ phi.T, atol=1e-9)


def test_project_orthonormality():
    sp = build_test_space("sine1d", 4)
    x = grid_points(257)
    one_mode = project(GridFunction(np.sqrt(2) * np.sin(np.pi * x)), sp)
    assert np.allclose(one_mode.entries, [1, 0, 0, 0], atol=1e-12)
    assert np.allclose(project(GridFunction(np.zeros(257)), sp).entries, 0.0)
    sp3 = build_test_space("sine1d", 3)
    f = np.sqrt(2) * np.sin(2 * np.pi * x) + 3 * np.sqrt(2) * \
        np.sin(3 * np.pi * x)
    assert np.allclose(project(GridFunction(f), sp3).entries, [0, 1, 3],
                       atol=1e-12)


def test_fem_projection_quadrature_oracle():
    sp = build_test_space("fem1d", 4)
    x = grid_points(2001)
    f = np.sin(np.pi * x) * (1 + x)
    got = project(GridFunction(f), sp).entries
    xq, wq = _fine_quadrature()
    fq = np.sin(np.pi * xq) * (1 + xq)
    oracle = spaces.basis_values(sp, xq) @ (wq * fq)
    assert np.allclose(got, oracle, atol=1e-6)


def test_synthesize_and_round_trip():
    sp = build_test_space("sine1d", 5)
    g = synthesize(np.array([1, 0, 0, 0, 0.0]), sp, 101)
    assert np.allclose(g.values, np.sqrt(2) * np.sin(np.pi * grid_points(101)),
                       atol=1e-12)
    rng = np.random.default_rng(0)
    c = rng.standard_normal(5)
    back = project(synthesize(c, sp, 64), sp).entries
    assert np.allclose(back, c, atol=1e-12)
    sp2 = build_test_space("sine2d", n_per_dim=3)
    c2 = rng.standard_normal(9)
    back2 = project(synthesize(c2, sp2, 32), sp2).entries
    assert np.allclose(back2, c2, atol=1e-12)


def test_fem_synthesize_is_nodal_interpolant():
    sp = build_test_space("fem1d", 3)
    c = np.array([0.5, -1.0, 2.0])
    g = synthesize(c, sp, 9)
    # grid points 0, 1/8, ..., 1 hit the nodes 1/4, 1/2, 3/4 exactly
    assert np.allclose(g.values[[2, 4, 6]], c)
    assert g.values[0] == 0.0 and g.values[-1] == 0.0
    # piecewise linear in between
    assert g.values[1] == pytest.approx(0.25)


def test_resolution_guards():
    sp = build_test_space("sine1d", 100)
    with pytest.raises(ResolutionTooCoarseError):
        project(GridFunction(np.zeros(50)), sp)
    with pytest.raises(ResolutionTooCoarseError):
        synthesize(np.zeros(100), sp, 50)
    with pytest.raises(ResolutionTooCoarseError):
        project(GridFunction(np.zeros(8)), build_test_space("fem1d", 16))


def test_projection_grid_refinement_order():
    # smooth non-polynomial field: trapezoid/DST projection converges at
    # order >= 2 under grid doubling
    sp = build_test_space("sine1d", 3)
    j = np.arange(1, 4)
    exact = np.sqrt(2) * 2 * (1 - np.cos(np.pi * j)) / (np.pi * j) ** 3

    def err(g):
        x = grid_points(g)
        got = project(GridFunction(x * (1 - x)), sp).entries
        return np.max(np.abs(got - exact))

    e1, e2 = err(65), err(129)
    assert e1 / e2 >= 3.0


def test_measurement_vector_validation():
    sp = build_test_space("sine1d", 3)
    with pytest.raises(ValueError):
        MeasurementVector(np.zeros(4), sp)


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        GridFunction(np.zeros((2, 2, 2)))


def test_stacked_sine_synthesis_matches_rows():
    # one DST-I along the last axis gives the bits of row-by-row synthesis
    coeffs = np.random.default_rng(4).standard_normal((1025, 255))
    space = build_test_space("sine1d", 255)
    want = np.stack([synthesize(row, space, 513).values for row in coeffs])
    assert np.array_equal(spaces.sine_synthesis(coeffs, 513), want)
    with pytest.raises(ResolutionTooCoarseError):
        spaces.sine_synthesis(coeffs, 256)


def test_sine_synthesis_holds_one_array_besides_its_result():
    # a default heat history: 1025 stored steps of the 259 modes its
    # 261-point grid carries.  The DST-I runs in place over the padded
    # coefficients and is scaled straight into the result, so the peak is
    # the pad and the result (4.13 MiB here; three output-size arrays
    # besides the result read 6.09 MiB)
    coeffs = np.random.default_rng(5).standard_normal((1025, 259))
    tracemalloc.start()
    try:
        out = spaces.sine_synthesis(coeffs, 261)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.nbytes == 1025 * 261 * 8
    assert peak < 2.2 * out.nbytes


@pytest.mark.parametrize("p, n_points", [(3, 9), (16, 65), (20, 43)])
def test_sine2d_transforms_match_the_full_two_axis_dst(p, n_points):
    # synthesize and project transform only the rows and columns that carry
    # modes; the bits are those of both DST-I passes over the whole grid
    rng = np.random.default_rng(p)
    space = build_test_space("sine2d", n_per_dim=p)
    c = rng.standard_normal((p, p))
    n = n_points - 1
    pad = np.zeros((n - 1, n - 1))
    pad[:p, :p] = c
    want = np.zeros((n_points, n_points))
    want[1:-1, 1:-1] = dst(dst(pad, type=1, axis=0), type=1, axis=1) / 2.0
    assert np.array_equal(synthesize(c.ravel(), space, n_points).values,
                          want)
    v = rng.standard_normal((n_points, n_points))
    full = dst(dst(v[1:-1, 1:-1], type=1, axis=0), type=1, axis=1)
    assert np.array_equal(project(GridFunction(v), space).entries,
                          (full[:p, :p] / (2.0 * n * n)).ravel())
