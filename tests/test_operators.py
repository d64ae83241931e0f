"""Tests for operator application, linearization, and the spectral Laplacian."""

import numpy as np
import pytest

from nessolve.operators import Linearization, OperatorSpec, apply, \
    laplacian, linearize
from nessolve.spaces import GridFunction, grid_points


def _mode(j, n=129):
    x = grid_points(n)
    return GridFunction(np.sqrt(2) * np.sin(np.pi * j * x))


def test_laplacian_eigenfunctions_1d():
    for j in (1, 3, 7):
        u = _mode(j)
        got = laplacian(u).values
        assert np.allclose(got, -(np.pi * j) ** 2 * u.values, atol=1e-9)


def test_laplacian_eigenfunctions_2d():
    n = 65
    x = grid_points(n)
    u = GridFunction(2.0 * np.outer(np.sin(np.pi * 2 * x),
                                    np.sin(np.pi * 3 * x)))
    got = laplacian(u).values
    lam = np.pi ** 2 * (4 + 9)
    assert np.allclose(got, -lam * u.values, atol=1e-8)


def test_apply_linear_elliptic():
    nu = 0.01
    op = OperatorSpec("linear_elliptic", nu)
    u = _mode(1)
    got = apply(op, u).values
    assert np.allclose(got, (nu * np.pi ** 2 + 1.0) * u.values, atol=1e-10)


def test_apply_semilinear():
    op = OperatorSpec("semilinear_sine", 0.1)
    zero = GridFunction(np.zeros(65))
    assert np.allclose(apply(op, zero).values, 0.0)
    u = _mode(2)
    got = apply(op, u).values
    expect = (0.1 * 4 * np.pi ** 2 + 1.0) * u.values + \
        np.sin(np.pi * u.values)
    assert np.allclose(got, expect, atol=1e-9)


def test_spec_validation():
    with pytest.raises(ValueError):
        OperatorSpec("biharmonic", 1.0)
    with pytest.raises(ValueError):
        OperatorSpec("linear_elliptic", 0.0)
    assert OperatorSpec("semilinear_sine", 1.0).is_linear is False
    assert OperatorSpec("linear_elliptic", 1.0).is_linear is True


def test_linearize_linear_families():
    op = OperatorSpec("linear_elliptic", 0.5)
    lin = linearize(op, _mode(2))
    assert np.allclose(lin.c_field.values, 1.0)
    assert np.allclose(lin.shift.values, 0.0)
    assert lin.nu_diff == pytest.approx(op.nu_diff)


def test_linearize_semilinear_coefficient():
    op = OperatorSpec("semilinear_sine", 0.1)
    lin0 = linearize(op, GridFunction(np.zeros(33)))
    assert np.allclose(lin0.c_field.values, 1.0 + np.pi)
    assert np.allclose(lin0.shift.values, 0.0)
    u = GridFunction(np.full(33, 0.37))
    lin = linearize(op, u)
    assert np.allclose(lin.c_field.values,
                       1.0 + np.pi * np.cos(np.pi * 0.37))
    assert np.allclose(lin.shift.values,
                       np.pi * 0.37 * np.cos(np.pi * 0.37) -
                       np.sin(np.pi * 0.37))


def test_linearization_taylor_remainder_order():
    # ||P(u+h v) - P(u) - h P'(u) v|| must shrink at order >= 1.9 in h
    op = OperatorSpec("semilinear_sine", 0.1)
    n = 129
    x = grid_points(n)
    u = GridFunction(0.8 * np.sin(np.pi * x) ** 2 * 0 +
                     0.6 * np.sqrt(2) * np.sin(np.pi * x))
    v = GridFunction(np.sqrt(2) * np.sin(2 * np.pi * x) +
                     0.5 * np.sqrt(2) * np.sin(3 * np.pi * x))
    lin = linearize(op, u)
    base = apply(op, u).values

    def remainder(h):
        pert = GridFunction(u.values + h * v.values)
        linear_pred = base + h * (
            -op.nu_diff * laplacian(v).values + lin.c_field.values * v.values)
        return np.max(np.abs(apply(op, pert).values - linear_pred))

    h1, h2 = 1e-2, 1e-3
    order = np.log10(remainder(h1) / remainder(h2))
    assert order >= 1.9


def test_linearization_rejects_nonfinite():
    with pytest.raises(ValueError):
        Linearization(GridFunction(np.array([1.0, np.nan, 1.0])), 0.1,
                      GridFunction(np.zeros(3)))
