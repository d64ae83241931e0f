"""Tests for the discretized dual-norm machinery."""

import numpy as np
import pytest

from nessolve.errors import StageError
from nessolve.experiments import ExperimentConfig, run_experiment
from nessolve.seminorm import SeminormContext, seminorm_squared
from nessolve.spaces import MeasurementVector, build_test_space, \
    stiffness_matrix


def _sine_ctx(n, s):
    return SeminormContext.build(build_test_space("sine1d", n), s)


def seminorm(ctx, m):
    """The dual norm sqrt(m^T A^{-1} m)."""
    return np.sqrt(seminorm_squared(ctx, m))


def test_single_mode_values():
    ctx = _sine_ctx(4, 1.0)
    assert seminorm(ctx, np.array([1, 0, 0, 0.0])) == \
        pytest.approx(1.0 / np.pi, rel=1e-14)
    assert seminorm(ctx, np.array([0, 1, 0, 0.0])) == \
        pytest.approx(1.0 / (2 * np.pi), rel=1e-14)
    assert seminorm(ctx, np.zeros(4)) == 0.0


def test_homogeneity_and_triangle():
    rng = np.random.default_rng(3)
    ctx = _sine_ctx(12, 0.7)
    m = rng.standard_normal(12)
    v = rng.standard_normal(12)
    assert seminorm(ctx, 3.5 * m) == pytest.approx(3.5 * seminorm(ctx, m),
                                                   rel=1e-12)
    assert seminorm(ctx, m + v) <= seminorm(ctx, m) + seminorm(ctx, v) + 1e-12


def test_nested_monotonicity_and_decomposition():
    # a fixed field carried by 2N modes: the dual norm over the first N
    # test functions grows monotonically with N and the orthogonal tail
    # accounts exactly for the rest
    rng = np.random.default_rng(11)
    n = 8
    s = 1.0
    f = rng.standard_normal(2 * n)
    lam = (np.pi * np.arange(1, 2 * n + 1)) ** 2

    def sq_norm(k):
        ctx = _sine_ctx(k, s)
        return seminorm_squared(ctx, f[:k])

    vals = [sq_norm(k) for k in range(1, 2 * n + 1)]
    assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))

    exact = float(np.sum(f ** 2 / lam ** s))
    tail = float(np.sum(f[n:] ** 2 / lam[n:] ** s))
    assert abs(exact - (sq_norm(n) + tail)) <= 1e-10
    # exactness once every carried mode is tested
    assert sq_norm(2 * n) == pytest.approx(exact, abs=1e-12)


def test_sine2d_diagonal():
    sp = build_test_space("sine2d", n_per_dim=2)
    ctx = SeminormContext.build(sp, 1.0)
    m = np.array([1.0, 0, 0, 0])
    assert seminorm(ctx, m) == pytest.approx(1.0 / np.sqrt(2 * np.pi ** 2),
                                             rel=1e-13)


def test_fem_context_matches_dense_solve():
    sp = build_test_space("fem1d", 7)
    ctx = SeminormContext.build(sp, 1.0)
    a = stiffness_matrix(sp, 1.0)
    assert np.allclose(ctx.chol @ ctx.chol.T, a, atol=1e-10)
    rng = np.random.default_rng(2)
    m = rng.standard_normal(7)
    assert seminorm_squared(ctx, m) == \
        pytest.approx(float(m @ np.linalg.solve(a, m)), rel=1e-12)
    w = ctx.whiten(m)
    assert float(w @ w) == pytest.approx(seminorm_squared(ctx, m), rel=1e-12)


def test_whiten_consistency_sine():
    ctx = _sine_ctx(9, 1.3)
    rng = np.random.default_rng(8)
    m = rng.standard_normal(9)
    w = ctx.whiten(m)
    assert float(w @ w) == pytest.approx(seminorm_squared(ctx, m), rel=1e-13)
    assert np.allclose(ctx.apply_inverse(m), np.linalg.solve(
        stiffness_matrix(ctx.space, ctx.s), m), rtol=1e-12)


def test_measurement_validation():
    ctx = _sine_ctx(4, 1.0)
    with pytest.raises(ValueError):
        seminorm(ctx, np.zeros(5))
    other = build_test_space("sine1d", 5)
    with pytest.raises(ValueError):
        seminorm(ctx, MeasurementVector(np.zeros(5), other))


@pytest.mark.parametrize("kind, size", [("sine1d", 4), ("sine2d", 9),
                                        ("fem1d", 4)])
def test_negative_exponent_rejected(kind, size):
    # sine kinds used to return the weights lambda^s for s < 0 unchecked
    with pytest.raises(ValueError, match="nonnegative"):
        SeminormContext.build(build_test_space(kind, size), -0.5)


def test_norm_study_rejects_negative_exponent():
    cfg = ExperimentConfig("norm_study", 7, params={
        "n_per_dim": 8, "truncation": 56, "measurement_grid": 33,
        "s_values": [-1.0]})
    with pytest.raises(StageError) as info:
        run_experiment(cfg)
    assert type(info.value.cause) is ValueError
