"""Tests for seeded rough forcings and Wiener increment paths.

Monte Carlo bounds use fixed seeds and sample sizes chosen so the checked
intervals sit at least five standard errors out.
"""

import numpy as np
import pytest

from nessolve.noise import NoisePath, aggregate_increments, build_path, \
    sample_white_noise_spectral, sample_wiener_increment, stream
from nessolve.spaces import build_test_space, mass_matrix


def test_stream_addressing():
    a = stream(1, 2).standard_normal(4)
    b = stream(1, 2).standard_normal(4)
    c = stream(1, 3).standard_normal(4)
    d = stream(2, 2).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_white_noise_determinism_and_shape():
    u = sample_white_noise_spectral(8, 42)
    v = sample_white_noise_spectral(8, 42)
    assert np.array_equal(u.entries, v.entries)
    assert u.space.kind == "sine1d" and u.space.size == 8
    with pytest.raises(ValueError):
        sample_white_noise_spectral(0, 1)


def test_white_noise_moments():
    n = 100_000
    draws = np.empty((n, 2))
    for i in range(n):
        draws[i] = sample_white_noise_spectral(2, i).entries
    mean = draws[:, 0].mean()
    var = draws[:, 0].var()
    assert -0.02 <= mean <= 0.02
    assert 0.98 <= var <= 1.02
    # coefficients are uncorrelated across modes
    corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
    assert abs(corr) <= 0.02


def test_wiener_spectral_covariance():
    dt = 0.25
    rng = stream(123)
    n = 100_000
    draws = np.empty((n, 3))
    for i in range(n):
        draws[i] = sample_wiener_increment(3, dt, rng).entries
    cov = np.cov(draws.T)
    assert np.allclose(np.diag(cov), dt, rtol=0.03)
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() <= 0.03 * dt


def test_wiener_fem_covariance():
    sp = build_test_space("fem1d", 4)
    m = mass_matrix(sp)
    dt = 0.5
    rng = stream(77)
    n = 100_000
    draws = np.empty((n, 4))
    for i in range(n):
        draws[i] = sample_wiener_increment(sp, dt, rng).entries
    cov = np.cov(draws.T)
    assert np.allclose(cov, dt * m, rtol=0.05, atol=0.05 * dt * sp.h / 6)


def test_wiener_rejects_bad_dt():
    with pytest.raises(ValueError):
        sample_wiener_increment(3, 0.0, stream(0))
    with pytest.raises(ValueError):
        sample_wiener_increment(3, -1.0, stream(0))


def test_build_path_determinism():
    p1 = build_path(5, "spectral", 0.01, 8, 6)
    p2 = build_path(5, "spectral", 0.01, 8, 6)
    assert np.array_equal(p1.records, p2.records)
    assert np.array_equal(p1.increment(3).entries, p1.records[3])
    fem = build_path(5, "fem", 0.01, 4, 6)
    assert fem.space.kind == "fem1d"
    with pytest.raises(ValueError):
        build_path(5, "sobol", 0.01, 4, 6)
    with pytest.raises(ValueError):
        build_path(5, "spectral", 0.0, 4, 6)


def test_aggregation_telescopes_exactly():
    fine = build_path(9, "spectral", 1.0 / 64, 16, 3)
    coarse = aggregate_increments(fine, 4)
    assert coarse.n_steps == 4
    assert coarse.dt == pytest.approx(4.0 / 64)
    for k in range(4):
        assert np.allclose(coarse.records[k],
                           fine.records[4 * k:4 * k + 4].sum(axis=0),
                           rtol=0.0, atol=1e-15)
    # total displacement is preserved
    assert np.allclose(coarse.records.sum(axis=0), fine.records.sum(axis=0),
                       atol=1e-14)
    assert aggregate_increments(fine, 1) is fine
    with pytest.raises(ValueError):
        aggregate_increments(fine, 5)


def test_aggregated_variance():
    # summing 4 fine increments yields variance 4*dt_fine (5% at 1e4 paths)
    dt_fine = 1.0 / 64
    n = 10_000
    vals = np.empty(n)
    for seed in range(n):
        fine = build_path(seed, "spectral", dt_fine, 4, 1)
        vals[seed] = aggregate_increments(fine, 4).records[0, 0]
    assert vals.var() == pytest.approx(4 * dt_fine, rel=0.05)


def test_path_metadata_validation():
    sp = build_test_space("sine1d", 3)
    with pytest.raises(ValueError):
        NoisePath(0, "spectral", 0.1, 4, sp, records=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        NoisePath(0, "quasi", 0.1, 4, sp, records=np.zeros((4, 3)))
