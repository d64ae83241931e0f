"""Tests for seeded rough forcings and Wiener increment paths.

Monte Carlo bounds use fixed seeds and sample sizes chosen so the checked
intervals sit at least five standard errors out.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nessolve.noise import NoisePath, aggregate_increments, build_path, \
    sample_white_noise_spectral, sample_wiener_increment, stream
from nessolve.noise import _COARSE_ROWS, aggregating, increment_blocks, \
    rekey
from nessolve.spaces import build_test_space


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


def test_wiener_rejects_bad_dt():
    with pytest.raises(ValueError):
        sample_wiener_increment(3, 0.0, stream(0))
    with pytest.raises(ValueError):
        sample_wiener_increment(3, -1.0, stream(0))


def test_build_path_determinism():
    p1 = build_path(5, 0.01, 8, 6)
    p2 = build_path(5, 0.01, 8, 6)
    assert np.array_equal(p1.records, p2.records)
    assert np.array_equal(p1.increment(3).entries, p1.records[3])
    with pytest.raises(ValueError):
        build_path(5, 0.0, 4, 6)


def test_build_path_matches_per_step_increments():
    # build_path draws each step without the per-step wrappers; step k must
    # still be the increment sampled from the (seed, k) stream
    seed, dt, size = 17, 1.0 / 64, 12
    path = build_path(seed, dt, 6, size)
    for k in range(6):
        one = sample_wiener_increment(size, dt, stream(seed, k)).entries
        assert np.array_equal(path.records[k], one)


def test_aggregation_telescopes_exactly():
    fine = build_path(9, 1.0 / 64, 16, 3)
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
        fine = build_path(seed, dt_fine, 4, 1)
        vals[seed] = aggregate_increments(fine, 4).records[0, 0]
    assert vals.var() == pytest.approx(4 * dt_fine, rel=0.05)


def test_path_metadata_validation():
    sp = build_test_space("sine1d", 3)
    with pytest.raises(ValueError):
        NoisePath(0.1, sp, np.zeros((4, 2)))
    assert NoisePath(0.1, sp, np.zeros((4, 3))).n_steps == 4

_WORD = st.one_of(st.integers(0, 2 ** 64 - 1),
                  st.integers(2 ** 64 - 4, 2 ** 64 - 1),
                  st.integers(0, 3))


@settings(max_examples=60, deadline=None)
@given(seed=_WORD, step=_WORD, size=st.integers(1, 40),
       normals_before=st.integers(0, 9), uint32_before=st.booleans())
def test_rekeyed_draws_equal_stream(seed, step, size, normals_before,
                                    uint32_before):
    # a generator part way through another stream, with buffered 64-bit
    # words and possibly a held 32-bit half, restarts cleanly on re-keying
    bitgen = np.random.Philox()
    rng = np.random.Generator(bitgen)
    rng.standard_normal(normals_before)
    if uint32_before:
        rng.integers(0, 2 ** 32, dtype=np.uint32)
    rekey(bitgen, seed, step)
    want = stream(seed, step).standard_normal(size)
    assert np.array_equal(rng.standard_normal(size), want)


def test_stream_keys_outside_64_bits_are_rejected():
    # step 2**64 used to spill into the seed word: stream(0, 2**64) was
    # seed 1's stream 0
    bitgen = np.random.Philox()
    for seed, step in [(0, 2 ** 64), (2 ** 64, 0), (-1, 0), (0, -1)]:
        with pytest.raises(ValueError):
            stream(seed, step)
        with pytest.raises(ValueError):
            rekey(bitgen, seed, step)
    for seed in (2 ** 64, -1):
        with pytest.raises(ValueError):
            increment_blocks(seed, 0.1, 4, 3)
    with pytest.raises(ValueError):
        increment_blocks(0, 0.1, 2 ** 64 + 1, 3)
    edge = 2 ** 64 - 1
    assert np.array_equal(stream(edge, edge).standard_normal(3),
                          np.random.Generator(np.random.Philox(
                              key=2 ** 128 - 1)).standard_normal(3))


@pytest.mark.parametrize("block", [1, 3, 4, 11])
def test_increment_blocks_are_the_path_rows(block):
    seed, dt, n_steps, size = 23, 1.0 / 32, 10, 7
    path = build_path(seed, dt, n_steps, size)
    blocks = list(increment_blocks(seed, dt, n_steps, size, block))
    assert [b.shape[0] for b in blocks[:-1]] == [block] * (len(blocks) - 1)
    assert np.array_equal(np.concatenate(blocks), path.records)


def test_increment_blocks_validation():
    with pytest.raises(ValueError):
        increment_blocks(0, 0.0, 4, 3)
    with pytest.raises(ValueError):
        increment_blocks(0, 0.1, 0, 3)
    with pytest.raises(ValueError):
        increment_blocks(0, 0.1, 4, 3, block=0)


@pytest.mark.parametrize("block_groups", [1, 2])
def test_aggregating_matches_aggregate_increments(block_groups):
    # measured against the identity, the streamed coarse rows are the sums
    # themselves; the path fills the buffer once and leaves a part-filled one
    seed, dt, factor, size = 4, 1.0 / 64, 4, 5
    n_coarse = _COARSE_ROWS + 4
    n_fine = factor * n_coarse
    fine = build_path(seed, dt, n_fine, size)
    coarse = np.empty((n_coarse, size))
    passed = list(aggregating(increment_blocks(
        seed, dt, n_fine, size, factor * block_groups),
        factor, np.eye(size), coarse))
    assert np.array_equal(np.concatenate(passed), fine.records)
    assert np.array_equal(coarse, aggregate_increments(fine, factor).records)
    with pytest.raises(ValueError):
        list(aggregating(increment_blocks(seed, dt, n_fine, size, 3),
                         factor, np.eye(size), coarse))
