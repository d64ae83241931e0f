"""Seeded rough forcings: spectral white noise and Wiener increments.

Streams are addressed by (seed, step) through the counter-based Philox
generator, so any step of a path can be regenerated without replaying the
ones before it and coarse/fine runs can share one Brownian path.  A
``NoisePath`` stores the materialized per-step increment coefficients;
aggregation sums blocks of fine increments pathwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .spaces import MeasurementVector, TestSpace, build_test_space, \
    mass_matrix

__all__ = ["NoisePath", "sample_white_noise_spectral",
           "sample_wiener_increment", "build_path", "aggregate_increments",
           "stream"]


def stream(seed: int, step: int = 0) -> np.random.Generator:
    """Independent generator addressed by (seed, step)."""
    return np.random.Generator(
        np.random.Philox(key=(int(seed) << 64) | int(step)))


def sample_white_noise_spectral(L: int, seed: int) -> MeasurementVector:
    """i.i.d. standard normal coefficients in the orthonormal sine basis."""
    if L < 1:
        raise ValueError("need at least one mode")
    space = build_test_space("sine1d", L)
    return MeasurementVector(stream(seed).standard_normal(L), space)


def _wiener_draw(size: int, dt: float, rng: np.random.Generator,
                 mass_chol: np.ndarray = None) -> np.ndarray:
    """Coefficients of one increment: N(0, dt) i.i.d., or with covariance
    dt times the mass matrix when its Cholesky factor is given."""
    if mass_chol is None:
        return np.sqrt(dt) * rng.standard_normal(size)
    z = rng.standard_normal(size)
    return np.sqrt(dt) * (mass_chol @ z)


def sample_wiener_increment(space_or_L, dt: float,
                            rng: np.random.Generator,
                            mass_chol: np.ndarray = None) -> MeasurementVector:
    """One Wiener increment measured against a test basis.

    Spectral mode (integer argument): L independent N(0, dt) sine
    coefficients.  Fem mode (TestSpace argument): measurements with
    covariance dt times the tent-function mass matrix, drawn through its
    Cholesky factor.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if isinstance(space_or_L, TestSpace):
        space = space_or_L
        if mass_chol is None:
            mass_chol = scipy.linalg.cholesky(mass_matrix(space), lower=True)
        return MeasurementVector(_wiener_draw(space.size, dt, rng, mass_chol),
                                 space)
    space = build_test_space("sine1d", int(space_or_L))
    return MeasurementVector(_wiener_draw(space.size, dt, rng), space)


@dataclass(frozen=True)
class NoisePath:
    """A full set of per-step increment coefficient vectors."""

    seed: int
    mode: str                       # spectral | fem
    dt: float
    n_steps: int
    space: TestSpace
    records: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.mode not in ("spectral", "fem"):
            raise ValueError(f"unknown noise mode {self.mode!r}")
        if self.records.shape != (self.n_steps, self.space.size):
            raise ValueError("record shape does not match path metadata")

    def increment(self, step: int) -> MeasurementVector:
        return MeasurementVector(self.records[step], self.space)


def build_path(seed: int, mode: str, dt: float, n_steps: int,
               size: int) -> NoisePath:
    """Materialize a path of ``n_steps`` increments with ``size`` modes.

    Step k is drawn from the (seed, k) stream, so a fine path at dt/m over
    m*n_steps steps and the paths aggregated from it are reproducible from
    the seed alone.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if mode == "spectral":
        space = build_test_space("sine1d", size)
        mass_chol = None
    elif mode == "fem":
        space = build_test_space("fem1d", size)
        mass_chol = scipy.linalg.cholesky(mass_matrix(space), lower=True)
    else:
        raise ValueError(f"unknown noise mode {mode!r}")
    records = np.empty((n_steps, size))
    for k in range(n_steps):
        records[k] = _wiener_draw(size, dt, stream(seed, k), mass_chol)
    return NoisePath(seed, mode, dt, n_steps, space, records)


def aggregate_increments(path: NoisePath, factor: int) -> NoisePath:
    """Sum blocks of ``factor`` consecutive fine increments."""
    if factor < 1 or path.n_steps % factor:
        raise ValueError("step count must be divisible by the factor")
    if factor == 1:
        return path
    coarse = path.records.reshape(path.n_steps // factor, factor,
                                  path.space.size).sum(axis=1)
    return NoisePath(path.seed, path.mode, path.dt * factor,
                     path.n_steps // factor, path.space, coarse)
