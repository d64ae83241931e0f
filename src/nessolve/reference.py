"""Independent ground-truth generators for the benchmark experiments.

Closed-form coefficients for the 1D linear elliptic problem, a seeded
manufactured solution/forcing pair for the 2D semilinear problem, and a
fine-mesh spectral-Galerkin integrator for the stochastic heat and
Allen-Cahn equations that consumes the same Brownian paths as the kernel
runs: an iterable of increment blocks, such as ``noise.increment_blocks``,
consumed block by block.  The integrator returns its trajectory and, beside
it, the coefficient history of every stored step in the modes the output
grid carries.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import next_fast_len

from .noise import stream
from .spaces import GridFunction, MeasurementVector, build_test_space, \
    project, sine_synthesis, synthesize
from .spde import Trajectory

__all__ = ["closed_form_elliptic_1d", "manufactured_semilinear_2d",
           "spectral_galerkin_spde", "stepped_modes"]


def closed_form_elliptic_1d(xi_coeffs, nu: float) -> MeasurementVector:
    """Solution coefficients of -nu*u'' + u = xi in the orthonormal sine
    basis: u_j = xi_j / (nu*pi^2*j^2 + 1)."""
    if isinstance(xi_coeffs, MeasurementVector):
        space, xi = xi_coeffs.space, xi_coeffs.entries
    else:
        xi = np.asarray(xi_coeffs, dtype=float)
        space = build_test_space("sine1d", xi.shape[0])
    j = np.arange(1, xi.shape[0] + 1)
    return MeasurementVector(xi / (nu * (np.pi * j) ** 2 + 1.0), space)


def manufactured_semilinear_2d(eps: float, L: int, seed: int, nu: float):
    """Seeded manufactured pair (u*, xi) for -nu*Lap(u) + u + sin(pi*u),
    and the L x L sine coefficients of u*.

    u* has random sine coefficients u_ij / (i^2 + j^2)^(1 + eps), sampled
    on the 2L + 3 point grid, fine enough to carry all L modes per
    dimension.  The linear part -nu*Lap(u*) + u* of the forcing is
    synthesized on that grid from the coefficients times nu*lambda_ij + 1,
    and the pointwise nonlinearity sin(pi*u*) is added to it.  Synthesis
    is a product with the axis sines (``spaces.synthesize``), O(L n^2)
    flops on n = 2L + 3 points, so the large prime factor of 2(n - 1) =
    4(L + 1) (4 * 257 at L = 256), which would slow a DST-I, costs
    nothing.  The coefficients come back as drawn, so a caller can
    synthesize u* on another grid without projecting it first.
    """
    if L < 1 or eps < 0:
        raise ValueError("need L >= 1 and eps >= 0")
    n_grid = 2 * L + 3
    ii, jj = np.meshgrid(np.arange(1, L + 1), np.arange(1, L + 1),
                         indexing="ij")
    decay = (ii.astype(float) ** 2 + jj ** 2) ** (1.0 + eps)
    coeffs = stream(seed).standard_normal((L, L)) / decay
    space = build_test_space("sine2d", n_per_dim=L)
    u_star = synthesize(coeffs.ravel(), space, n_grid)
    xi = synthesize((nu * space.eigenvalues + 1.0) * coeffs.ravel(), space,
                    n_grid).values
    xi += np.sin(np.pi * u_star.values)
    return u_star, GridFunction(xi), MeasurementVector(coeffs.ravel(), space)


def stepped_modes(family: str, L: int, n_grid: int) -> int:
    """How many sine modes ``spectral_galerkin_spde`` advances: for heat
    the min(L, n_grid - 2) that the n_grid-point output grid carries, as
    its modes do not interact; for Allen-Cahn all L, which its drift
    couples."""
    return L if family == "allen_cahn" else min(L, n_grid - 2)


def spectral_galerkin_spde(family: str, nu: float, sigma: float, dt: float,
                           L: int, t_final: float, blocks,
                           initial: np.ndarray = None, store_every: int = 1,
                           n_grid: int = 0):
    """Mode-wise semi-implicit Euler on the first L sine modes.

    a_j^{k+1} = (a_j^k + dt*fhat_j + sigma*dbeta_j) / (1 + dt*nu*pi^2*j^2),
    with f = 0 for heat and, for Allen-Cahn, fhat the sine projection of
    the drift u - u^3 sampled on a dealiasing grid of n intervals.  The
    cube of L sine modes has modes up to 3L; on n intervals mode m > n
    folds onto 2n - m, which stays above L when n >= 2L + 1, so the first
    L projected modes are exact up to rounding.  n is the smallest 5-smooth
    integer >= 2L + 2: the DST-I of the n - 1 interior points runs as a
    real FFT of length 2n, and sizes with a large prime factor (2L + 2 =
    4098 = 2 * 3 * 683 at L = 2048) are about ten times slower.  Snapshots
    are stored every ``store_every`` steps and synthesized together on an
    ``n_grid``-point grid (default 2L + 3).

    The increments dbeta come from ``blocks``, an iterable of 2D blocks of
    consecutive increments, such as ``noise.increment_blocks``.  Each row
    holds at least the ``stepped_modes`` sine increments the scheme
    advances, first; columns past them are not read, so a row may carry
    other coordinates after them.  The stream is consumed block by block as
    the steps advance, so the fine path is never held whole; it must hold
    exactly t_final/dt increments.

    Returns the ``Trajectory`` of grid values and the coefficient history,
    (n_stored + 1, min(L, n_grid - 2)): both keep only the modes the output
    grid can carry.  Heat's modes do not interact, so it advances only
    those; the Allen-Cahn drift couples all L, which it advances.
    """
    if family not in ("heat", "allen_cahn"):
        raise ValueError(f"unknown SPDE family {family!r}")
    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-9 * max(t_final, 1.0):
        raise ValueError("t_final must be an integral number of steps")
    if n_steps % store_every:
        raise ValueError("store_every must divide the step count")
    space = build_test_space("sine1d", L)
    n_de = next_fast_len(2 * L + 2, real=True) + 1   # dealiasing grid
    n_grid = n_grid or 2 * L + 3

    a = np.zeros(L) if initial is None else \
        np.asarray(initial, dtype=float).copy()
    if a.shape != (L,):
        raise ValueError("initial coefficients must have length L")

    n_stored = n_steps // store_every
    n_kept = min(L, n_grid - 2)
    stored = np.empty((n_stored + 1, n_kept))
    stored[0] = a[:n_kept]
    n_step = stepped_modes(family, L, n_grid)
    a = a[:n_step]
    denom = 1.0 + dt * nu * (np.pi * np.arange(1, n_step + 1)) ** 2
    k = 0
    for block in blocks:
        if k + block.shape[0] > n_steps:
            raise ValueError("noise path length does not match t_final/dt")
        if block.shape[1] < n_step:
            raise ValueError("noise path carries fewer modes than stepped")
        for incr in sigma * block[:, :n_step]:
            if family == "allen_cahn":
                u = synthesize(a, space, n_de).values
                fhat = project(GridFunction(u - u ** 3), space).entries
            else:
                fhat = 0.0
            a = (a + dt * fhat + incr) / denom
            k += 1
            if k % store_every == 0:
                stored[k // store_every] = a[:n_kept]
    if k != n_steps:
        raise ValueError("noise path length does not match t_final/dt")

    times = np.arange(n_stored + 1) * (dt * store_every)
    values = sine_synthesis(stored, n_grid)
    return Trajectory(times, values), stored

