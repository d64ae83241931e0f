"""Test-function bases on the unit interval/square and grid transforms.

Three basis kinds are supported:

* ``sine1d`` -- L2-orthonormal Dirichlet eigenfunctions sqrt(2)*sin(pi*j*x),
* ``sine2d`` -- tensor products 2*sin(pi*i*x)*sin(pi*j*y),
* ``fem1d``  -- piecewise-linear tent functions on a uniform interior grid.

Projections of grid-sampled fields onto sine bases use the trapezoid rule
on the interior grid points: sine1d by the type-I discrete sine transform,
sine2d by products with the p x (n - 1) matrix of axis sines, s v s^T,
whose O(p n^2) flops do not depend on the prime factors of n.  Synthesis
runs the same transforms the other way.  fem projections use trapezoid
quadrature.  All fields live on uniform grids that include the endpoints.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dst, next_fast_len

from .errors import ResolutionTooCoarseError, UnsupportedExponentError

__all__ = [
    "TestSpace",
    "GridFunction",
    "MeasurementVector",
    "build_test_space",
    "default_n_quad",
    "stiffness_matrix",
    "mass_matrix",
    "project",
    "tent_projection_weights",
    "synthesize",
    "sine_synthesis",
    "grid_points",
    "trapezoid_weights",
    "filon_weights",
]

# nodes of the local interpolation stencil of ``filon_weights``: degree 5
_FILON_STENCIL = 6
# fewest cells per dim of a default sine2d grid: the features' integrands
# carry the kernel, whose scale does not shrink with the modes, and at
# p = 4 the 10 cells of 2p + 3 points left the operator block 1.2e-2 of
# max |k_cc| from its integrals (5.0e-3 on 12 cells, length scale 0.2)
_SINE2D_MIN_CELLS = 12
# Gauss-Legendre nodes per cell that form ``filon_weights``: exact for a
# quintic times a polynomial of degree 18, and sin(pi i x) over at most
# pi/2 of phase is such a polynomial to within 1e-19 of its size
_FILON_GAUSS = 12


@dataclass(frozen=True)
class TestSpace:
    """A finite test-function basis with its spectral metadata."""

    kind: str                      # sine1d | sine2d | fem1d
    size: int                      # number of basis functions N
    n_per_dim: int = 0             # sine2d only
    h: float = 0.0                 # fem1d node spacing
    eigenvalues: np.ndarray = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return 2 if self.kind == "sine2d" else 1


@dataclass(frozen=True)
class GridFunction:
    """Values of a scalar field on a uniform grid including endpoints."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim == 2 and v.shape[0] != v.shape[1]:
            raise ValueError("2D grid functions must be square")
        if v.ndim not in (1, 2):
            raise ValueError("grid functions are 1D or 2D")

    @property
    def dim(self) -> int:
        return self.values.ndim

    @property
    def n_points(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class MeasurementVector:
    """Projections of a field against a test basis."""

    entries: np.ndarray
    space: TestSpace

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", e)
        if e.shape != (self.space.size,):
            raise ValueError(
                f"expected {self.space.size} entries, got {e.shape}")


def grid_points(n_points: int, dim: int = 1) -> np.ndarray:
    """Uniform grid on [0,1]^dim including endpoints.

    Returns shape (n_points,) in 1D and (n_points**2, 2) in 2D (x-major)."""
    x = np.linspace(0.0, 1.0, n_points)
    if dim == 1:
        return x
    xx, yy = np.meshgrid(x, x, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def trapezoid_weights(n_points: int, dim: int = 1) -> np.ndarray:
    w = np.full(n_points, 1.0 / (n_points - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    if dim == 1:
        return w
    return np.outer(w, w).ravel()


@functools.lru_cache(maxsize=4)
def filon_weights(n_modes: int, n_points: int) -> np.ndarray:
    """The n_modes x n_points matrix F_ik = int_0^1 sin(pi i x) l_k(x) dx.

    l_k are the cardinal functions of piecewise degree-5 Lagrange
    interpolation on the uniform grid of ``n_points``: on each cell the
    interpolant is the quintic through its six nearest nodes, the stencil
    shifted inward at the ends.  So F f integrates sin(pi i x) times that
    interpolant of the grid values f exactly (a Filon-type rule: Filon,
    Proc. R. Soc. Edinburgh 49, 1928; Iserles & Norsett, Proc. R. Soc. A
    461, 2005), however many periods of the sine a cell holds; its error
    is that of the interpolant alone, O(h^6) on smooth f.

    Each cell's integrals are taken by ``_FILON_GAUSS``-point
    Gauss-Legendre, exact to rounding while a cell holds at most pi/2 of
    the top mode's phase, which any grid of 2 n_modes + 2 points or more
    (``_check_sine_resolution``) gives.  Fewer than six points hold no
    stencil and raise ``ResolutionTooCoarseError``.

    The matrix is kept, read-only, for the last few (n_modes, n_points):
    every sine2d ``FeatureSet`` of a solve, one per Gram build, reads the
    same one."""
    if n_points < _FILON_STENCIL:
        raise ResolutionTooCoarseError(
            f"the degree-5 Filon rule needs at least {_FILON_STENCIL} grid "
            f"points, got {n_points}")
    cells = np.arange(n_points - 1)
    first = np.clip(cells - 2, 0, n_points - _FILON_STENCIL)
    t, w = np.polynomial.legendre.leggauss(_FILON_GAUSS)
    t = 0.5 * (t + 1.0)
    # cardinal functions of the stencil nodes 0..5 at the Gauss nodes of
    # each cell, in the stencil's own coordinates, times the Gauss weights
    u = (cells - first)[:, None] + t[None, :]
    card = np.empty(u.shape + (_FILON_STENCIL,))
    for r in range(_FILON_STENCIL):
        card[..., r] = 0.5 * w / (n_points - 1)
        for m in range(_FILON_STENCIL):
            if m != r:
                card[..., r] *= (u - m) / (r - m)
    # sin(pi i (cell + t) / n) at the Gauss nodes, n = n_points - 1, from
    # the argument reduced exactly by whole periods (i cell mod 2n):
    # unreduced, its rounding grows with i, to 3e-15 of the top row's
    # largest entry at p = 20
    n = n_points - 1
    i = np.arange(1, n_modes + 1)[:, None, None]
    arg = (i * cells[None, :, None]) % (2 * n) + i * t[None, None, :]
    s = np.sin(arg * (np.pi / n))
    per_cell = np.einsum("icg,cgr->rci", s, card)
    f = np.zeros((n_points, n_modes))
    for r in range(_FILON_STENCIL):
        np.add.at(f, first + r, per_cell[r])
    f = f.T
    f.flags.writeable = False
    return f


def build_test_space(kind: str, size: int = 0, n_per_dim: int = 0) -> TestSpace:
    """Construct a test space of the given kind.

    For ``sine2d`` either ``n_per_dim`` or a perfect-square ``size`` may be
    given; the basis then has n_per_dim**2 functions indexed row-major by
    (i, j), i outer.
    """
    if kind == "sine1d":
        if size < 1:
            raise ValueError("sine1d requires size >= 1")
        j = np.arange(1, size + 1)
        return TestSpace(kind, size, eigenvalues=(np.pi * j) ** 2)
    if kind == "sine2d":
        if n_per_dim == 0:
            p = int(round(np.sqrt(size)))
            if p * p != size or size < 1:
                raise ValueError("sine2d size must be a perfect square")
            n_per_dim = p
        if n_per_dim < 1:
            raise ValueError("sine2d requires n_per_dim >= 1")
        p = n_per_dim
        ii, jj = np.meshgrid(np.arange(1, p + 1), np.arange(1, p + 1),
                             indexing="ij")
        lam = np.pi ** 2 * (ii ** 2 + jj ** 2)
        return TestSpace(kind, p * p, n_per_dim=p, eigenvalues=lam.ravel())
    if kind == "fem1d":
        if size < 1:
            raise ValueError("fem1d requires size >= 1")
        return TestSpace(kind, size, h=1.0 / (size + 1))
    raise ValueError(f"unknown test space kind {kind!r}")


def default_n_quad(space: TestSpace) -> int:
    """Quadrature grid points per dim when none are given.

    sine2d: q = 2p + 3 for p modes per dim, with q - 1 raised to the next
    fast FFT length (``next_fast_len``) so that the period 2(q - 1) of its
    grid products has only small prime factors, and to at least
    ``_SINE2D_MIN_CELLS`` cells: 13 points at p = 4, 43 at p = 20, 67 at
    p = 32.  The features take the Filon rule (``filon_weights``), exact
    for the sines, so the grid need only carry the modes and the quintic
    interpolation of c K(., y).  At this q their operator block is 5.0e-3,
    3.9e-3, 2.9e-4, 1.3e-4 and 1.5e-5 of max |k_cc| from its integrals at
    p = 4, 8, 16, 20 and 32, where the sixth-order Gregory rule on
    5p/2 + 5 points was 8.8e-3 to 3.2e-2 off, with grid products of about
    0.6 the size.
    sine1d: 4N + 1 for N modes; its features are in closed form, and the
    grid only sets where representers are evaluated.
    fem1d: 4(N + 1) + 1 for N tents, so that every tent node k / (N + 1)
    is a grid node."""
    if space.kind == "fem1d":
        return 4 * (space.size + 1) + 1
    if space.kind == "sine2d":
        return next_fast_len(max(2 * space.n_per_dim + 2,
                                 _SINE2D_MIN_CELLS)) + 1
    return 4 * space.size + 1


def stiffness_matrix(space: TestSpace, s: float) -> np.ndarray:
    """Gram matrix of the basis in the (possibly fractional) energy product.

    Sine kinds support any s >= 0 through the eigenvalue powers; fem1d only
    s in {0, 1}.
    """
    if s < 0:
        raise ValueError("exponent must be nonnegative")
    if space.kind in ("sine1d", "sine2d"):
        return np.diag(space.eigenvalues ** s)
    if space.kind == "fem1d":
        if s == 0:
            return mass_matrix(space)
        if s == 1:
            n, h = space.size, space.h
            a = np.diag(np.full(n, 2.0 / h))
            off = np.full(n - 1, -1.0 / h)
            a += np.diag(off, 1) + np.diag(off, -1)
            return a
        raise UnsupportedExponentError(
            f"fem1d supports only s in {{0, 1}}, got {s}")
    raise ValueError(f"unknown kind {space.kind!r}")


def mass_matrix(space: TestSpace) -> np.ndarray:
    """L2 Gram matrix of the basis (identity for orthonormal sine bases)."""
    if space.kind in ("sine1d", "sine2d"):
        return np.eye(space.size)
    n, h = space.size, space.h
    m = np.diag(np.full(n, 2.0 * h / 3.0))
    off = np.full(n - 1, h / 6.0)
    m += np.diag(off, 1) + np.diag(off, -1)
    return m


def _check_sine_resolution(space: TestSpace, n_points: int):
    n_modes = space.n_per_dim if space.kind == "sine2d" else space.size
    if n_points < 2 * n_modes + 2:
        raise ResolutionTooCoarseError(
            f"grid with {n_points} points per dim cannot resolve "
            f"{n_modes} sine modes (need >= {2 * n_modes + 2})")


def project(f: GridFunction, space: TestSpace) -> MeasurementVector:
    """Integrals of a grid-sampled field against every basis function."""
    v = f.values
    if space.kind == "sine1d":
        if v.ndim != 1:
            raise ValueError("sine1d projection expects a 1D grid function")
        _check_sine_resolution(space, v.shape[0])
        n = v.shape[0] - 1
        coeffs = dst(v[1:-1], type=1) * (np.sqrt(2.0) / (2.0 * n))
        return MeasurementVector(coeffs[:space.size], space)
    if space.kind == "sine2d":
        if v.ndim != 2:
            raise ValueError("sine2d projection expects a 2D grid function")
        _check_sine_resolution(space, v.shape[0])
        n = v.shape[0] - 1
        # the trapezoid rule on the interior, (2 / n^2) s v s^T, which a
        # DST-I along each axis also computes, in O(p n^2) flops for any n
        s = axis_sines(space.n_per_dim, grid_points(n + 1)[1:-1])
        c = 2.0 * (s @ v[1:-1, 1:-1] @ s.T) / (n * n)
        return MeasurementVector(c.ravel(), space)
    if space.kind == "fem1d":
        if v.ndim != 1:
            raise ValueError("fem1d projection expects a 1D grid function")
        weights = tent_projection_weights(space, v.shape[0])
        return MeasurementVector(weights @ v, space)
    raise ValueError(f"unknown kind {space.kind!r}")


def tent_projection_weights(space: TestSpace, n_points: int) -> np.ndarray:
    """The N x G matrix of the fem1d projection by trapezoid quadrature.

    ``project(f, space).entries == tent_projection_weights(space, G) @ f``
    for a 1D grid function of G points; callers that project many fields on
    one grid form it once.
    """
    if space.kind != "fem1d":
        raise ValueError("tent projection weights are defined for fem1d")
    if n_points - 1 < 2 * (space.size + 1):
        raise ResolutionTooCoarseError(
            "grid too coarse for the tent-function mesh")
    return basis_values(space, grid_points(n_points)) * \
        trapezoid_weights(n_points)[None, :]


def synthesize(coeffs, space: TestSpace, n_points: int) -> GridFunction:
    """Evaluate sum_i c_i phi_i on a uniform grid with ``n_points`` per dim."""
    c = coeffs.entries if isinstance(coeffs, MeasurementVector) else \
        np.asarray(coeffs, dtype=float)
    if c.shape != (space.size,):
        raise ValueError("coefficient length must equal the basis size")
    if space.kind == "sine1d":
        return GridFunction(sine_synthesis(c, n_points))
    if space.kind == "sine2d":
        p = space.n_per_dim
        if p > n_points - 2:
            raise ResolutionTooCoarseError("grid cannot carry all modes")
        # 2 s^T c s over the interior points only, written straight into
        # the output: the boundary stays exact zeros, where the sines at
        # x = 1.0 would give sin(pi i 1.0), about 1.2e-16 i
        s = axis_sines(p, grid_points(n_points)[1:-1])
        out = np.zeros((n_points, n_points))
        np.matmul(s.T, 2.0 * c.reshape(p, p) @ s, out=out[1:-1, 1:-1])
        return GridFunction(out)
    if space.kind == "fem1d":
        nodes = np.concatenate([[0.0], (np.arange(1, space.size + 1)) * space.h,
                                [1.0]])
        vals = np.concatenate([[0.0], c, [0.0]])
        x = grid_points(n_points)
        return GridFunction(np.interp(x, nodes, vals))
    raise ValueError(f"unknown kind {space.kind!r}")


def sine_synthesis(coeffs: np.ndarray, n_points: int) -> np.ndarray:
    """Values of sum_j c_j sqrt(2) sin(pi j x) on a uniform grid of
    ``n_points``, for each row of ``coeffs`` along its last axis.

    A stack of rows takes one DST-I along the last axis, which gives the
    same bits as synthesizing the rows one at a time.  It runs in place over
    the zero-padded coefficients and is scaled straight into the result, so
    the pad and the result are the only arrays of the output's size.
    """
    c = np.asarray(coeffs, dtype=float)
    n = n_points - 1
    if c.shape[-1] > n - 1:
        raise ResolutionTooCoarseError("grid cannot carry all modes")
    pad = np.zeros(c.shape[:-1] + (n - 1,))
    pad[..., :c.shape[-1]] = c
    out = np.zeros(c.shape[:-1] + (n_points,))
    np.multiply(dst(pad, type=1, axis=-1, overwrite_x=True),
                np.sqrt(2.0) / 2.0, out=out[..., 1:-1])
    return out


def basis_values(space: TestSpace, points: np.ndarray) -> np.ndarray:
    """Matrix of basis-function values, shape (N, P).

    sine1d values are taken entry by entry from the exactly reduced
    argument 2 pi frac(j x / 2).  On a uniform grid of 2^p + 1 points j x
    is exact, so these are the sines of the DST-I up to one rounding,
    where pi j x would carry an error growing with j."""
    pts = np.asarray(points, dtype=float)
    if space.kind == "sine1d":
        r = np.arange(1, space.size + 1)[:, None] * (0.5 * pts)[None, :]
        r -= np.floor(r)
        r *= 2.0 * np.pi
        np.sin(r, out=r)
        r *= np.sqrt(2.0)
        return r
    if space.kind == "sine2d":
        p = space.n_per_dim
        sx = axis_sines(p, pts[:, 0])           # p x P
        sy = axis_sines(p, pts[:, 1])
        out = (sx[:, None, :] * sy[None, :, :]).reshape(p * p, -1)
        out *= 2.0
        return out
    if space.kind == "fem1d":
        nodes = (np.arange(1, space.size + 1) * space.h)[:, None]
        return np.clip(1.0 - np.abs(pts[None, :] - nodes) / space.h, 0.0, None)
    raise ValueError(f"unknown kind {space.kind!r}")


def axis_sines(n_modes: int, x: np.ndarray) -> np.ndarray:
    """Values sin(pi i x) of the modes i = 1..n_modes (rows) at the 1D
    points ``x`` (columns): the factors of the sine2d basis
    2 sin(pi i x) sin(pi j y), entry by entry, so the sines at a few
    distinct coordinates have the bits of the same sines at every point."""
    i = np.arange(1, n_modes + 1)[:, None]
    return np.sin(np.pi * i * np.asarray(x, dtype=float)[None, :])
