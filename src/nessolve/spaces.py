"""Test-function bases on the unit interval/square and grid transforms.

Three basis kinds are supported:

* ``sine1d`` -- L2-orthonormal Dirichlet eigenfunctions sqrt(2)*sin(pi*j*x),
* ``sine2d`` -- tensor products 2*sin(pi*i*x)*sin(pi*j*y),
* ``fem1d``  -- piecewise-linear tent functions on a uniform interior grid.

Projections of grid-sampled fields onto sine bases use the type-I discrete
sine transform on the interior grid points; fem projections use trapezoid
quadrature.  All fields live on uniform grids that include the endpoints.
"""

from __future__ import annotations

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
    "gregory_weights",
]

# what the sixth-order Gregory rule adds to the trapezoid weights of the
# first five nodes, per unit of the spacing (Fornberg, "Improving the
# accuracy of the trapezoidal rule", SIAM Review 63, 2021; Numerical
# Recipes, 3rd ed., section 4.1): the weights open 95/288, 317/240, 23/30,
# 793/720, 157/160; the last five nodes take the same, mirrored
_GREGORY_ENDS = np.array([-49 / 288, 77 / 240, -7 / 30, 73 / 720,
                          -3 / 160])


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


def gregory_weights(n_points: int, dim: int = 1) -> np.ndarray:
    """Sixth-order Gregory weights on the uniform grid of ``n_points`` per
    dim: the trapezoid weights with the end corrections ``_GREGORY_ENDS``
    added at both ends, so the rule is exact for polynomials of degree 5
    and its error is O(h^6) on smooth integrands that do not vanish in
    slope at the ends, where the trapezoid rule is O(h^2).

    On fewer than 10 points the two ends' corrections overlap and are
    added; the rule stays exact to degree 5 on any grid of at least 5
    points, and a grid of fewer raises ``ResolutionTooCoarseError``.  In 2D
    the weights are the outer product of the 1D ones, x-major."""
    if n_points < _GREGORY_ENDS.size:
        raise ResolutionTooCoarseError(
            f"the Gregory end corrections need at least "
            f"{_GREGORY_ENDS.size} grid points, got {n_points}")
    w = np.ones(n_points)
    w[[0, -1]] = 0.5
    w[:_GREGORY_ENDS.size] += _GREGORY_ENDS
    w[n_points - _GREGORY_ENDS.size:] += _GREGORY_ENDS[::-1]
    w /= n_points - 1
    if dim == 1:
        return w
    return np.outer(w, w).ravel()


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

    sine2d: q = 5p/2 + 5 for p modes per dim, rounded down, with q - 1
    raised to the next fast FFT length (``next_fast_len``) so that the
    period 2(q - 1) of its grid products has only small prime factors; the
    features take the sixth-order Gregory rule (``gregory_weights``).  Its
    error falls about twofold per two points added, and at this q the
    operator block is three to six times closer to its integrals than the
    trapezoid rule on 4p + 1 points for p = 4 to 32, with grid products of
    about 0.45 the size.  Below 10 points, which only p = 1 gives (7
    points), the two ends' corrections overlap and are added, which keeps
    the rule exact to degree 5.
    sine1d: 4N + 1 for N modes; its features are in closed form, and the
    grid only sets where representers are evaluated.
    fem1d: 4(N + 1) + 1 for N tents, so that every tent node k / (N + 1)
    is a grid node."""
    if space.kind == "fem1d":
        return 4 * (space.size + 1) + 1
    if space.kind == "sine2d":
        return next_fast_len(5 * space.n_per_dim // 2 + 4) + 1
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
        p = space.n_per_dim
        # only the first p rows of the axis-0 pass carry modes
        rows = dst(v[1:-1, 1:-1], type=1, axis=0)[:p]
        c = dst(rows, type=1, axis=1)[:, :p] / (2.0 * n * n)
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
        n = n_points - 1
        p = space.n_per_dim
        if p > n - 1:
            raise ResolutionTooCoarseError("grid cannot carry all modes")
        # the axis-0 pass runs over the p columns that carry modes only
        cols = np.zeros((n - 1, p))
        cols[:p] = c.reshape(p, p)
        pad = np.zeros((n - 1, n - 1))
        pad[:, :p] = dst(cols, type=1, axis=0, overwrite_x=True)
        out = np.zeros((n_points, n_points))
        np.divide(dst(pad, type=1, axis=1, overwrite_x=True), 2.0,
                  out=out[1:-1, 1:-1])
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
