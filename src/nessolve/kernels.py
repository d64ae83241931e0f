"""Matern-5/2 kernel and Gram-block assembly for operator/boundary features.

Operator features are weak integrals of the linearized operator applied to
the kernel.  For sine test functions the Laplacian is moved onto the test
function, exactly, via its eigenvalue, so every feature is a weighted sum
of kernel values on a uniform quadrature grid.  For fem tent functions the
value part is such a sum too, and the diffusion part nu int phi_i' u' is
exactly nu (2 u(z_i) - u(z_{i-1}) - u(z_{i+1})) / h at the tent nodes
z_0..z_{N+1} (``FeatureSet.stiffness``).  So only the value kernel is ever
integrated, and every Gram block is weight rows, plus for fem that
three-point stencil, applied to pairwise kernel matrices.

On the grid itself that pairwise matrix depends only on the offset between
nodes (Toeplitz in 1D, block-Toeplitz in 2D), so the grid-by-grid products
are correlations computed with FFTs of a circulant embedding of the kernel
(Dietrich & Newsam, SIAM J. Sci. Comput. 18, 1997); no grid-by-grid matrix
is ever formed.  With q points per dim, the circulant has period 2(q-1) in
2D, where folding +(q-1) onto -(q-1) loses nothing for the even kernel, and
next_fast_len(2q-1) in 1D (see ``_grid_product`` for why 1D keeps it).
The 2D transforms go one axis at a time, y then x forward and x then y
inverse, so that neither the zero padding nor the cropped rows are
transformed along y.  Products against the boundary points, the tent nodes
and arbitrary evaluation points are small and stay dense.

Pointwise collocation features pair the kernel with the operator at both
points; the derivatives involved share one exponential, so each entry
costs one ``exp``.  Both kinds fill one (N+M) x (N+M) Gram array,
unregularized: ``gauss_newton.KKTSystem`` adds the nugget and any jitter.

Memory.  Sine features hold no N x G array (G grid points): their
weight rows are sines times a diagonal.  In 1D, pairing with them is a
DST-I and combining them a sine synthesis (Britanak, Yip & Rao, *Discrete
Cosine and Sine Transforms*, 2007); in 2D the sines are separable,
2 sin(pi i x) sin(pi j y), so both are contractions with the p x q axis
sines, one axis at a time.  Assembly forms their rows a block of 256 KiB
at a time, takes their grid products and pairs them at once.  fem1d
features hold one N x G array, the value weight rows, formed in place over
the basis values; assembly takes the grid products of all rows and pairs
them with the weights by one GEMM.  Every pairing of the weights with
kernel values, on the grid or against the boundary points and tent nodes,
goes through ``FeatureSet.pair``.  Either way the operator block is
written straight into the Gram array, which is then symmetrized in place.

Grid values of representers are taken one way only, matrix-free
(``GramBlocks.on_grid``): one grid product per combined weight row, for a
coefficient vector or for each column of a matrix of them.  No solver path
forms the G x (N+M) evaluation matrix; ``quad_eval`` builds it from
``on_grid`` on the identity when read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dst, fft, ifft, irfft, next_fast_len, rfft, rfftn

from . import spaces
from .errors import ResolutionTooCoarseError
from .spaces import TestSpace, grid_points, trapezoid_weights

__all__ = [
    "KernelSpec",
    "FeatureSet",
    "GramBlocks",
    "kernel_matrix",
    "assemble_features",
    "evaluate_features",
    "assemble_collocation",
    "evaluate_collocation",
]

# complex elements of the spectrum work array of one row block in
# _grid_product, (b, P/2+1) in 1D and (b, P, P/2+1) in 2D: 512 KiB, so
# that a block's padding, transforms, spectrum product and crop stay in a
# core's L2 cache; a row larger than that is a block of its own
_FFT_BLOCK_ELEMENTS = 2 ** 15
# real elements of one block of sine weight rows that FeatureSet weighs in
# place, and that assembly forms, transforms and pairs: 256 KiB, so that
# the passes over a block stay in L2
_WEIGHT_BLOCK_ELEMENTS = 2 ** 15


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and length scale (only matern52 is implemented)."""

    family: str = "matern52"
    length_scale: float = 0.2

    def __post_init__(self):
        if self.family != "matern52":
            raise ValueError(f"unsupported kernel family {self.family!r}")
        if not 0.0 < self.length_scale < np.inf:
            raise ValueError("length scale must be positive and finite")


def _as_points(x) -> np.ndarray:
    pts = np.atleast_1d(np.asarray(x, dtype=float))
    if pts.ndim == 1:
        return pts[:, None]
    return pts


def _matern52(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    """(1 + ar + (ar)^2/3) exp(-ar) at the distances ``r``, which are
    overwritten: evaluated in place, with the order of operations of that
    formula, so it holds two temporaries the size of ``r``."""
    r *= np.sqrt(5.0) / spec.length_scale
    quad = r ** 2
    quad /= 3.0
    out = 1.0 + r
    out += quad
    del quad
    np.negative(r, out=r)
    out *= np.exp(r, out=r)
    return out


def _pairwise(spec: KernelSpec, x, y) -> np.ndarray:
    """Pairwise kernel matrix between two point sets.  The distances take
    the order of operations of a Euclidean ``cdist``: |x - y| in 1D,
    sqrt(dx dx + dy dy) in 2D."""
    xp, yp = _as_points(x), _as_points(y)
    r = xp[:, 0, None] - yp[None, :, 0]
    if xp.shape[1] == 1:
        return _matern52(spec, np.abs(r, out=r))
    r *= r
    dy = xp[:, 1, None] - yp[None, :, 1]
    dy *= dy
    r += dy
    return _matern52(spec, np.sqrt(r, out=r))


def kernel_matrix(spec: KernelSpec, x, y=None) -> np.ndarray:
    return _pairwise(spec, x, x if y is None else y)


@dataclass(frozen=True)
class FeatureSet:
    """Weak operator features over a quadrature grid plus boundary points.

    The linearized operator is -nu_diff * Laplacian + c(x).  ``weights_val``
    encodes every feature as a weighted sum of kernel values at the
    quadrature nodes.  For fem1d that is the value part c u only; the
    diffusion part is ``stiffness`` applied to values at the tent
    ``nodes``, so no derivative of the kernel is ever integrated.

    fem1d features store their weights, formed in place over the basis
    values, one N x G array.  Sine features store none: row i at node x_k
    is phi_i(x_k) (w_k c_k + nu lambda_i w_k), so the rows a grid product
    needs are formed a block at a time (``value_rows``), pairing grid rows
    with every weight row is a transform of the grid rows (``pair``), and
    a combination of weight rows is a sine synthesis (``combine``).  In
    1D, phi_i(x_k) = sqrt(2) sin(pi i k / (q-1)) and the transform is a
    DST-I over the interior nodes.  In 2D, phi_(i,j)(x_k, y_l) =
    2 s_ik s_jl with the p x q axis sines s_ik = sin(pi i x_k), so the
    transform is a contraction with s along y, then along x.
    ``weights_val`` is then formed on every read.
    """

    space: TestSpace
    c_field: np.ndarray
    nu_diff: float
    boundary_points: np.ndarray
    n_quad: int
    quad_points: np.ndarray = field(default=None, repr=False)
    # the value weights, fem1d only
    _weights: np.ndarray = field(default=None, init=False, repr=False)
    # the p x q axis sines sin(pi i x_k), sine2d only
    _sines: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        sp = self.space
        if sp.kind in ("sine1d", "sine2d"):
            n_modes = sp.n_per_dim if sp.kind == "sine2d" else sp.size
            if self.n_quad < 2 * n_modes + 2:
                raise ResolutionTooCoarseError(
                    f"{self.n_quad} quadrature points per dim cannot resolve "
                    f"{n_modes} sine modes")
        elif sp.kind == "fem1d" and self.n_quad - 1 < 2 * (sp.size + 1):
            raise ResolutionTooCoarseError(
                "grid too coarse for the tent-function mesh")
        pts = grid_points(self.n_quad, sp.dim)
        w = trapezoid_weights(self.n_quad, sp.dim)
        c = np.broadcast_to(np.asarray(self.c_field, dtype=float).ravel(),
                            w.shape).copy()
        bp = _as_points(self.boundary_points)
        if bp.shape[1] != sp.dim:
            raise ValueError("boundary point dimension mismatch")
        if len(np.unique(bp.round(decimals=14), axis=0)) != bp.shape[0]:
            raise ValueError("boundary points must be distinct")
        object.__setattr__(self, "c_field", c)
        object.__setattr__(self, "boundary_points", bp)
        object.__setattr__(self, "quad_points", pts)
        if sp.kind == "sine2d":
            object.__setattr__(self, "_sines", spaces.axis_sines(
                sp.n_per_dim, grid_points(self.n_quad)))
        if sp.kind != "fem1d":
            return

        wv = spaces.basis_values(sp, pts)
        wv *= w * c
        object.__setattr__(self, "_weights", wv)

    @property
    def n_features(self) -> int:
        return self.space.size

    @property
    def n_boundary(self) -> int:
        return self.boundary_points.shape[0]

    @property
    def nodes(self) -> np.ndarray:
        """The fem1d tent nodes z_0..z_{N+1}, endpoints included."""
        return np.arange(self.space.size + 2) * self.space.h

    def stiffness(self, f: np.ndarray, axis: int) -> np.ndarray:
        """nu (2 f_i - f_{i-1} - f_{i+1}) / h along ``axis`` of ``f``, whose
        N+2 entries there are values at the tent ``nodes``: the diffusion
        part nu int phi_i' u' of fem feature i, exact for any u with those
        nodal values, since phi_i' is +-1/h on the two cells of tent i."""
        f = np.moveaxis(f, axis, 0)
        out = 2.0 * f[1:-1]
        out -= f[:-2]
        out -= f[2:]
        out *= self.nu_diff / self.space.h
        return np.moveaxis(out, 0, axis)

    @property
    def weights_val(self) -> np.ndarray:
        """The N x G value weights; for sine features formed on every read
        and not kept."""
        return self.value_rows(slice(None))

    def value_rows(self, rows: slice) -> np.ndarray:
        """Rows ``rows`` of the value weights: a view of the stored fem1d
        array, or for sine features those rows formed now, with the bits of
        the same rows of ``weights_val``.  A sine2d row is the outer
        product of two rows of the axis sines, times 2: the bits of the
        same row of ``spaces.basis_values``."""
        if self._weights is not None:
            return self._weights[rows]
        if self._sines is None:
            modes = np.arange(1, self.space.size + 1)[rows]
            phi = spaces.sine_rows(modes, self.quad_points)
        else:
            s, p = self._sines, self.space.n_per_dim
            r = np.arange(self.space.size)[rows]
            phi = (s[r // p][:, :, None] * s[r % p][:, None, :]) \
                .reshape(r.size, -1)
            phi *= 2.0
        self._weigh(phi, rows)
        return phi

    def _weigh(self, phi: np.ndarray, rows: slice) -> None:
        """Turn the sine basis values ``phi`` of the modes ``rows`` into
        their weights in place, a block of rows at a time:
        phi (w c) + (phi nu lambda) w, in that order of operations."""
        w = trapezoid_weights(self.n_quad, self.space.dim)
        wc = w * self.c_field
        scale = (self.nu_diff * self.space.eigenvalues[rows])[:, None]
        block = max(1, _WEIGHT_BLOCK_ELEMENTS // w.shape[0])
        for lo in range(0, phi.shape[0], block):
            b = phi[lo:lo + block]
            a = b * wc
            b *= scale[lo:lo + block]
            b *= w
            b += a

    def pair(self, t: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """t @ weights_val.T for rows ``t`` of values on the grid, written
        into ``out`` when given.

        For sine1d, row i of the weights is sqrt(2) sin(pi i k/(q-1)) times
        w c + nu lambda_i w, so the pairing is

            (sqrt(2)/2) [DST-I(t w c) + nu lambda DST-I(t w)]

        over the interior nodes, cut to the first N modes; when c is
        constant on the grid that is (sqrt(2)/2)(c_0 + nu lambda) DST-I(t w),
        one transform.

        For sine2d, with each row of ``t`` a q x q array T and s the axis
        sines, the pairing is

            2 s (w c T) s^T + nu lambda 2 s (w T) s^T,

        the two terms stacked into one GEMM with s^T along y, then one
        along x.
        """
        if self._weights is not None:
            return np.matmul(t, self._weights.T, out=out)
        n, c = self.n_features, self.c_field
        nu_lam = self.nu_diff * self.space.eigenvalues
        if self._sines is not None:
            s, p, q, b = self._sines, self.space.n_per_dim, self.n_quad, len(t)
            w = trapezoid_weights(q, 2)
            u = np.empty((2, b, q * q))
            np.multiply(t, w * c, out=u[0])
            np.multiply(t, w, out=u[1])
            v = (u.reshape(-1, q) @ s.T).reshape(2 * b, q, p)    # along y
            v = v.transpose(0, 2, 1).reshape(-1, q) @ s.T          # along x
            # v[term, row, i, j]
            v = v.reshape(2, b, p, p).transpose(0, 1, 3, 2)
            pairing = v[1] * nu_lam.reshape(p, p)
            pairing += v[0]
            return np.multiply(pairing.reshape(b, n), 2.0, out=out)
        w = trapezoid_weights(self.n_quad)[1:-1]
        s = dst(t[:, 1:-1] * w, type=1, overwrite_x=True)[:, :n]
        if np.all(c == c[0]):
            return np.multiply(s, np.sqrt(2.0) / 2.0 * (c[0] + nu_lam),
                               out=out)
        sc = dst(t[:, 1:-1] * (w * c[1:-1]), type=1, overwrite_x=True)[:, :n]
        s *= nu_lam
        s += sc
        return np.multiply(s, np.sqrt(2.0) / 2.0, out=out)

    def combine(self, alpha: np.ndarray) -> np.ndarray:
        """The combined weight rows alpha^T @ weights_val: one row for a
        vector ``alpha``, one per column of an N x K matrix.  For sine1d,
        w c synth(alpha) + w synth(nu lambda alpha), with synth the sine
        synthesis on the grid of each column, all in one stacked DST-I (one
        synthesis, of (c_0 + nu lambda) alpha, when c is constant).  For
        sine2d, with A the p x p coefficients of a column and s the axis
        sines, w c 2 s^T A s + w 2 s^T (nu lambda A) s, batched over the
        columns."""
        a = alpha.T
        if self._weights is not None:
            return a @ self._weights
        q, c = self.n_quad, self.c_field
        w = trapezoid_weights(q, self.space.dim)
        nu_lam = self.nu_diff * self.space.eigenvalues
        if self._sines is not None:
            s, p = self._sines, self.space.n_per_dim
            b = np.stack([a, nu_lam * a]).reshape(2, -1, p, p)
            row, diffusion = 2.0 * (s.T @ b @ s).reshape(
                (2,) + a.shape[:-1] + (-1,))
        elif np.all(c == c[0]):
            return w * spaces.sine_synthesis((c[0] + nu_lam) * a, q)
        else:
            row, diffusion = spaces.sine_synthesis(
                np.stack([a, nu_lam * a]), q)
        row *= w * c
        row += w * diffusion
        return row


@dataclass(frozen=True)
class GramBlocks:
    """One Gram array, operator features first, unregularized; the operator
    and boundary rows are views of it.  Weak-feature blocks also keep their
    kernel and ``FeatureSet`` (collocation blocks keep neither), from which
    ``on_grid`` evaluates a representer on the quadrature grid."""

    k_phi_phi: np.ndarray     # (N+M) x (N+M), symmetric
    n_features: int
    spec: KernelSpec = None
    features: FeatureSet = None

    @property
    def k_chi_phi(self) -> np.ndarray:
        return self.k_phi_phi[:self.n_features]

    @property
    def k_x_phi(self) -> np.ndarray:
        return self.k_phi_phi[self.n_features:]

    def on_grid(self, coeffs: np.ndarray) -> np.ndarray:
        """Grid values of the representer with these N + M coefficients,
        or the G x K values of an (N+M) x K matrix of coefficient columns:
        one grid product per combined weight row sum_i alpha_i w_i
        (``FeatureSet.combine``, sine syntheses for sine features), plus
        for fem the stencil rows, plus the boundary columns."""
        fs, n = self.features, self.n_features
        rows = fs.combine(coeffs[:n])
        values = _grid_product(self.spec, rows.reshape(-1, rows.shape[-1]),
                               fs.n_quad, fs.space.dim).reshape(rows.shape)
        if fs.space.kind == "fem1d":
            values += coeffs[:n].T @ _tent_rows(self.spec, fs, fs.quad_points)
        values += coeffs[n:].T @ _pairwise(self.spec, fs.boundary_points,
                                           fs.quad_points)
        return values.T

    @property
    def quad_eval(self) -> np.ndarray:
        """The dense G x (N+M) evaluation matrix, ``on_grid`` of the
        identity, formed on every read.  No solver path reads it; it stays
        for the span hooks of ``benchmarks/spans.py``."""
        return self.on_grid(np.eye(self.k_phi_phi.shape[0]))


@functools.lru_cache(maxsize=4)
def _circulant_spectrum(spec: KernelSpec, n_quad: int, dim: int):
    """Period P and conjugate spectrum of the circulant that embeds the
    grid kernel of ``_grid_product``, kept for the last few grids: a
    matrix-free assembly takes one grid product per small block of rows."""
    q = n_quad
    size = 2 * (q - 1) if dim == 2 else next_fast_len(2 * q - 1, real=True)
    j = np.arange(size)
    t = np.where(j < q, j, j - size) / (q - 1)      # signed offsets
    if dim == 2:
        c = _matern52(spec, np.hypot(t[:, None], t[None, :]))
    else:
        c = _matern52(spec, np.abs(t))
    c_hat = np.conj(rfftn(c))
    c_hat.flags.writeable = False
    return size, c_hat


def _grid_product(spec: KernelSpec, w: np.ndarray, n_quad: int, dim: int,
                  out: np.ndarray = None) -> np.ndarray:
    """w @ K(grid, grid) on the uniform grid of ``n_quad`` points per dim.

    K[k, l] = k(x_k - x_l) depends only on the lattice offset, so each row
    of the product is a correlation of the weight row with the kernel
    sampled at the signed offsets j*h, |j| <= q-1.  Those samples fill a
    circulant of period P per dim, and the correlation is one product of
    spectra, cropped back to the grid.  Grid rows are x-major, as in
    ``grid_points``.  The product is written into ``out`` when given.

    The kernel is even, so P = 2(q-1) is exact in any dimension: offsets j
    and j - P then share a circulant entry, but within |j| <= q-1 the only
    such pair is +-(q-1), where the kernel takes one value; so the period
    is exact for any weights, including rows that do not vanish on the
    grid edges.  2D uses it.  1D keeps P = next_fast_len(2q-1) >= 2q-1,
    which keeps every offset apart: the shorter period rounds every 1D
    grid product differently, and the ill-conditioned elliptic1d solve
    amplifies that (its ``rel_l2_error`` moved by 3.2e-5 relative).

    The 2D transforms are taken one axis at a time and skip what is zero
    or cropped: forward, a real FFT along y of the q rows, then an FFT
    along x zero-padded to P; inverse, an inverse FFT along x kept to its
    first q rows, then an inverse real FFT along y kept to its first q
    values.
    """
    q = n_quad
    size, c_hat = _circulant_spectrum(spec, q, dim)
    if out is None:
        out = np.empty((w.shape[0], q ** dim))
    block = max(1, _FFT_BLOCK_ELEMENTS // c_hat.size)
    for lo in range(0, w.shape[0], block):
        rows = w[lo:lo + block].reshape((-1,) + (q,) * dim)
        f = rfft(rows, size)                # along the last axis, y in 2D
        if dim == 2:
            f = fft(f, size, axis=1, overwrite_x=True)
        f *= c_hat
        if dim == 2:
            f = ifft(f, axis=1, overwrite_x=True)[:, :q]
        out[lo:lo + block] = \
            irfft(f, size)[..., :q].reshape(rows.shape[0], -1)
    return out


def _tent_rows(spec: KernelSpec, fs: FeatureSet, pts) -> np.ndarray:
    """D K(z, y) for the points y in ``pts``: row i is the diffusion part
    of fem feature i applied to K(., y), by the stencil on the nodes z."""
    return fs.stiffness(_pairwise(spec, fs.nodes, pts), 0)


def _operator_blocks(spec: KernelSpec, fs: FeatureSet, right_pts):
    """Features paired with K(., y_l) for the points ``right_pts`` (dense).

    Row i is chi_i applied to K(., y_l): the weights paired with the
    kernel columns (``FeatureSet.pair``), plus for fem the stencil rows.
    """
    val = fs.pair(_pairwise(spec, right_pts, fs.quad_points)).T
    if fs.space.kind == "fem1d":
        val += _tent_rows(spec, fs, right_pts)
    return val


def _symmetrize(a: np.ndarray) -> None:
    """a <- (a + a^T) / 2 in place, one pair of row and column blocks at a
    time; the same bits as forming the sum whole."""
    n = a.shape[0]
    block = max(1, -(-n // 4))
    for lo in range(0, n, block):
        rows = slice(lo, lo + block)
        for lo2 in range(lo, n, block):
            cols = slice(lo2, lo2 + block)
            t = a[rows, cols] + a[cols, rows].T
            t *= 0.5
            a[rows, cols] = t
            a[cols, rows] = t.T


def _gram(g: np.ndarray, k_cb, k_bb, spec: KernelSpec = None,
          fs: FeatureSet = None) -> GramBlocks:
    """GramBlocks of the array g = [[k_cc, k_cb], [k_cb^T, k_bb]] whose
    operator block k_cc is already in place: it is replaced by its
    symmetric part, and the boundary blocks are written around it."""
    n = k_cb.shape[0]
    _symmetrize(g[:n, :n])
    g[:n, n:] = k_cb
    g[n:, :n] = k_cb.T
    g[n:, n:] = k_bb
    return GramBlocks(g, n, spec, fs)


def assemble_features(spec: KernelSpec, fs: FeatureSet) -> GramBlocks:
    """All Gram blocks of the operator and boundary features.

    The value part of the operator block is taken a block of rows at a
    time: that block's weight rows (formed now for sine features), their
    grid products, then at once their pairing with the weights in y
    (``FeatureSet.pair``), written into the Gram array; no N x G product
    is kept.  For fem, with D the stencil and E = W K(grid, z), the terms
    E D^T + D E^T + D K(z, z) D^T are then added.
    """
    n, m = fs.n_features, fs.n_boundary
    q, dim = fs.n_quad, fs.space.dim

    g = np.empty((n + m, n + m))
    block = n if fs.space.kind == "fem1d" else \
        max(1, _WEIGHT_BLOCK_ELEMENTS // q ** dim)
    for lo in range(0, n, block):
        rows = slice(lo, min(lo + block, n))
        t = _grid_product(spec, fs.value_rows(rows), q, dim)
        fs.pair(t, out=g[rows, :n])
        del t
    if fs.space.kind == "fem1d":
        z = fs.nodes
        de = fs.stiffness(fs.pair(_pairwise(spec, z, fs.quad_points)), 0)
        g[:n, :n] += de.T
        g[:n, :n] += de
        g[:n, :n] += fs.stiffness(_tent_rows(spec, fs, z), 1)

    k_cb = _operator_blocks(spec, fs, fs.boundary_points)     # N x M
    return _gram(g, k_cb, kernel_matrix(spec, fs.boundary_points), spec, fs)


# (a, c) of point evaluation in _operator_pairing
_POINT = (0.0, 1.0)


def _operator_pairing(spec: KernelSpec, t: np.ndarray, left, right,
                      out: np.ndarray = None) -> np.ndarray:
    """(a_l d^2/dx^2 + c_l)(a_r d^2/dy^2 + c_r) K(x, y) at t = x - y, 1D.

    ``left`` and ``right`` are (a, c) pairs whose entries broadcast
    against ``t``; point evaluation is ``_POINT``.  The d4, d2 and value
    kernels share exp(-A|t|), so the pairing is that one exponential times
    a quadratic in A|t| that combines their three polynomials.  ``t`` is
    overwritten; the pairing is written into ``out`` when given.
    """
    a_l, c_l = left
    a_r, c_r = right
    big_a = np.sqrt(5.0) / spec.length_scale
    # weights of the d4, d2 and value polynomials:
    # d4 = (A^4/3)(3 - 5s + s^2) e, d2 = (A^2/3)(-1 - s + s^2) e,
    # K = (1 + s + s^2/3) e, with s = A|t| and e = exp(-s)
    w4 = a_l * a_r * big_a ** 4 / 3.0
    w2 = (a_l * c_r + a_r * c_l) * big_a ** 2 / 3.0
    w0 = c_l * c_r
    s = np.abs(t, out=t)
    s *= big_a
    out = np.multiply(w4 + w2 + w0 / 3.0, s, out=out)
    out += -5.0 * w4 - w2 + w0
    out *= s
    out += 3.0 * w4 - w2 + w0
    np.negative(s, out=s)
    out *= np.exp(s, out=s)
    return out


def _point_coefficients(c_field, x: np.ndarray):
    """c at the collocation points ``x`` as a column and as a row for
    ``_operator_pairing``; a scalar ``c_field`` stays a scalar, so no
    n x n weight array is broadcast from it."""
    c = np.asarray(c_field, dtype=float)
    if c.ndim == 0:
        return float(c), float(c)
    c = np.broadcast_to(c.ravel(), x.shape)
    return c[:, None], c[None, :]


def assemble_collocation(spec: KernelSpec, points, c_field, nu_diff: float,
                         boundary_points) -> GramBlocks:
    """Gram blocks for pointwise operator features (1D collocation).

    Feature i is the linearized operator evaluated at a point,
    chi_i(u) = -nu_diff * u''(x_i) + c_i * u(x_i), which is well defined on
    the Matern-5/2 RKHS.  The resulting loss is a plain sum of squared
    residuals at the collocation points (use it with an identity-weight
    seminorm), the pointwise/L2-style alternative to the weak-norm loss.
    """
    x = np.atleast_1d(np.asarray(points, dtype=float))
    c_col, c_row = _point_coefficients(c_field, x)
    bp = _as_points(boundary_points)
    if bp.shape[1] != 1:
        raise ValueError("collocation features are 1D only")
    n = x.shape[0]
    g = np.empty((n + bp.shape[0],) * 2)
    op = (-nu_diff, c_col)
    _operator_pairing(spec, x[:, None] - x[None, :], op,
                      (-nu_diff, c_row), out=g[:n, :n])
    k_cb = _operator_pairing(spec, x[:, None] - bp[:, 0][None, :], op,
                             _POINT)
    return _gram(g, k_cb, kernel_matrix(spec, bp))


def evaluate_collocation(spec: KernelSpec, points, c_field, nu_diff: float,
                         boundary_points, eval_points) -> np.ndarray:
    """Evaluation matrix for a collocation representer, E[p, i] = phi_i(y_p)."""
    x = np.atleast_1d(np.asarray(points, dtype=float))
    _, c_row = _point_coefficients(c_field, x)
    bp = _as_points(boundary_points)
    y = np.atleast_1d(np.asarray(eval_points, dtype=float))
    op_cols = _operator_pairing(spec, y[:, None] - x[None, :], _POINT,
                                (-nu_diff, c_row))
    bd_cols = _matern52(spec, np.abs(y[:, None] - bp[:, 0][None, :]))
    return np.hstack([op_cols, bd_cols])


def evaluate_features(spec: KernelSpec, fs: FeatureSet,
                      points) -> np.ndarray:
    """Evaluation matrix E with E[p, i] = (i-th feature function)(point_p).

    Columns are ordered operator features first, then boundary features, so
    a representer with coefficients c evaluates to E @ c.
    """
    pts = _as_points(points)
    op_cols = _operator_blocks(spec, fs, pts)                 # N x P
    bd_cols = _pairwise(spec, fs.boundary_points, pts)        # M x P
    return np.vstack([op_cols, bd_cols]).T
