"""Matern-5/2 kernel and Gram-block assembly for operator/boundary features.

Operator features are weak integrals of the linearized operator applied to
the kernel.  For sine test functions the Laplacian is moved onto the test
function, exactly, via its eigenvalue, so a sine feature is the test
function times c + nu lambda_i.

sine1d features are in closed form, with no quadrature grid.  The kernel
is a Green's function of (a^2 - d^2/dx^2)^3 on the line, a = sqrt(5)/ell
(Rasmussen & Williams, *Gaussian Processes for Machine Learning*, 2006,
section 4.2), so K phi_j is s(pi j) phi_j, s the spectral density, plus
the six layers x^m e^{-ax} and (1-x)^m e^{-a(1-x)}, m <= 2.  With c
constant the operator block is D (S + M R^T) D: D the diagonal
c + nu lambda_i, S the diagonal s(pi i), and M and R the N x 6 sine
moments and coefficients of the layers (``_sine1d_terms``).  Assembly
writes it with one GEMM and a diagonal, the boundary block and any
evaluation are the same closed form at points, and grid values are one
sine synthesis plus the six layers (``GramBlocks.on_grid``).

Every other feature is a weighted sum of kernel values on a uniform
quadrature grid, one weight row per feature.  fem rows take the trapezoid
rule.  sine2d rows take the sixth-order Gregory rule
(``spaces.gregory_weights``): the integrands phi_i c K(., y) do not vanish
in slope at the ends of [0, 1], where the trapezoid rule is only O(h^2),
and with the end corrections the default grid of about 5p/2 + 5 points
per dim (``spaces.default_n_quad``) gives features closer to their
integrals than the trapezoid rule on 4p + 1 points.  For fem tent
functions the diffusion part nu int phi_i' u' is exactly
nu (2 u(z_i) - u(z_{i-1}) - u(z_{i+1})) / h at the tent nodes z_k = k h,
which the grid is required to contain, so it is three grid deltas in the
weight row.  So only the value kernel is ever integrated, and every Gram
block is weight rows applied to pairwise kernel matrices.

On the grid itself that pairwise matrix depends only on the offset between
nodes (Toeplitz in 1D, block-Toeplitz in 2D), so the grid-by-grid products
are correlations computed with FFTs of a circulant embedding of the kernel
(Dietrich & Newsam, SIAM J. Sci. Comput. 18, 1997); no grid-by-grid matrix
is ever formed.  With q points per dim, the circulant has period 2(q-1) in
2D, where folding +(q-1) onto -(q-1) loses nothing for the even kernel, and
next_fast_len(2q-1) in 1D (see ``_grid_product`` for why 1D keeps it).
The 2D transforms go one axis at a time, y then x forward and x then y
inverse, so that neither the zero padding nor the cropped rows are
transformed along y.  Products against the boundary points and arbitrary
evaluation points are small and stay dense.

Pointwise collocation features pair the kernel with the operator at both
points; the derivatives involved share one exponential, so each entry
costs one ``exp``.  Every kind fills one (N+M) x (N+M) Gram array,
unregularized: ``gauss_newton.KKTSystem`` adds the nugget and any jitter.

Memory.  sine2d features hold no N x G array (G grid points): their
weight rows are separable sines, 2 sin(pi i x) sin(pi j y), times a
diagonal, so pairing and combining them are contractions with the p x q
axis sines, one axis at a time.  fem features hold one N x G array, their
weight rows, formed in place over the basis values, and pair by GEMM.
Assembly forms or reads the rows a block of 256 KiB at a time, takes their
grid products and pairs them at once.  Every pairing of the weights with
kernel values, on the grid or against the boundary points, goes through
``FeatureSet.pair``.  The operator block of every kind is written straight
into the Gram array, which is then symmetrized in place.

Grid values of representers are taken one way only, matrix-free
(``grid_values``, which ``GramBlocks.on_grid`` calls on the quadrature
grid): for a coefficient vector or for each column of a matrix of them,
on the quadrature grid or on a finer grid that nests it, such as the
metric grid of the 2D experiments.  No solver path forms the G x (N+M)
evaluation matrix; ``quad_eval`` builds it from ``on_grid`` on the
identity when read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import fft, ifft, irfft, next_fast_len, rfft, rfftn

from . import spaces
from .errors import ResolutionTooCoarseError
from .spaces import TestSpace, gregory_weights, grid_points, \
    trapezoid_weights

__all__ = [
    "KernelSpec",
    "FeatureSet",
    "GramBlocks",
    "kernel_matrix",
    "grid_values",
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
# real elements of one block of sine2d weight rows that FeatureSet weighs
# in place, and that assembly forms, transforms and pairs: 256 KiB, so
# that the passes over a block stay in L2
_WEIGHT_BLOCK_ELEMENTS = 2 ** 15
# kernel values between the boundary points and a block of grid points
# that ``grid_values`` forms at a time: 512 KiB, so the boundary columns on
# a fine metric grid add no array of the grid's size times M; the 1D
# pipelines' two boundary points take every grid up to 2^15 points at once
_BOUNDARY_BLOCK_ELEMENTS = 2 ** 16


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
    """Weak operator features plus boundary points, with the grid that
    representers are evaluated on.

    The linearized operator is -nu_diff * Laplacian + c(x).  sine1d
    features need no quadrature: c must be constant (``ValueError``
    otherwise), feature i is (c + nu lambda_i) phi_i, and its Gram blocks
    and values are in closed form (``_sine1d_terms``); the grid only sets
    where ``GramBlocks.on_grid`` evaluates, so it must carry the N modes.

    Every other feature is a row of weights on the kernel values at the
    quadrature nodes (``value_rows``).  A fem row is the tent times w c,
    plus the diffusion part
    nu (2 delta_{z_i} - delta_{z_{i-1}} - delta_{z_{i+1}}) / h at the tent
    nodes, exact since phi_i' is +-1/h on the two cells of tent i; so the
    grid spacing must divide h, and no derivative of the kernel is ever
    integrated.  fem features store their weights, formed in place over
    the basis values, one N x G array.

    sine2d features store none: row (i, j) at node (x_k, y_l) is
    2 s_ik s_jl (w c + nu lambda w) with the p x q axis sines
    s_ik = sin(pi i x_k) and w the sixth-order Gregory weights
    (``spaces.gregory_weights``, at least 5 points per dim), so the rows a
    grid product needs are formed a block at a time (``value_rows``),
    pairing grid rows with every weight row is a contraction with s along
    y, then along x (``pair``), and a combination of weight rows is
    s^T A s (``combine``).
    """

    space: TestSpace
    c_field: np.ndarray
    nu_diff: float
    boundary_points: np.ndarray
    n_quad: int
    quad_points: np.ndarray = field(default=None, repr=False)
    # the weight rows, fem only
    _weights: np.ndarray = field(default=None, init=False, repr=False)
    # the p x q axis sines sin(pi i x_k) and the q x q Gregory weights,
    # sine2d only
    _sines: np.ndarray = field(default=None, init=False, repr=False)
    _gregory: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        sp = self.space
        if sp.kind in ("sine1d", "sine2d"):
            spaces._check_sine_resolution(sp, self.n_quad)
        elif sp.kind == "fem1d" and (self.n_quad - 1 < 2 * (sp.size + 1) or
                                     (self.n_quad - 1) % (sp.size + 1)):
            raise ResolutionTooCoarseError(
                f"{self.n_quad} grid points cannot hold the nodes of "
                f"{sp.size} tents: need {sp.size + 1} m + 1 points, m >= 2 "
                f"an integer")
        pts = grid_points(self.n_quad, sp.dim)
        c = np.broadcast_to(np.asarray(self.c_field, dtype=float).ravel(),
                            pts.shape[:1]).copy()
        bp = _as_points(self.boundary_points)
        if bp.shape[1] != sp.dim:
            raise ValueError("boundary point dimension mismatch")
        if len(np.unique(bp.round(decimals=14), axis=0)) != bp.shape[0]:
            raise ValueError("boundary points must be distinct")
        if sp.kind == "sine1d" and np.any(c != c[0]):
            raise ValueError(
                f"sine1d features need a constant c, got values from "
                f"{c.min():g} to {c.max():g}")
        object.__setattr__(self, "c_field", c)
        object.__setattr__(self, "boundary_points", bp)
        object.__setattr__(self, "quad_points", pts)
        if sp.kind == "sine2d":
            object.__setattr__(self, "_sines", spaces.axis_sines(
                sp.n_per_dim, grid_points(self.n_quad)))
            object.__setattr__(self, "_gregory",
                               gregory_weights(self.n_quad, 2))
        if sp.kind != "fem1d":
            return

        wv = spaces.basis_values(sp, pts)
        wv *= trapezoid_weights(self.n_quad) * c
        # the diffusion part as deltas: tent node z_k is grid node k r
        r = (self.n_quad - 1) // (sp.size + 1)
        i = np.arange(sp.size)
        d = self.nu_diff / sp.h
        wv[i, (i + 1) * r] += 2.0 * d
        wv[i, i * r] -= d
        wv[i, (i + 2) * r] -= d
        object.__setattr__(self, "_weights", wv)

    @property
    def n_features(self) -> int:
        return self.space.size

    @property
    def n_boundary(self) -> int:
        return self.boundary_points.shape[0]

    def measure(self, f: np.ndarray) -> np.ndarray:
        """Integrals of the grid values ``f`` against the test functions by
        the rule the features are integrated with, so that a Gauss-Newton
        step measures its shift as it measures the linearized operator:
        for sine2d the Gregory weights, 2 s (w f) s^T with s the axis
        sines; otherwise ``spaces.project``, whose DST-I and tent sums are
        the trapezoid rule of the sine1d and fem1d features."""
        if self._sines is None:
            return spaces.project(spaces.GridFunction(f), self.space).entries
        q, s = self.n_quad, self._sines
        return 2.0 * (s @ (self._gregory * f.ravel()).reshape(q, q)
                      @ s.T).ravel()

    def value_rows(self, rows: slice) -> np.ndarray:
        """Rows ``rows`` of the weights W on the kernel values (fem1d and
        sine2d): a view of the stored fem array, or for sine2d those rows
        formed now, entry by entry, so a block of rows has the bits of the
        same rows of the whole.  A sine2d row is the outer product of two
        rows of the axis sines, times 2: the bits of the same row of
        ``spaces.basis_values``."""
        if self._weights is not None:
            return self._weights[rows]
        s, p = self._sines, self.space.n_per_dim
        r = np.arange(self.space.size)[rows]
        phi = (s[r // p][:, :, None] * s[r % p][:, None, :]) \
            .reshape(r.size, -1)
        phi *= 2.0
        self._weigh(phi, rows)
        return phi

    def _weigh(self, phi: np.ndarray, rows: slice) -> None:
        """Turn the sine2d basis values ``phi`` of the modes ``rows`` into
        their weights in place, a block of rows at a time:
        phi (w c) + (phi nu lambda) w, in that order of operations."""
        w = self._gregory
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
        """t @ W.T for rows ``t`` of values on the grid, written
        into ``out`` when given (fem1d and sine2d).

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
        s, p, q, b = self._sines, self.space.n_per_dim, self.n_quad, len(t)
        w = self._gregory
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

    def combine(self, alpha: np.ndarray) -> np.ndarray:
        """The combined weight rows alpha^T @ W: one row for a
        vector ``alpha``, one per column of an N x K matrix (fem1d and
        sine2d).  For sine2d, with A the p x p coefficients of a column and
        s the axis sines, w c 2 s^T A s + w 2 s^T (nu lambda A) s, batched
        over the columns."""
        a = alpha.T
        if self._weights is not None:
            return a @ self._weights
        w = self._gregory
        nu_lam = self.nu_diff * self.space.eigenvalues
        s, p = self._sines, self.space.n_per_dim
        b = np.stack([a, nu_lam * a]).reshape(2, -1, p, p)
        row, diffusion = 2.0 * (s.T @ b @ s).reshape(
            (2,) + a.shape[:-1] + (-1,))
        row *= w * self.c_field
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
        """Grid values of the representer with these N + M coefficients on
        the quadrature grid (``grid_values``)."""
        return grid_values(self.spec, self.features, coeffs)

    @property
    def quad_eval(self) -> np.ndarray:
        """The dense G x (N+M) evaluation matrix, ``on_grid`` of the
        identity, formed on every read.  No solver path reads it; it stays
        for the span hooks of ``benchmarks/spans.py``."""
        return self.on_grid(np.eye(self.k_phi_phi.shape[0]))


def grid_values(spec: KernelSpec, fs: FeatureSet, coeffs: np.ndarray,
                n_points: int = 0) -> np.ndarray:
    """Values of the representer with these N + M coefficients on the
    uniform grid of ``n_points`` per dim, or the G x K values of an
    (N+M) x K matrix of coefficient columns, plus the boundary columns.
    The grid is the quadrature grid by default; any other must nest it:
    its spacing divides the quadrature spacing, ``ValueError`` otherwise.

    For sine1d, with beta_i = alpha_i d_i, that is the sine synthesis of
    s_i beta_i plus the six layers weighted by R^T beta
    (``_sine1d_terms``).  Otherwise it is one grid product per combined
    weight row sum_i alpha_i w_i (``FeatureSet.combine``), taken on the
    finer grid with the row's weights on the quadrature nodes and zeros
    between them, so the kernel is still summed over the quadrature nodes
    only and no fine-by-quadrature kernel matrix is formed.  The boundary
    columns are formed ``_BOUNDARY_BLOCK_ELEMENTS`` at a time."""
    n, q, dim = fs.n_features, fs.n_quad, fs.space.dim
    n_points = n_points or q
    stride, rest = divmod(n_points - 1, q - 1)
    if rest or stride < 1:
        raise ValueError(f"a grid of {n_points} points per dim does not "
                         f"nest the quadrature grid of {q}")
    pts = fs.quad_points if stride == 1 else grid_points(n_points, dim)
    if fs.space.kind == "sine1d":
        a, d, (s_hat, _, layer_coeffs) = _sine1d_parts(spec, fs)
        beta = coeffs[:n].T * d
        values = spaces.sine_synthesis(s_hat * beta, n_points)
        values += (beta @ layer_coeffs) @ _layers(a, pts)
    else:
        rows = fs.combine(coeffs[:n])
        lead = rows.shape[:-1]
        rows = rows.reshape((-1,) + (q,) * dim)
        if stride > 1:
            fine = np.zeros((rows.shape[0],) + (n_points,) * dim)
            fine[(slice(None),) + (slice(None, None, stride),) * dim] = rows
            rows = fine
        values = _grid_product(spec, rows.reshape(rows.shape[0], -1),
                               n_points, dim).reshape(lead + (-1,))
    bp, beta = fs.boundary_points, coeffs[n:].T
    step = max(1, _BOUNDARY_BLOCK_ELEMENTS // bp.shape[0])
    for lo in range(0, pts.shape[0], step):
        values[..., lo:lo + step] += beta @ _pairwise(spec, bp,
                                                      pts[lo:lo + step])
    return values.T


def _sine1d_terms(a, omega):
    """Closed forms of the sine1d features under the Matern-5/2 kernel
    k(t) = (1 + a|t| + (a t)^2/3) exp(-a|t|), for the modes j = 1..N of
    frequencies ``omega`` = pi j, in that order: (s, M, R) with

        K phi_j = s_j phi_j + sum_k R_jk L_k,    M_ik = int phi_i L_k,

    so the Gram matrix of the phi_i is diag(s) + M R^T.  The six layers
    L_k (``_layers``) are symmetric (k < 3) and antisymmetric (k >= 3)
    about x = 1/2.  Any float dtype of ``a`` and ``omega`` is kept.

    On [0, 1], K phi_j is the full-line convolution s(omega) phi_j, with
    s(w) = 16 a^5 / (3 (a^2 + w^2)^3), less the parts of
    sqrt(2) sin(omega y) at y < 0 and y > 1.  For y < 0 that part is
    sqrt(2) exp(-a x) P_j(x), where expanding k(x - y) in t = -y gives

        P_j(x) = I_0 (1 + a x + (a x)^2/3) + I_1 (a + 2 a^2 x/3)
                 + I_2 a^2/3,    I_k = Im k!/(a - i omega)^(k+1),

    whose coefficients c_0, c_1, c_2 are positive rationals in omega; for
    y > 1 it is (-1)^(j+1) times the mirror image.  So odd modes carry
    sqrt(2) c on the symmetric layers and even modes on the antisymmetric
    ones, and a cross-parity Gram entry is exactly zero.  The moments are
    int phi_i (x^m e^{-ax} +- (1-x)^m e^{-a(1-x)}) = 2 sqrt(2) Im J_m on
    the layers of mode i's parity, with J_m = int_0^1 x^m e^{zx} dx,
    z = -a + i omega_i, e^z = (-1)^i e^{-a}, from the recurrence
    J_0 = (e^z - 1)/z, J_m = (e^z - m J_{m-1})/z (stable: |z| > m).
    """
    n = omega.shape[0]
    r = a * a + omega * omega
    s_hat = 16.0 * a ** 5 / (3.0 * r ** 3)
    c = np.stack([
        omega * (15.0 * a ** 4 + 10.0 * (a * omega) ** 2 + 3.0 * omega ** 4)
        / (3.0 * r ** 3),
        a * omega * (7.0 * a * a + 3.0 * omega * omega) / (3.0 * r * r),
        a * a * omega / (3.0 * r)], axis=1)
    even = np.arange(1, n + 1) % 2 == 0
    e_z = np.where(even, 1.0, -1.0) * np.exp(-a)
    z = -a + 1j * omega
    j_m = (e_z - 1.0) / z
    im_j = [j_m.imag]
    for m in (1, 2):
        j_m = (e_z - m * j_m) / z
        im_j.append(j_m.imag)
    im_j = np.stack(im_j, axis=1)
    moments = np.zeros((n, 6), dtype=omega.dtype)
    coeffs = np.zeros((n, 6), dtype=omega.dtype)
    for cols, rows in ((slice(0, 3), ~even), (slice(3, 6), even)):
        moments[rows, cols] = 2.0 * np.sqrt(2.0) * im_j[rows]
        coeffs[rows, cols] = np.sqrt(2.0) * c[rows]
    return s_hat, moments, coeffs


def _layers(a, x) -> np.ndarray:
    """The six layers of ``_sine1d_terms`` at the points ``x``, 6 x P:
    x^m e^{-ax} + (1-x)^m e^{-a(1-x)}, then the same with a minus,
    m = 0, 1, 2."""
    y = 1.0 - x
    left = np.exp(-a * x) * np.stack([np.ones_like(x), x, x * x])
    right = np.exp(-a * y) * np.stack([np.ones_like(y), y, y * y])
    return np.concatenate([left + right, left - right])


def _sine1d_parts(spec: KernelSpec, fs: FeatureSet):
    """a = sqrt(5)/ell, the feature scales d_i = c + nu lambda_i (feature
    i is d_i phi_i) and ``_sine1d_terms`` at the modes of ``fs``."""
    a = np.sqrt(5.0) / spec.length_scale
    d = fs.c_field[0] + fs.nu_diff * fs.space.eigenvalues
    omega = np.pi * np.arange(1, fs.n_features + 1)
    return a, d, _sine1d_terms(a, omega)


def _sine1d_columns(spec: KernelSpec, fs: FeatureSet, x) -> np.ndarray:
    """The sine1d features paired with K(., x_p), N x P: d_i (K phi_i)(x_p)
    in closed form."""
    a, d, (s_hat, _, coeffs) = _sine1d_parts(spec, fs)
    cols = coeffs @ _layers(a, x)
    cols += s_hat[:, None] * spaces.basis_values(fs.space, x)
    cols *= d[:, None]
    return cols


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
    which keeps every offset apart: only fem features take 1D grid
    products, and the shorter period would round each of them
    differently, so the fem pipelines' outputs would not keep their bits.

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


def _operator_blocks(spec: KernelSpec, fs: FeatureSet, right_pts):
    """Features paired with K(., y_l) for the points ``right_pts`` (dense):
    row i is chi_i applied to K(., y_l), the weights paired with the kernel
    columns (``FeatureSet.pair``)."""
    return fs.pair(_pairwise(spec, right_pts, fs.quad_points)).T


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

    For sine1d the operator block is D (diag(s) + M R^T) D in closed form
    (``_sine1d_terms``): one N x 6 by 6 x N GEMM written into the Gram
    array, then the diagonal; the boundary block is d_i (K phi_i)(x_b).
    Otherwise it is taken a block of rows at a time: that block's weight
    rows (formed now for sine2d), their grid products, then at once their
    pairing with the weights in y (``FeatureSet.pair``), written into the
    Gram array; no N x G product is kept.
    """
    n, m = fs.n_features, fs.n_boundary
    q, dim = fs.n_quad, fs.space.dim
    bp = fs.boundary_points

    g = np.empty((n + m, n + m))
    if fs.space.kind == "sine1d":
        _, d, (s_hat, moments, coeffs) = _sine1d_parts(spec, fs)
        np.matmul(d[:, None] * moments, (d[:, None] * coeffs).T,
                  out=g[:n, :n])
        i = np.arange(n)
        g[i, i] += d * s_hat * d
        k_cb = _sine1d_columns(spec, fs, bp[:, 0])
    else:
        block = max(1, _WEIGHT_BLOCK_ELEMENTS // q ** dim)
        for lo in range(0, n, block):
            rows = slice(lo, min(lo + block, n))
            t = _grid_product(spec, fs.value_rows(rows), q, dim)
            fs.pair(t, out=g[rows, :n])
            del t
        k_cb = _operator_blocks(spec, fs, bp)                 # N x M
    return _gram(g, k_cb, kernel_matrix(spec, bp), spec, fs)


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
    if fs.space.kind == "sine1d":
        op_cols = _sine1d_columns(spec, fs, pts[:, 0])        # N x P
    else:
        op_cols = _operator_blocks(spec, fs, pts)
    bd_cols = _pairwise(spec, fs.boundary_points, pts)        # M x P
    return np.vstack([op_cols, bd_cols]).T
