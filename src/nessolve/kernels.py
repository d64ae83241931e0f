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

fem features are translates of one stencil: tent i weighs the kernel
values on the 2r + 1 grid nodes of its support, r = (q - 1)/(N + 1), by
the trapezoid rule times c, and its diffusion part nu int phi_i' u' is
exactly nu (2 u(z_i) - u(z_{i-1}) - u(z_{i+1})) / h at the tent nodes
z_k = k h, which the grid must hold.  Every tent shares those 2r + 1
weights (``_fem_stencil``), a feature paired with K(., x) is their sum of
kernel values (``_fem_columns``), and the operator block is the Toeplitz
matrix of its first column.

sine2d features are weighted sums of kernel values on a uniform grid, one
weight row per feature, by a Filon-type rule (``spaces.filon_weights``):
the sines are integrated exactly against the piecewise quintic
interpolant of c K(., y) on the grid, so the grid need not sample the top
modes finely (about 2p + 3 points per dim, ``spaces.default_n_quad``).
Only the value kernel is ever integrated, and every sine2d Gram block is
weight rows applied to pairwise kernel matrices.

On the grid itself that pairwise matrix depends only on the offset between
nodes (block-Toeplitz), so the grid-by-grid products are correlations
computed with FFTs of a circulant embedding of the kernel (Dietrich &
Newsam, SIAM J. Sci. Comput. 18, 1997); no grid-by-grid matrix is ever
formed.  With q points per dim, the circulant has period 2(q-1) per dim,
where folding +(q-1) onto -(q-1) loses nothing for the even kernel.
The transforms go one axis at a time, y then x forward and x then y
inverse, so that neither the zero padding nor the cropped rows are
transformed along y.  Products against the boundary points and arbitrary
evaluation points are small and stay dense.

With c constant, as at Gauss-Newton iteration 0 (u_0 = 0), the sine2d
operator block takes no grid product (``_sine2d_lattice_block``): every
row is 2 d_ij F_i (x) F_j, so the block is a contraction of the
cross-correlations of the Filon rows with the kernel at the lattice
offsets, 4 d_ij d_kl sum A_ik(d_1) kappa(d_1, d_2) A_jl(d_2), taken in the
Fourier basis of the same circulant: two GEMMs of p^2 x q matrices, about
p^4 q flops, instead of p^2 grid products over (2(q-1))^2 points each.  A
varying c takes the grid products.

Pointwise collocation features pair the kernel with the operator at both
points; the derivatives involved share one exponential, so each entry
costs one ``exp``.  Every kind fills one (N+M) x (N+M) Gram array,
unregularized, and no solver regularizes it: ``gauss_newton.KKTSystem``
adds only gamma times the test-space energy to its operator block.

Memory.  No feature holds an N x G array (G grid points): sine1d and fem
features are columns at points, and sine2d weight rows are separable,
2 F_i(x) F_j(y) times c + nu lambda_ij, so pairing and combining them are
contractions with the p x q Filon weights F, one axis at a time.  sine2d
assembly with a varying c forms its rows a block of 256 KiB at a time,
takes their grid products and pairs them at once; every pairing of the
weights with kernel values, on the grid or against the boundary points,
goes through ``FeatureSet.pair``.  With a constant c it holds one p^2 x q
array and one p x N block of rows.  The operator block of every kind is
written straight into the Gram array, which is then symmetrized in place.

Grid values of representers are taken one way only (``grid_values``,
which ``GramBlocks.on_grid`` calls on the quadrature grid): for a
coefficient vector or for each column of a matrix of them, on the
quadrature grid or on a finer grid that nests it, such as the metric grid
of the 2D experiments.  sine1d and sine2d values are matrix-free; fem
values are the coefficients times the fem columns at the grid points.  No
solver path forms the G x (N+M) evaluation matrix; ``quad_eval`` builds
it from ``on_grid`` on the identity when read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import fft, ifft, irfft, rfft, rfftn
from scipy.linalg import toeplitz

from . import spaces
from .errors import ResolutionTooCoarseError
from .spaces import TestSpace, filon_weights, grid_points

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
# _grid_product, (b, P, P/2+1): 512 KiB, so
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
# elements of one square block pair that ``_symmetrize`` sums at a time:
# 256 KiB, so symmetrizing the operator block adds no array of a size
# that grows with N
_SYMMETRIZE_BLOCK_ELEMENTS = 2 ** 15


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

    fem features need a constant c too.  Tent i is the trapezoid rule on
    the tent times c, plus the diffusion part
    nu (2 delta_{z_i} - delta_{z_{i-1}} - delta_{z_{i+1}}) / h at the tent
    nodes, exact since phi_i' is +-1/h on the two cells of tent i; so the
    grid spacing must divide h.  Every tent has the same weights on its
    own nodes (``_fem_stencil``), and the features store none.

    sine2d features store none either: row (i, j) of their weights on the
    kernel values (``value_rows``) at node (x_k, y_l) is
    2 F_ik F_jl (c + nu lambda_ij) with F the p x q Filon weights
    F_ik = int sin(pi i x) l_k(x) dx of the grid's piecewise quintic
    cardinal functions l_k (``spaces.filon_weights``, at least 6 points
    per dim), so the rows a grid product needs are formed a block at a
    time (``value_rows``), pairing grid rows with every weight row is a
    contraction with F along y, then along x (``pair``), and a
    combination of weight rows is F^T A F (``combine``).
    """

    space: TestSpace
    c_field: np.ndarray
    nu_diff: float
    boundary_points: np.ndarray
    n_quad: int
    quad_points: np.ndarray = field(default=None, repr=False)
    # the p x q Filon weights, sine2d only
    _filon: np.ndarray = field(default=None, init=False, repr=False)

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
        if sp.kind in ("sine1d", "fem1d") and np.any(c != c[0]):
            raise ValueError(
                f"{sp.kind} features need a constant c, got values from "
                f"{c.min():g} to {c.max():g}")
        object.__setattr__(self, "c_field", c)
        object.__setattr__(self, "boundary_points", bp)
        object.__setattr__(self, "quad_points", pts)
        if sp.kind == "sine2d":
            object.__setattr__(self, "_filon",
                               filon_weights(sp.n_per_dim, self.n_quad))

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
        for sine2d the Filon weights, 2 F f F^T; otherwise
        ``spaces.project``, whose DST-I and tent sums are the trapezoid rule
        of the sine1d and fem1d features."""
        if self._filon is None:
            return spaces.project(spaces.GridFunction(f), self.space).entries
        q, fw = self.n_quad, self._filon
        return 2.0 * (fw @ f.reshape(q, q) @ fw.T).ravel()

    def value_rows(self, rows: slice) -> np.ndarray:
        """Rows ``rows`` of the sine2d weights W on the kernel values,
        formed now, entry by entry, so a block of rows has the bits of the
        same rows of the whole.  A row is 2 F_i (x) F_j, the outer product
        of two rows of the Filon weights, times c + nu lambda_ij, scaled in
        place a block of rows at a time."""
        fw, p = self._filon, self.space.n_per_dim
        r = np.arange(self.space.size)[rows]
        rows_out = (fw[r // p][:, :, None] * fw[r % p][:, None, :]) \
            .reshape(r.size, -1)
        rows_out *= 2.0
        nu_lam = self.nu_diff * self.space.eigenvalues[r]
        block = max(1, _WEIGHT_BLOCK_ELEMENTS // rows_out.shape[1])
        for lo in range(0, r.size, block):
            rows_out[lo:lo + block] *= \
                self.c_field + nu_lam[lo:lo + block, None]
        return rows_out

    def pair(self, t: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """t @ W.T for rows ``t`` of values on the grid, written
        into ``out`` when given (sine2d).

        With each row of ``t`` a q x q array T and F the Filon
        weights, the pairing is

            2 F (c T) F^T + nu lambda 2 F T F^T,

        the two terms stacked into one GEMM with F^T along y, then one
        along x.
        """
        n = self.n_features
        nu_lam = self.nu_diff * self.space.eigenvalues
        fw, p, q, b = self._filon, self.space.n_per_dim, self.n_quad, len(t)
        u = np.empty((2, b, q * q))
        np.multiply(t, self.c_field, out=u[0])
        u[1] = t
        v = (u.reshape(-1, q) @ fw.T).reshape(2 * b, q, p)   # along y
        v = v.transpose(0, 2, 1).reshape(-1, q) @ fw.T         # along x
        # v[term, row, i, j]
        v = v.reshape(2, b, p, p).transpose(0, 1, 3, 2)
        pairing = v[1] * nu_lam.reshape(p, p)
        pairing += v[0]
        return np.multiply(pairing.reshape(b, n), 2.0, out=out)

    def combine(self, alpha: np.ndarray) -> np.ndarray:
        """The combined weight rows alpha^T @ W: one row for a
        vector ``alpha``, one per column of an N x K matrix (sine2d).  With
        A the p x p coefficients of a column and F the Filon weights,
        c 2 F^T A F + 2 F^T (nu lambda A) F, batched over the columns."""
        a = alpha.T
        nu_lam = self.nu_diff * self.space.eigenvalues
        fw, p = self._filon, self.space.n_per_dim
        b = np.stack([a, nu_lam * a]).reshape(2, -1, p, p)
        row, diffusion = 2.0 * (fw.T @ b @ fw).reshape(
            (2,) + a.shape[:-1] + (-1,))
        row *= self.c_field
        row += diffusion
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
    (``_sine1d_terms``).  For fem it is the coefficients times the fem
    columns at the grid points (``_fem_columns``).  For sine2d it is one
    grid product per combined weight row sum_i alpha_i w_i
    (``FeatureSet.combine``), taken on the finer grid with zeros between
    the quadrature nodes, so no fine-by-quadrature kernel matrix is
    formed.  The boundary columns are formed ``_BOUNDARY_BLOCK_ELEMENTS``
    at a time."""
    n, q, kind = fs.n_features, fs.n_quad, fs.space.kind
    n_points = n_points or q
    stride, rest = divmod(n_points - 1, q - 1)
    if rest or stride < 1:
        raise ValueError(f"a grid of {n_points} points per dim does not "
                         f"nest the quadrature grid of {q}")
    pts = fs.quad_points if stride == 1 else \
        grid_points(n_points, fs.space.dim)
    if kind == "sine1d":
        a, d, (s_hat, _, layer_coeffs) = _sine1d_parts(spec, fs)
        beta = coeffs[:n].T * d
        values = spaces.sine_synthesis(s_hat * beta, n_points)
        values += (beta @ layer_coeffs) @ _layers(a, pts)
    elif kind == "fem1d":
        values = coeffs[:n].T @ _fem_columns(spec, fs, pts)
    else:
        rows = fs.combine(coeffs[:n])
        lead = rows.shape[:-1]
        rows = rows.reshape(-1, q, q)
        if stride > 1:
            fine = np.zeros((rows.shape[0], n_points, n_points))
            fine[:, ::stride, ::stride] = rows
            rows = fine
        values = _grid_product(spec, rows.reshape(rows.shape[0], -1),
                               n_points).reshape(lead + (-1,))
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


def _fem_stencil(fs: FeatureSet):
    """The grid nodes (i + 1) r + l, |l| <= r, of every tent i, N x
    (2r + 1), and the weights they all share: s_l = c (1 - |l|/r)/(q - 1),
    the trapezoid rule on the tent times c (its halved end weights fall
    where the tent is zero), plus nu/h (2, -1, -1) at l = 0, -r and r."""
    n, q = fs.n_features, fs.n_quad
    r = (q - 1) // (n + 1)
    offsets = np.arange(-r, r + 1)
    nodes = fs.quad_points[(np.arange(1, n + 1) * r)[:, None] + offsets]
    s = (1.0 - np.abs(offsets) / r) * (fs.c_field[0] / (q - 1))
    d = fs.nu_diff / fs.space.h
    s[r] += 2.0 * d
    s[[0, -1]] -= d
    return nodes, s


def _fem_columns(spec: KernelSpec, fs: FeatureSet, x) -> np.ndarray:
    """The fem features paired with K(., x_p), N x P: sum_l s_l
    K(x_p - node_il) over each tent's stencil (``_fem_stencil``), one tap
    at a time, so no array larger than N x P is formed."""
    nodes, s = _fem_stencil(fs)
    cols = np.zeros((nodes.shape[0], x.shape[0]))
    for node, weight in zip(nodes.T, s):
        cols += weight * _matern52(spec, np.abs(x[None, :] - node[:, None]))
    return cols


@functools.lru_cache(maxsize=4)
def _circulant_spectrum(spec: KernelSpec, n_quad: int):
    """Period P and conjugate spectrum of the circulant that embeds the
    grid kernel of ``_grid_product``, kept for the last few grids: a
    matrix-free assembly takes one grid product per small block of rows."""
    q = n_quad
    size = 2 * (q - 1)
    j = np.arange(size)
    t = np.where(j < q, j, j - size) / (q - 1)      # signed offsets
    c_hat = np.conj(rfftn(_matern52(spec, np.hypot(t[:, None], t[None, :]))))
    c_hat.flags.writeable = False
    return size, c_hat


def _grid_product(spec: KernelSpec, w: np.ndarray,
                  n_quad: int) -> np.ndarray:
    """w @ K(grid, grid) on the 2D grid of ``n_quad`` points per dim.

    K[k, l] = k(x_k - x_l) depends only on the lattice offset, so each row
    of the product is a correlation of the weight row with the kernel
    sampled at the signed offsets j*h, |j| <= q-1, per dim.  Those samples
    fill a circulant of period P = 2(q-1) per dim, and the correlation is
    one product of spectra, cropped back to the grid.  Grid rows are
    x-major, as in ``grid_points``.

    The kernel is even, so that period is exact for any weights: offsets
    j and j - P share a circulant entry, but within |j| <= q-1 the only
    such pair is +-(q-1), where the kernel takes one value.

    The transforms are taken one axis at a time and skip what is zero or
    cropped: forward, a real FFT along y of the q rows, then an FFT along
    x zero-padded to P; inverse, an inverse FFT along x kept to its first
    q rows, then an inverse real FFT along y kept to its first q values.
    """
    q = n_quad
    size, c_hat = _circulant_spectrum(spec, q)
    out = np.empty((w.shape[0], q * q))
    block = max(1, _FFT_BLOCK_ELEMENTS // c_hat.size)
    for lo in range(0, w.shape[0], block):
        rows = w[lo:lo + block].reshape(-1, q, q)
        f = fft(rfft(rows, size), size, axis=1, overwrite_x=True)
        f *= c_hat
        f = ifft(f, axis=1, overwrite_x=True)[:, :q]
        out[lo:lo + block] = \
            irfft(f, size)[..., :q].reshape(rows.shape[0], -1)
    return out


def _sine2d_lattice_block(spec: KernelSpec, fs: FeatureSet,
                          out: np.ndarray) -> None:
    """The sine2d operator block for a constant c, written into the N x N
    ``out`` with no grid product.

    Row (i, j) of the weights is 2 d_ij F_i (x) F_j, d_ij = c + nu
    lambda_ij, and the grid kernel depends only on the lattice offset
    (d_1, d_2), so

        k_cc[(i,j),(k,l)] = 4 d_ij d_kl sum A_ik(d_1) kappa(d_1,d_2) A_jl(d_2)

    over |d| <= q - 1, with A_ik(d) = sum_{x - y = d} F_ix F_ky the
    cross-correlation of two rows of the Filon weights F and kappa the
    kernel at the offsets.  Summed over the offsets its terms cancel, to
    1.6e-14 of max |k_cc| from a long-double oracle at p = 12, where the
    grid products are 5.6e-15 off; so it is taken in the Fourier basis of
    the circulant of ``_grid_product`` (period P = 2(q - 1) per dim), where
    it rounds as the grid products do.  By Parseval it is
    sum C_ik(m_1) kappa^(m_1, m_2) C_jl(m_2) / P^2, with kappa^ the real
    spectrum of the circulant (``_circulant_spectrum``) and
    C_ik = Re(f_i conj(f_k)) from the real FFTs f_i of the rows of F padded
    to P.  kappa^ and C are even in m, so m runs over 0..q-1 only, the
    inner modes counted twice.

    With C as a p^2 x q matrix, one i at a time takes C_i kappa^ C^T,
    p x N, scales it by the d's and writes it transposed to the rows
    (i, j); beside C it holds that one block of rows, and no second N x N
    array."""
    fw, p, q = fs._filon, fs.space.n_per_dim, fs.n_quad
    size, c_hat = _circulant_spectrum(spec, q)
    f_hat = rfft(fw, size).view(float).reshape(p, q, 2)      # [i, m, re/im]
    c = np.einsum("imr,kmr->ikm", f_hat, f_hat).reshape(p * p, q)
    fold = np.full(q, 2.0 / size)
    fold[[0, -1]] = 1.0 / size
    kappa = c_hat[:q].real * fold[:, None] * fold[None, :]
    d2 = 2.0 * (fs.c_field[0] + fs.nu_diff * fs.space.eigenvalues)
    d2 = d2.reshape(p, p)
    t = np.empty((p, p * p))
    for i in range(p):
        np.matmul(c[i * p:(i + 1) * p] @ kappa, c.T, out=t)
        rows = t.reshape(p, p, p)                                # [k, j, l]
        rows *= d2[:, None, :]
        rows *= d2[i, None, :, None]
        out[i * p:(i + 1) * p].reshape(p, p, p)[...] = \
            rows.transpose(1, 0, 2)


def _feature_columns(spec: KernelSpec, fs: FeatureSet, pts) -> np.ndarray:
    """The features paired with K(., y_p) for the points ``pts``, N x P:
    in closed form for sine1d (``_sine1d_columns``), over each tent's
    stencil for fem (``_fem_columns``), and for sine2d the weights paired
    with the dense kernel columns (``FeatureSet.pair``)."""
    if fs.space.kind == "sine1d":
        return _sine1d_columns(spec, fs, pts[:, 0])
    if fs.space.kind == "fem1d":
        return _fem_columns(spec, fs, pts[:, 0])
    return fs.pair(_pairwise(spec, pts, fs.quad_points)).T


def _symmetrize(a: np.ndarray) -> None:
    """a <- (a + a^T) / 2 in place, one pair of square blocks of at most
    ``_SYMMETRIZE_BLOCK_ELEMENTS`` at a time; the same bits as forming the
    sum whole."""
    n = a.shape[0]
    block = int(np.sqrt(_SYMMETRIZE_BLOCK_ELEMENTS))
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
    array, then the diagonal.  For fem it depends only on i - j, so it is
    the Toeplitz matrix of its first column, tent 0's stencil weights
    paired with the fem columns at tent 0's nodes.  For sine2d with c
    constant everywhere (the test sine1d and fem features pass) it is the
    lattice-offset contraction of ``_sine2d_lattice_block``, with no grid
    product.  For sine2d with a varying c it is taken a block of rows at a
    time: that block's weight rows, formed now, their grid products, then
    at once their pairing with the weights in y (``FeatureSet.pair``),
    written into the Gram array; no N x G product is kept.  The boundary
    block is ``_feature_columns`` at the boundary points.
    """
    n, m, q = fs.n_features, fs.n_boundary, fs.n_quad
    bp = fs.boundary_points

    g = np.empty((n + m, n + m))
    if fs.space.kind == "sine1d":
        _, d, (s_hat, moments, coeffs) = _sine1d_parts(spec, fs)
        np.matmul(d[:, None] * moments, (d[:, None] * coeffs).T,
                  out=g[:n, :n])
        i = np.arange(n)
        g[i, i] += d * s_hat * d
    elif fs.space.kind == "fem1d":
        nodes, s = _fem_stencil(fs)
        g[:n, :n] = toeplitz(_fem_columns(spec, fs, nodes[0]) @ s)
    elif np.all(fs.c_field == fs.c_field[0]):
        _sine2d_lattice_block(spec, fs, g[:n, :n])
    else:
        block = max(1, _WEIGHT_BLOCK_ELEMENTS // (q * q))
        for lo in range(0, n, block):
            rows = slice(lo, min(lo + block, n))
            fs.pair(_grid_product(spec, fs.value_rows(rows), q),
                    out=g[rows, :n])
    return _gram(g, _feature_columns(spec, fs, bp), kernel_matrix(spec, bp),
                 spec, fs)


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
    op_cols = _feature_columns(spec, fs, pts)                 # N x P
    bd_cols = _pairwise(spec, fs.boundary_points, pts)        # M x P
    return np.vstack([op_cols, bd_cols]).T
