"""Gauss-Newton solver for the weak-norm optimal-recovery problem.

Each iteration linearizes the operator at the current iterate, assembles
the Gram blocks of the induced operator/boundary features, and solves the
equality-constrained quadratic program

    min_c  (Bc - r)^T A^{-1} (Bc - r) + gamma * c^T G c
    s.t.   C c = g

with one solver, ``KKTSystem``: the boundary coefficients are eliminated
through the constraint and the remaining least-squares problem is factored
by one triangular-pentagonal QR, once per set of Gram blocks; ``solve``
applies the stored factors to the right-hand sides it is given.
The outer loop takes one step for linear families and one per iteration
for nonlinear ones; the SPDE time stepper solves it once for the identity
columns to form its solution map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack

from . import operators
from .errors import DegenerateFeaturesError, DivergenceError
from .kernels import FeatureSet, GramBlocks, KernelSpec, assemble_features, \
    evaluate_features
from .operators import OperatorSpec
from .seminorm import SeminormContext, seminorm_squared
# ``project`` stays a name of this module for benchmarks/spans.py, which
# wraps it here
from .spaces import GridFunction, MeasurementVector, TestSpace, \
    default_n_quad, project  # noqa: F401

__all__ = ["SolverConfig", "Representer", "SolveReport", "KKTSystem",
           "constrained_ls_solve", "solve", "evaluate"]

# block size of the triangular-pentagonal QR (the nb of LAPACK dtpqrt)
_TPQRT_BLOCK = 64


@dataclass(frozen=True)
class SolverConfig:
    """Everything the outer solve loop needs besides the operator."""

    space: TestSpace
    kernel: KernelSpec
    boundary_points: np.ndarray
    gamma: float = 1e-10
    s: float = 1.0
    n_quad: int = 0                 # per-dim quadrature points (0 = auto)
    g_boundary: np.ndarray = None   # boundary data, zeros when omitted
    max_iterations: int = 20
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")
        bp = np.atleast_1d(np.asarray(self.boundary_points, dtype=float))
        object.__setattr__(self, "boundary_points", bp)
        object.__setattr__(self, "n_quad",
                           self.n_quad or default_n_quad(self.space))
        m = bp.shape[0]
        g = np.zeros(m) if self.g_boundary is None \
            else np.asarray(self.g_boundary, dtype=float)
        if g.shape != (m,):
            raise ValueError("boundary data length mismatch")
        object.__setattr__(self, "g_boundary", g)


@dataclass(frozen=True)
class Representer:
    """A kernel representer u = sum_i alpha_i K(., chi_i) + sum_j beta_j
    K(., x_j) with its feature set."""

    coefficients: np.ndarray
    features: FeatureSet = None
    kernel: KernelSpec = None

    def __post_init__(self):
        fs = self.features
        if fs is not None and \
                self.coefficients.shape != (fs.n_features + fs.n_boundary,):
            raise ValueError("coefficient length must be N + M")


@dataclass
class SolveReport:
    """Loss history and termination diagnostics of one solve."""

    misfit_history: list = field(default_factory=list)
    penalty_history: list = field(default_factory=list)
    iterations: int = 0
    reason: str = ""
    jitter: float = 0.0                # largest Gram regularization
    final_grid: GridFunction = None    # solution on the quadrature grid

    @property
    def loss_history(self):
        return [a + b for a, b in
                zip(self.misfit_history, self.penalty_history)]


def _penalty_cholesky(g: np.ndarray, n: int, x: np.ndarray, h: np.ndarray):
    """Upper factor U of P = S11 + rho (I + H^T H), in a new Fortran array,
    with S11 = G11 - X^T X the Schur complement of the boundary block
    (X = L22^{-1} G21) and H = G22^{-1} G21; rho is 1e-10 of G's mean
    diagonal (the nugget of Chen et al., J. Comput. Phys. 2021) plus any
    rung of a jitter ladder.  Also rho, absolute and as a fraction of the
    mean diagonal.  Every try refills the same array."""
    nugget = 1e-10 * np.trace(g) / g.shape[0]
    scale = (np.diagonal(g) + nugget).mean()
    g11 = g[:n, :n].T           # G is symmetric: G11 read in Fortran order
    p = np.empty((n, n), order="F")
    for bump in (0.0, 1e-13, 1e-11, 1e-9):
        rho = nugget + bump * scale
        np.copyto(p, g11)
        blas.dgemm(-1.0, x, x, beta=1.0, c=p, trans_a=1, overwrite_c=1)
        blas.dgemm(rho, h, h, beta=1.0, c=p, trans_a=1, overwrite_c=1)
        p[np.diag_indices(n)] += rho
        try:
            return (scipy.linalg.cholesky(p, overwrite_a=True,
                                          check_finite=False),
                    rho, 1e-10 + bump)
        except scipy.linalg.LinAlgError:
            continue
    raise DegenerateFeaturesError(
        "feature Gram matrix is not positive definite", block="k_phi_phi")


class KKTSystem:
    """The step QP factored once by direct elimination of the boundary
    coefficients (Bjorck, Numerical Methods for Least Squares Problems,
    1996, section 5.1).

    The coefficients split into N operator ones c_o and M boundary ones
    c_b, and the Gram matrix G into blocks G11, G12 = G21^T, G22, the last
    K(boundary, boundary).  The constraint C c = G21 c_o + G22 c_b = g
    gives c_b = G22^{-1} g - H c_o with H = G22^{-1} G21, so B c = S11 c_o
    + H^T g with the Schur complement S11 = G11 - G12 G22^{-1} G21, and
    the penalty gamma c^T (G + rho I) c becomes, up to a constant,
    gamma (c_o^T P c_o - 2 rho c_o^T H^T G22^{-1} g) with P = S11 +
    rho (I + H^T H) = U^T U: the cross terms G12 - H^T G22 vanish.  With
    W the whitening of the test-space energy, c_o is the least-squares
    solution of

        [sqrt(gamma) U; W S11] c_o = [sqrt(gamma) rho U^{-T} H^T G22^{-1} g;
                                      W (r - H^T g)],

    factored by one triangular-pentagonal QR (LAPACK ``dtpqrt``), which
    keeps the triangle of U and costs about 2 N^3 flops.  No normal
    equations are formed, so the high-frequency features survive in double
    precision.  A build holds two N x N arrays besides the Gram: R over U
    and the reflectors over W S11.  Each ``solve`` applies them
    (``dtpmqrt``) to its right-hand sides.  G is regularized here only, by
    rho, the nugget plus any jitter rung; ``jitter`` is rho as a fraction
    of G's mean diagonal.
    """

    def __init__(self, ctx: SeminormContext, blocks: GramBlocks,
                 gamma: float):
        self.ctx = ctx
        self.blocks = blocks
        self.gamma = gamma
        g = blocks.k_phi_phi
        n, self.n_primal = blocks.k_chi_phi.shape
        if not np.isfinite(g).all():
            raise ValueError("Gram matrix holds a non-finite entry")
        try:
            self._l22 = scipy.linalg.cholesky(g[n:, n:], lower=True,
                                              check_finite=False)
            pivots = np.diagonal(self._l22)
            independent = pivots.min() > \
                self.n_primal * np.finfo(float).eps * pivots.max()
        except scipy.linalg.LinAlgError:
            independent = False
        if not independent:
            raise DegenerateFeaturesError(
                "boundary features are linearly dependent", block="k_x_phi")
        x = scipy.linalg.solve_triangular(self._l22, g[n:, :n], lower=True)
        self._h = scipy.linalg.solve_triangular(self._l22, x, trans="T",
                                                lower=True)
        # W S11 = W G11 - (W X^T) X, in the Fortran array whiten returns
        ws11 = np.asfortranarray(ctx.whiten(g[:n, :n].T))
        blas.dgemm(-1.0, ctx.whiten(x.T), x, beta=1.0, c=ws11,
                   overwrite_c=1)
        u, self._reg, self.jitter = _penalty_cholesky(g, n, x, self._h)
        # the right-hand sides per unit of G22^{-1} g (top) and of g
        # (bottom), the top one formed before the QR overwrites U
        self._top_map = scipy.linalg.solve_triangular(u, self._h.T,
                                                      trans="T")
        self._top_map *= np.sqrt(gamma) * self._reg
        self._bottom_map = ctx.whiten(self._h.T)
        u *= np.sqrt(gamma)
        self._r, self._v, self._t, info = lapack.dtpqrt(
            0, min(n, _TPQRT_BLOCK), u, ws11, overwrite_a=1, overwrite_b=1)
        if info != 0:
            raise ValueError(f"dtpqrt failed (info={info})")

    def solve(self, r_entries: np.ndarray, g_boundary: np.ndarray):
        """Coefficients for one right-hand side, or for each column of a
        matrix of them (a vector ``g_boundary`` is shared by all columns)."""
        n, m = self._r.shape[0], self._l22.shape[0]
        w = self.ctx.whiten(r_entries)
        vector = w.ndim == 1
        w = w.reshape(n, -1)
        g = np.broadcast_to(np.reshape(g_boundary, (m, -1)), (m, w.shape[1]))
        e = scipy.linalg.cho_solve((self._l22, True), g)     # G22^{-1} g
        top = np.asfortranarray(self._top_map @ e)
        bottom = np.asfortranarray(w - self._bottom_map @ g)
        top, _, info = lapack.dtpmqrt(0, self._v, self._t, top, bottom,
                                      trans="T", overwrite_a=1,
                                      overwrite_b=1)
        if info != 0:
            raise ValueError(f"dtpmqrt failed (info={info})")
        coeffs = np.empty((self.n_primal, w.shape[1]))
        coeffs[:n] = scipy.linalg.solve_triangular(self._r, top)
        coeffs[n:] = e - self._h @ coeffs[:n]
        if not np.all(np.isfinite(coeffs)):
            raise DegenerateFeaturesError("non-finite step solution",
                                          block="k_phi_phi")
        return coeffs[:, 0] if vector else coeffs

    def loss_terms(self, coeffs: np.ndarray, r_entries: np.ndarray):
        resid = self.blocks.k_chi_phi @ coeffs - r_entries
        misfit = seminorm_squared(self.ctx, resid)
        penalty = self.gamma * float(coeffs @ (self.blocks.k_phi_phi @ coeffs)
                                     + self._reg * (coeffs @ coeffs))
        return misfit, penalty


def constrained_ls_solve(ctx: SeminormContext, blocks: GramBlocks,
                         r_entries: np.ndarray, g_boundary: np.ndarray,
                         gamma: float):
    """One-shot solve of the step QP: its coefficients."""
    return KKTSystem(ctx, blocks, gamma).solve(r_entries, g_boundary)


def solve(op: OperatorSpec, xi: MeasurementVector, cfg: SolverConfig,
          u0: GridFunction = None):
    """Iterate linearize/assemble/step until the loss plateaus.

    Returns the final Representer and a SolveReport.  A linear family's
    step QP is the whole problem, so it stops after its first step with
    the reason ``"linear"``.  A nonlinear family rebuilds its Gram blocks
    and their factored KKTSystem every iteration (the linearization
    coefficient changes), first dropping the previous iterate's features,
    blocks and factors, so one set of N x G weight rows is live at a time;
    each iterate is evaluated on the grid matrix-free
    (``GramBlocks.on_grid``).
    """
    ctx = SeminormContext.build(cfg.space, cfg.s)
    dim = cfg.space.dim
    shape = (cfg.n_quad,) * dim
    u_grid = np.zeros(shape) if u0 is None else \
        np.broadcast_to(np.asarray(u0.values, dtype=float), shape).copy()

    report = SolveReport()
    for it in range(cfg.max_iterations):
        rep = fs = blocks = kkt = None
        lin = operators.linearize(op, GridFunction(u_grid))
        fs = FeatureSet(cfg.space, lin.c_field.values, lin.nu_diff,
                        cfg.boundary_points, cfg.n_quad)
        blocks = assemble_features(cfg.kernel, fs)
        kkt = KKTSystem(ctx, blocks, cfg.gamma)
        report.jitter = max(report.jitter, kkt.jitter)
        if op.is_linear:
            r = xi.entries
        else:
            r = xi.entries + fs.measure(lin.shift.values)
        coeffs = kkt.solve(r, cfg.g_boundary)
        misfit, penalty = kkt.loss_terms(coeffs, r)
        rep = Representer(coeffs, fs, cfg.kernel)
        u_grid = blocks.on_grid(coeffs).reshape(shape)
        loss = misfit + penalty
        if not np.isfinite(loss):
            raise DivergenceError("loss became non-finite", iteration=it)
        report.misfit_history.append(misfit)
        report.penalty_history.append(penalty)
        report.iterations = it + 1
        if op.is_linear:
            report.reason = "linear"
            break
        if it > 0:
            prev = report.loss_history[-2]
            if abs(prev - loss) <= cfg.tolerance * max(abs(prev), 1e-300):
                report.reason = "loss_plateau"
                break
    else:
        report.reason = "max_iterations"
    report.final_grid = GridFunction(u_grid)
    return rep, report


def evaluate(rep: Representer, points) -> np.ndarray:
    """Representer values at arbitrary points in the closed domain."""
    e = evaluate_features(rep.kernel, rep.features, points)
    return e @ rep.coefficients
