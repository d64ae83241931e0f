"""Gauss-Newton solver for the weak-norm optimal-recovery problem.

Each iteration linearizes the operator at the current iterate, assembles
the Gram blocks of the induced operator/boundary features, and solves the
equality-constrained quadratic program

    min_c  (Bc - r)^T A^{-1} (Bc - r) + gamma * c^T G c
    s.t.   C c = g

with one solver, ``KKTSystem``: a null-space QR factorization of the
whitened least-squares form, taken once per set of Gram blocks.  The outer
loop reuses it while the blocks do not change (linear families), and the
SPDE time stepper reuses it across all its right-hand sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import operators
from .errors import DegenerateFeaturesError, DivergenceError
from .kernels import FeatureSet, GramBlocks, KernelSpec, assemble_features, \
    evaluate_features
from .operators import OperatorSpec
from .seminorm import SeminormContext, seminorm_squared
from .spaces import GridFunction, MeasurementVector, TestSpace, project

__all__ = ["SolverConfig", "Representer", "SolveReport", "KKTSystem",
           "constrained_ls_solve", "gn_step", "solve", "evaluate"]


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
        n_modes = self.space.n_per_dim if self.space.kind == "sine2d" \
            else self.space.size
        n_quad = self.n_quad or 4 * n_modes + 1
        object.__setattr__(self, "n_quad", n_quad)
        m = bp.shape[0]
        g = np.zeros(m) if self.g_boundary is None \
            else np.asarray(self.g_boundary, dtype=float)
        if g.shape != (m,):
            raise ValueError("boundary data length mismatch")
        object.__setattr__(self, "g_boundary", g)


@dataclass(frozen=True)
class Representer:
    """A kernel representer u = sum_i alpha_i K(., chi_i) + sum_j beta_j
    K(., x_j) with its feature set and constraint multipliers."""

    coefficients: np.ndarray
    multipliers: np.ndarray
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
    final_grid: GridFunction = None    # solution on the quadrature grid

    @property
    def loss_history(self):
        return [a + b for a, b in
                zip(self.misfit_history, self.penalty_history)]


def _gram_cholesky(g: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the feature Gram matrix, with a small
    diagonal jitter ladder for matrices that are PSD only to round-off."""
    scale = np.trace(g) / g.shape[0]
    for bump in (0.0, 1e-13, 1e-11, 1e-9):
        try:
            return scipy.linalg.cholesky(
                g + bump * scale * np.eye(g.shape[0]), lower=True)
        except scipy.linalg.LinAlgError:
            continue
    raise DegenerateFeaturesError(
        "feature Gram matrix is not positive definite", block="k_phi_phi")


def _apply_q(h: np.ndarray, tau: np.ndarray, c: np.ndarray, side: str,
             trans: str = "N") -> np.ndarray:
    """Q c, Q^T c (side "L") or c Q (side "R") for Q held as Householder
    reflectors (``scipy.linalg.qr(..., mode="raw")``), in place when ``c``
    is Fortran-ordered."""
    cq, _, info = scipy.linalg.lapack.dormqr(
        side, trans, h, tau, c, max(1, 64 * max(c.shape)), overwrite_c=1)
    if info != 0:
        raise ValueError(f"dormqr failed (info={info})")
    return cq


class KKTSystem:
    """The step QP factored once by the null-space method.

    With G = L L^T and W the whitening of the test-space energy, the
    objective is ||S c - d||^2 for S = [W B; sqrt(gamma) L^T] and
    d = [W r; 0].  A QR of C^T = [Q1 Z] [R1; 0] splits c = Q1 y1 + Z y2;
    the constraint fixes y1 = R1^{-T} g, and a QR of S Z = U T gives
    y2 = T^{-1} U^T (d - S Q1 y1).  No normal equations are formed, so the
    high-frequency features survive in double precision.  Coefficients and
    multipliers are linear in (r, g); both maps are formed here, so each
    ``solve`` is one matrix-vector product.
    """

    def __init__(self, ctx: SeminormContext, blocks: GramBlocks,
                 gamma: float):
        self.ctx = ctx
        self.blocks = blocks
        self.gamma = gamma
        b, c = blocks.k_chi_phi, blocks.k_x_phi
        n, self.n_primal = b.shape
        m = c.shape[0]
        (h, tau), r1 = scipy.linalg.qr(c.T, mode="raw")
        r_diag = np.abs(np.diag(r1))
        if not r_diag.min() > self.n_primal * np.finfo(float).eps * \
                r_diag.max():
            raise DegenerateFeaturesError(
                "boundary features are linearly dependent", block="k_x_phi")
        # allocated before the work arrays, so freeing those can return
        # their memory to the system; the work arrays are Fortran-ordered
        # and updated in place
        self._solution = np.empty((self.n_primal + m, n + m))
        sq = np.empty((n + self.n_primal, self.n_primal), order="F")
        sq[:n] = ctx.whiten(b)
        sq[n:] = _gram_cholesky(blocks.k_phi_phi).T
        sq[n:] *= np.sqrt(gamma)
        sq = _apply_q(h, tau, sq, "R")          # [S Q1, S Z]
        sq1 = sq[:, :m]
        sq1_sq = sq1.T @ sq
        (hz, tauz), t = scipy.linalg.qr(sq[:, m:], overwrite_a=True,
                                        mode="raw")
        # y = Q^T c for unit right-hand sides, columns ordered (r, g)
        y1 = scipy.linalg.solve_triangular(r1, np.eye(m), trans="T")
        rhs = np.zeros((n + self.n_primal, n + m), order="F")
        rhs[:n, :n] = ctx.whiten(np.eye(n))
        sq1_w = sq1[:n].T @ rhs[:n, :n]
        rhs[:, n:] = -sq1 @ y1
        rhs = _apply_q(hz, tauz, rhs, "L", "T")[:self.n_primal - m]
        y = np.zeros((self.n_primal, n + m), order="F")
        y[:m, n:] = y1
        y[m:] = scipy.linalg.solve_triangular(t, rhs)
        # stationarity C^T mu = -2 S^T (S c - d), resolved along Q1
        grad = sq1_sq @ y
        grad[:, :n] -= sq1_w
        mult = -2.0 * scipy.linalg.solve_triangular(r1, grad)
        self._solution[:self.n_primal] = _apply_q(h, tau, y, "L")
        self._solution[self.n_primal:] = mult
        if not np.all(np.isfinite(self._solution)):
            raise DegenerateFeaturesError("non-finite step solution",
                                          block="k_phi_phi")

    def solve(self, r_entries: np.ndarray, g_boundary: np.ndarray):
        """Coefficients and multipliers for one right-hand side."""
        x = self._solution @ np.concatenate([r_entries, g_boundary])
        return x[:self.n_primal], x[self.n_primal:]

    def loss_terms(self, coeffs: np.ndarray, r_entries: np.ndarray):
        resid = self.blocks.k_chi_phi @ coeffs - r_entries
        misfit = seminorm_squared(self.ctx, resid)
        penalty = self.gamma * float(coeffs @
                                     (self.blocks.k_phi_phi @ coeffs))
        return misfit, penalty


def constrained_ls_solve(ctx: SeminormContext, blocks: GramBlocks,
                         r_entries: np.ndarray, g_boundary: np.ndarray,
                         gamma: float):
    """One-shot solve of the step QP: (coefficients, multipliers)."""
    return KKTSystem(ctx, blocks, gamma).solve(r_entries, g_boundary)


def gn_step(ctx: SeminormContext, blocks: GramBlocks, r_entries, g_boundary,
            gamma: float, features: FeatureSet = None,
            kernel: KernelSpec = None):
    """One linearized step; returns (Representer, (misfit, penalty))."""
    r = r_entries.entries if isinstance(r_entries, MeasurementVector) \
        else np.asarray(r_entries, dtype=float)
    kkt = KKTSystem(ctx, blocks, gamma)
    coeffs, mult = kkt.solve(r, g_boundary)
    return Representer(coeffs, mult, features, kernel), \
        kkt.loss_terms(coeffs, r)


def solve(op: OperatorSpec, xi: MeasurementVector, cfg: SolverConfig,
          u0: GridFunction = None):
    """Iterate linearize/assemble/step until the loss plateaus.

    Returns the final Representer and a SolveReport.  Gram blocks and
    their factored KKTSystem are rebuilt every iteration for nonlinear
    families (the linearization coefficient changes) and reused otherwise.
    """
    ctx = SeminormContext.build(cfg.space, cfg.s)
    dim = cfg.space.dim
    shape = (cfg.n_quad,) * dim
    u_grid = np.zeros(shape) if u0 is None else \
        np.broadcast_to(np.asarray(u0.values, dtype=float), shape).copy()

    report = SolveReport()
    rep = None
    blocks = None
    fs = None
    for it in range(cfg.max_iterations):
        if blocks is None or not op.is_linear:
            lin = operators.linearize(op, GridFunction(u_grid))
            fs = FeatureSet(cfg.space, lin.c_field.values, lin.nu_diff,
                            cfg.boundary_points, cfg.n_quad)
            blocks = assemble_features(cfg.kernel, fs, want_quad_eval=True)
            kkt = KKTSystem(ctx, blocks, cfg.gamma)
        if op.is_linear:
            r = xi.entries
        else:
            r = xi.entries + project(lin.shift, cfg.space).entries
        coeffs, mult = kkt.solve(r, cfg.g_boundary)
        misfit, penalty = kkt.loss_terms(coeffs, r)
        rep = Representer(coeffs, mult, fs, cfg.kernel)
        u_grid = (blocks.quad_eval @ coeffs).reshape(shape)
        loss = misfit + penalty
        if not np.isfinite(loss):
            raise DivergenceError("loss became non-finite", iteration=it)
        report.misfit_history.append(misfit)
        report.penalty_history.append(penalty)
        report.iterations = it + 1
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
