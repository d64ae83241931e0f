"""Gauss-Newton solver for the weak-norm optimal-recovery problem.

Each iteration linearizes the operator at the current iterate, assembles
the Gram blocks of the induced operator/boundary features, and solves the
equality-constrained quadratic program

    min_c  (Bc - r)^T A^{-1} (Bc - r) + gamma * c^T G c
    s.t.   C c = g

with one solver, ``KKTSystem``: a null-space QR factorization of the
whitened least-squares form, taken once per set of Gram blocks, whose
``solve`` applies the stored factors to the right-hand sides it is given.
The outer loop reuses it while the blocks do not change (linear families);
the SPDE time stepper solves it once for the identity columns to form its
solution map.
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
           "constrained_ls_solve", "solve", "evaluate"]


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


def _gram_cholesky(g: np.ndarray):
    """Lower factor of g plus 1e-10 of its mean diagonal (the nugget of Chen
    et al., J. Comput. Phys. 2021) and any rung of a jitter ladder; also the
    diagonal added, absolute and relative.  Tries reuse one work copy."""
    nugget = 1e-10 * np.trace(g) / g.shape[0]
    diag = np.diagonal(g) + nugget
    scale = diag.mean()
    work = np.empty_like(g, order="F")
    for bump in (0.0, 1e-13, 1e-11, 1e-9):
        np.copyto(work, g)
        np.fill_diagonal(work, diag + bump * scale)
        try:
            return (scipy.linalg.cholesky(work, lower=True, overwrite_a=True),
                    nugget + bump * scale, 1e-10 + bump)
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
    y2 = T^{-1} U^T (d - S Q1 y1) (Golub & Van Loan, Matrix Computations,
    4th ed., section 6.2).  No normal equations are formed, so the
    high-frequency features survive in double precision.  Only the factors
    are kept: Q and U as Householder reflectors, T in the upper triangle of
    U's raw QR array, and S Q1; each ``solve`` applies them to its
    right-hand sides.  G is regularized here only, by the nugget plus any
    jitter rung; ``jitter`` is their sum as a fraction of G's mean diagonal.
    """

    def __init__(self, ctx: SeminormContext, blocks: GramBlocks,
                 gamma: float):
        self.ctx = ctx
        self.blocks = blocks
        self.gamma = gamma
        b, c = blocks.k_chi_phi, blocks.k_x_phi
        n, self.n_primal = b.shape
        m = c.shape[0]
        (self._h, self._tau), self._r1 = scipy.linalg.qr(c.T, mode="raw")
        r_diag = np.abs(np.diag(self._r1))
        if not r_diag.min() > self.n_primal * np.finfo(float).eps * \
                r_diag.max():
            raise DegenerateFeaturesError(
                "boundary features are linearly dependent", block="k_x_phi")
        chol, self._reg, self.jitter = _gram_cholesky(blocks.k_phi_phi)
        # Fortran-ordered, so the reflectors and the QR update it in place
        sq = np.empty((n + self.n_primal, self.n_primal), order="F")
        sq[:n] = ctx.whiten(b)
        sq[n:] = chol.T
        del chol
        sq[n:] *= np.sqrt(gamma)
        sq = _apply_q(self._h, self._tau, sq, "R")      # [S Q1, S Z]
        self._sq1 = sq[:, :m]
        self._sq1_sq = self._sq1.T @ sq
        (self._hz, self._tauz), _ = scipy.linalg.qr(
            sq[:, m:], overwrite_a=True, mode="raw")

    def solve(self, r_entries: np.ndarray, g_boundary: np.ndarray):
        """Coefficients and multipliers for one right-hand side, or for
        each column of a matrix of them (a vector ``g_boundary`` is shared
        by all columns)."""
        n = self.blocks.k_chi_phi.shape[0]
        m, n_z = self._r1.shape[0], self.n_primal - self._r1.shape[0]
        w = self.ctx.whiten(r_entries)
        vector = w.ndim == 1
        w = w.reshape(n, -1)
        y1 = scipy.linalg.solve_triangular(
            self._r1, np.reshape(g_boundary, (m, -1)), trans="T")
        d = np.zeros((self._sq1.shape[0], w.shape[1]), order="F")
        d[:n] = w
        d -= self._sq1 @ y1
        y = np.empty((self.n_primal, w.shape[1]), order="F")
        y[:m] = y1
        y[m:] = scipy.linalg.solve_triangular(
            self._hz[:n_z], _apply_q(self._hz, self._tauz, d, "L", "T")[:n_z])
        # stationarity C^T mu = -2 S^T (S c - d), resolved along Q1
        grad = self._sq1_sq @ y - self._sq1[:n].T @ w
        mult = -2.0 * scipy.linalg.solve_triangular(self._r1, grad)
        coeffs = _apply_q(self._h, self._tau, y, "L")
        if not (np.all(np.isfinite(coeffs)) and np.all(np.isfinite(mult))):
            raise DegenerateFeaturesError("non-finite step solution",
                                          block="k_phi_phi")
        if vector:
            return coeffs[:, 0], mult[:, 0]
        return coeffs, mult

    def loss_terms(self, coeffs: np.ndarray, r_entries: np.ndarray):
        resid = self.blocks.k_chi_phi @ coeffs - r_entries
        misfit = seminorm_squared(self.ctx, resid)
        penalty = self.gamma * float(coeffs @ (self.blocks.k_phi_phi @ coeffs)
                                     + self._reg * (coeffs @ coeffs))
        return misfit, penalty


def constrained_ls_solve(ctx: SeminormContext, blocks: GramBlocks,
                         r_entries: np.ndarray, g_boundary: np.ndarray,
                         gamma: float):
    """One-shot solve of the step QP: (coefficients, multipliers)."""
    return KKTSystem(ctx, blocks, gamma).solve(r_entries, g_boundary)


def solve(op: OperatorSpec, xi: MeasurementVector, cfg: SolverConfig,
          u0: GridFunction = None):
    """Iterate linearize/assemble/step until the loss plateaus.

    Returns the final Representer and a SolveReport.  Gram blocks and
    their factored KKTSystem are rebuilt every iteration for nonlinear
    families (the linearization coefficient changes) and reused otherwise.
    A rebuild first drops the previous iterate's features, blocks and
    factors, so one set of N x G weight rows is live at a time; each
    iterate is evaluated on the grid matrix-free (``GramBlocks.on_grid``).
    """
    ctx = SeminormContext.build(cfg.space, cfg.s)
    dim = cfg.space.dim
    shape = (cfg.n_quad,) * dim
    u_grid = np.zeros(shape) if u0 is None else \
        np.broadcast_to(np.asarray(u0.values, dtype=float), shape).copy()

    report = SolveReport()
    blocks = None
    for it in range(cfg.max_iterations):
        if blocks is None or not op.is_linear:
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
            r = xi.entries + project(lin.shift, cfg.space).entries
        coeffs, _ = kkt.solve(r, cfg.g_boundary)
        misfit, penalty = kkt.loss_terms(coeffs, r)
        rep = Representer(coeffs, fs, cfg.kernel)
        u_grid = blocks.on_grid(coeffs).reshape(shape)
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
