"""Gauss-Newton solver for the weak-norm optimal-recovery problem.

Each Gram build linearizes the operator at the current iterate, assembles
the Gram blocks of the induced operator/boundary features, and solves the
equality-constrained quadratic program

    min_c  (Bc - r)^T A^{-1} (Bc - r) + gamma * c^T G c
    s.t.   C c = g

with one solver, ``KKTSystem``: since G is invertible the QP is solved in
its dual form, the kernel-ridge system (G + gamma blockdiag(A, 0)) c =
[r; g], factored by one Cholesky once per set of Gram blocks;
``KKTSystem.solve`` applies the stored factor to the right-hand sides it
is given.
The outer loop (``solve``) builds and factors once for a linear family.
A nonlinear one iterates the chord map on its first build (Kelley, 1995,
ch. 5), Anderson-accelerated, as a predictor, then takes one Gauss-Newton
step per further build until the remaining error estimated from the
ratio of successive steps is below the tolerance: two builds at the
semilinear2d defaults.  The SPDE time stepper solves the QP once for the
identity columns to form its solution map.
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
# ``project`` stays a name of this module for benchmarks/spans.py, which
# wraps it here
from .spaces import GridFunction, MeasurementVector, TestSpace, \
    default_n_quad, project  # noqa: F401

__all__ = ["SolverConfig", "Representer", "SolveReport", "KKTSystem",
           "constrained_ls_solve", "solve", "evaluate"]

# the chord phase of a nonlinear solve (``_chord``): its Anderson depth,
# the relative step that ends it, and the most images it takes
_ANDERSON_DEPTH = 5
_CHORD_STEP = 1e-9
_CHORD_MAX_STEPS = 100


@dataclass(frozen=True)
class SolverConfig:
    """Everything the outer solve loop needs besides the operator.

    ``max_iterations`` caps the Gram builds of a solve, the chord's first
    build included; ``tolerance`` bounds the estimated remaining relative
    error of the grid iterate at which a nonlinear solve stops (``solve``).
    """

    space: TestSpace
    kernel: KernelSpec
    boundary_points: np.ndarray
    gamma: float = 1e-10
    s: float = 1.0
    n_quad: int = 0                 # per-dim quadrature points (0 = auto)
    g_boundary: np.ndarray = None   # boundary data, zeros when omitted
    max_iterations: int = 20
    tolerance: float = 1e-6

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
    """Loss history and diagnostics of one solve, one entry per Gram
    build: the loss of the build's last step, the relative step of the
    grid iterate (for the chord build, its accepted step), the estimate of
    the remaining error (infinite for the chord build, 0 for a linear
    one) and the whitened weak residual of the iterate; then the chord's
    image count and whether it stopped without contracting."""

    misfit_history: list = field(default_factory=list)
    penalty_history: list = field(default_factory=list)
    step_history: list = field(default_factory=list)
    error_estimates: list = field(default_factory=list)
    residual_history: list = field(default_factory=list)
    chord_steps: int = 0
    chord_fell_back: bool = False
    iterations: int = 0                # Gram builds
    reason: str = ""
    final_grid: GridFunction = None    # solution on the quadrature grid

    @property
    def loss_history(self):
        return [a + b for a, b in
                zip(self.misfit_history, self.penalty_history)]


class KKTSystem:
    """The step QP in its dual form, factored once by one Cholesky.

    The coefficients split into N operator ones c_1 and M boundary ones
    c_2, and the Gram matrix G into blocks G11, G12 = G21^T, G22, the last
    K(boundary, boundary), so B = [G11 G12] and C = [G21 G22].  With E_1,
    E_2 the first N and the last M columns of the identity, stationarity
    of the QP reads G [E_1 A^{-1} (B c - r) + gamma c + E_2 mu] = 0, and G
    is invertible, so the coefficients solve

        (G + gamma blockdiag(A, 0)) c = [r; g],

    the kernel-ridge system of the MAP estimate with the boundary rows
    taken exactly (Chen, Hosseini, Owhadi & Stuart, J. Comput. Phys. 447,
    2021).  A is the test-space energy matrix: ``ctx.diag`` for sine
    spaces, L L^T from ``ctx.chol`` for fem.  K = G + gamma blockdiag(A, 0)
    is positive definite whenever G22 is, since x^T K x = x^T G x +
    gamma x_1^T A x_1, so one Cholesky factors it, about N^3 / 3 flops,
    in one (N+M) x (N+M) array besides the Gram; ``solve`` applies it to
    its right-hand sides.  No normal equations of B are formed and G is
    not regularized: a K that does not factor in float64 raises
    ``DegenerateFeaturesError``.
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
            pivots = np.diagonal(scipy.linalg.cholesky(
                g[n:, n:], lower=True, check_finite=False))
            independent = pivots.min() > \
                self.n_primal * np.finfo(float).eps * pivots.max()
        except scipy.linalg.LinAlgError:
            independent = False
        if not independent:
            raise DegenerateFeaturesError(
                "boundary features are linearly dependent", block="k_x_phi")
        # G is symmetric, so its transpose is a Fortran copy of it, which
        # potrf factors in place
        k = g.T.copy(order="F")
        if ctx.diag is not None:
            k[np.diag_indices(n)] += gamma * ctx.diag
        else:
            k[:n, :n] += gamma * (ctx.chol @ ctx.chol.T)
        try:
            self._factor = scipy.linalg.cho_factor(
                k, lower=True, overwrite_a=True, check_finite=False)
        except scipy.linalg.LinAlgError:
            raise DegenerateFeaturesError(
                "step system is not positive definite",
                block="k_phi_phi") from None

    def solve(self, r_entries: np.ndarray, g_boundary: np.ndarray):
        """Coefficients for one right-hand side, or for each column of a
        matrix of them (a vector ``g_boundary`` is shared by all columns)."""
        r = np.asarray(r_entries, dtype=float)
        n, m = r.shape[0], self.n_primal - r.shape[0]
        vector = r.ndim == 1
        r = r.reshape(n, -1)
        rhs = np.empty((self.n_primal, r.shape[1]))
        rhs[:n] = r
        rhs[n:] = np.reshape(g_boundary, (m, -1))
        coeffs = scipy.linalg.cho_solve(self._factor, rhs, overwrite_b=True,
                                        check_finite=False)
        if not np.all(np.isfinite(coeffs)):
            raise DegenerateFeaturesError("non-finite step solution",
                                          block="k_phi_phi")
        return coeffs[:, 0] if vector else coeffs

    def loss_terms(self, coeffs: np.ndarray, r_entries: np.ndarray):
        resid = self.blocks.k_chi_phi @ coeffs - r_entries
        misfit = seminorm_squared(self.ctx, resid)
        penalty = self.gamma * float(coeffs @ (self.blocks.k_phi_phi @ coeffs))
        return misfit, penalty


def constrained_ls_solve(ctx: SeminormContext, blocks: GramBlocks,
                         r_entries: np.ndarray, g_boundary: np.ndarray,
                         gamma: float):
    """One-shot solve of the step QP: its coefficients."""
    return KKTSystem(ctx, blocks, gamma).solve(r_entries, g_boundary)


def _norm(v: np.ndarray) -> float:
    # numpy's own summation, not a BLAS dot, whose threaded split above
    # 10^4 elements would tie the stop decisions to the thread count
    return float(np.sqrt(np.sum(np.square(v))))


def _relative_step(new: np.ndarray, old: np.ndarray) -> float:
    """|new - old| / |new| on the grid (the absolute step if new is 0)."""
    scale = _norm(new)
    step = _norm(new - old)
    return step / scale if scale > 0 else step


def _zeroth_order(op: OperatorSpec, u: np.ndarray):
    """N(u) = c(u) u - shift(u), the part of P(u) without derivatives
    (u + sin(pi u) for ``semilinear_sine``), with the linearization at u
    it comes from."""
    lin = operators.linearize(op, GridFunction(u))
    return lin.c_field.values * u - lin.shift.values, lin


def _weak_residual(ctx: SeminormContext, fs: FeatureSet, xi, u, n_u) -> float:
    """|whiten(measure(N(u)) + nu lambda measure(u) - xi)|, the weak
    residual of the grid iterate u with N(u) = ``n_u``, measured by the
    features' own rule; NaN for a test space without eigenvalues (fem)."""
    lam = fs.space.eigenvalues
    if lam is None:
        return float("nan")
    r = fs.measure(n_u) + fs.nu_diff * lam * fs.measure(u) - xi.entries
    return _norm(ctx.whiten(r))


def _chord(op, xi, cfg, lin, fs, blocks, kkt, u):
    """Chord iterates on one factored build (Kelley, *Iterative Methods
    for Linear and Nonlinear Equations*, 1995, ch. 5), Anderson-accelerated
    (Walker & Ni, SIAM J. Numer. Anal. 49, 2011) to depth
    ``_ANDERSON_DEPTH``.

    The map is G(x) = on_grid(kkt.solve(xi + measure(c x - N(x)))), c the
    build's linearization coefficient at u; its first image, G(u), is the
    build's Gauss-Newton step.  It runs until a relative step
    |G(x) - x| / |G(x)| reaches ``_CHORD_STEP``, and returns that image
    with its coefficients, right-hand side and step.  It stops as not
    contracting on a non-finite step, after ``_ANDERSON_DEPTH`` + 1 steps
    in a row that do not undercut the smallest step so far, or after
    ``_CHORD_MAX_STEPS`` images; it then returns the first image instead,
    so the Gauss-Newton builds that follow take plain Gauss-Newton's own
    path.  Also returns the number of images taken and whether it stopped
    early."""
    shape = u.shape
    c = lin.c_field.values

    def image(shift):
        r = xi.entries + fs.measure(shift)
        coeffs = kkt.solve(r, cfg.g_boundary)
        return blocks.on_grid(coeffs).reshape(shape), coeffs, r

    x = u
    g, coeffs, r = image(lin.shift.values)
    first = None
    smallest, stalled, steps = np.inf, 0, 1
    d_f, d_g = [], []
    f_prev = g_prev = None
    while True:
        step = _relative_step(g, x)
        if first is None:
            first = (g, coeffs, r, step)
        if step <= _CHORD_STEP:
            return g, coeffs, r, step, steps, False
        if step < smallest:
            smallest, stalled = step, 0
        else:
            stalled += 1
        if not np.isfinite(step) or stalled > _ANDERSON_DEPTH or \
                steps == _CHORD_MAX_STEPS:
            return first + (steps, True)
        f = (g - x).ravel()
        x = g
        if f_prev is not None:
            d_f.append(f - f_prev)
            d_g.append((g - g_prev).ravel())
            del d_f[:-_ANDERSON_DEPTH], d_g[:-_ANDERSON_DEPTH]
            gamma = np.linalg.lstsq(np.stack(d_f, axis=1), f, rcond=None)[0]
            x = g - (np.stack(d_g, axis=1) @ gamma).reshape(shape)
        f_prev, g_prev = f, g
        n_x, _ = _zeroth_order(op, x)
        g, coeffs, r = image(c * x - n_x)
        steps += 1


def solve(op: OperatorSpec, xi: MeasurementVector, cfg: SolverConfig,
          u0: GridFunction = None):
    """Reach the MAP estimate in as few Gram builds as it takes.

    Returns the final Representer and a SolveReport.  A linear family's
    step QP is the whole problem, so it stops after its first build with
    the reason ``"linear"``.

    A nonlinear family linearizes at u0 (0 when omitted; there c is the
    constant 1 + pi, which the lattice contraction of
    ``kernels.assemble_features`` builds) and iterates the chord map on
    that first build (``_chord``) as a predictor: it needs no further
    Gram.  Its iterate is not the MAP, whose representer lies in the span
    of the features at c(u*), so Gauss-Newton builds follow from it, each
    re-linearizing at the last iterate and taking one step.  After build
    k >= 1 with relative step s_k, the remaining error is estimated as
    e_k = s_k rho_k / (1 - rho_k), rho_k = s_k / s_{k-1} and rho_1 = s_1
    (infinite when rho_k >= 1), and the loop stops with the reason
    ``"converged"`` once e_k <= ``cfg.tolerance``, or with
    ``"max_iterations"`` after ``cfg.max_iterations`` builds, the chord's
    included.  A non-finite iterate or loss raises ``DivergenceError``
    with the build's index.  Each build first drops the previous
    features, blocks and factors, so one Gram array and its factors are
    live at a time; each iterate is evaluated on the grid
    (``GramBlocks.on_grid``).
    """
    ctx = SeminormContext.build(cfg.space, cfg.s)
    dim = cfg.space.dim
    shape = (cfg.n_quad,) * dim
    u_grid = np.zeros(shape) if u0 is None else \
        np.broadcast_to(np.asarray(u0.values, dtype=float), shape).copy()

    report = SolveReport()
    _, lin = _zeroth_order(op, u_grid)
    last_step = 1.0
    for it in range(cfg.max_iterations):
        rep = fs = blocks = kkt = None
        fs = FeatureSet(cfg.space, lin.c_field.values, lin.nu_diff,
                        cfg.boundary_points, cfg.n_quad)
        blocks = assemble_features(cfg.kernel, fs)
        kkt = KKTSystem(ctx, blocks, cfg.gamma)
        if it == 0 and not op.is_linear:
            new, coeffs, r, step, report.chord_steps, \
                report.chord_fell_back = _chord(op, xi, cfg, lin, fs,
                                                blocks, kkt, u_grid)
            estimate = np.inf
        else:
            r = xi.entries + fs.measure(lin.shift.values)
            coeffs = kkt.solve(r, cfg.g_boundary)
            new = blocks.on_grid(coeffs).reshape(shape)
            step = _relative_step(new, u_grid)
            rho = step / last_step
            estimate = 0.0 if op.is_linear else \
                step * rho / (1.0 - rho) if rho < 1.0 else np.inf
            last_step = step
        misfit, penalty = kkt.loss_terms(coeffs, r)
        if not (np.isfinite(misfit + penalty) and np.isfinite(new).all()):
            raise DivergenceError("iterate or loss became non-finite",
                                  iteration=it)
        rep = Representer(coeffs, fs, cfg.kernel)
        u_grid = new
        n_u, lin = _zeroth_order(op, u_grid)
        report.misfit_history.append(misfit)
        report.penalty_history.append(penalty)
        report.step_history.append(step)
        report.error_estimates.append(estimate)
        report.residual_history.append(
            _weak_residual(ctx, fs, xi, u_grid, n_u))
        report.iterations = it + 1
        if op.is_linear:
            report.reason = "linear"
            break
        if estimate <= cfg.tolerance:
            report.reason = "converged"
            break
    else:
        report.reason = "max_iterations"
    report.final_grid = GridFunction(u_grid)
    return rep, report


def evaluate(rep: Representer, points) -> np.ndarray:
    """Representer values at arbitrary points in the closed domain."""
    e = evaluate_features(rep.kernel, rep.features, points)
    return e @ rep.coefficients
