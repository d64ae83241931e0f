"""Semi-implicit Euler time stepping driven by the kernel solver.

Each step solves the rough linear problem (I - dt*nu*Lap) u_{k+1} =
u_k + dt*f(u_k) + sigma*dxi_k with the weak-norm kernel solver: the
Gauss-Newton step QP of a linear elliptic operator with diffusion dt*nu.
The operator is time-independent, so ``Stepper`` assembles its Gram blocks,
factors one ``KKTSystem`` and solves it once for the identity columns of
the right-hand side; the grid values of those N coefficient columns
(``GramBlocks.on_grid``, matrix-free) are the solution map from
measurements to grid values (n_quad x N).  Each step then costs one
projection of the right-hand side and one product with that map, instead
of a solve from the factors.  The reaction term (u - u^3 for Allen-Cahn)
is treated explicitly.  Noise increments must be measured against the
scheme's own basis (see ``tent_sine_cross_gram``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gauss_newton import KKTSystem
from .kernels import FeatureSet, KernelSpec, assemble_features
from .noise import NoisePath
from .seminorm import SeminormContext
from .spaces import GridFunction, MeasurementVector, TestSpace, \
    build_test_space, project

__all__ = ["SpdeConfig", "Trajectory", "Stepper", "integrate",
           "tent_sine_cross_gram"]

# largest N^2 dt a Stepper accepts unless allow_cfl_violation is set
_CFL_BOUND = 5.0


@dataclass(frozen=True)
class SpdeConfig:
    """Parameters of one stochastic-PDE integration."""

    family: str                     # heat | allen_cahn
    nu: float
    sigma: float
    t_final: float
    dt: float
    space: TestSpace = None         # measurement basis (fem1d default)
    kernel: KernelSpec = None
    gamma: float = 1e-8
    s: float = 1.0
    n_quad: int = 0
    initial: GridFunction = None
    allow_cfl_violation: bool = False

    def __post_init__(self):
        if self.family not in ("heat", "allen_cahn"):
            raise ValueError(f"unknown SPDE family {self.family!r}")
        if self.dt <= 0 or self.t_final <= 0:
            raise ValueError("dt and t_final must be positive")
        steps = self.t_final / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("t_final must be an integral number of steps")
        if self.space is None:
            object.__setattr__(self, "space", build_test_space("fem1d", 64))
        if self.kernel is None:
            object.__setattr__(self, "kernel", KernelSpec())
        if self.n_quad == 0:
            object.__setattr__(self, "n_quad", 4 * self.space.size + 1)

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    @property
    def cfl_product(self) -> float:
        return self.space.size ** 2 * self.dt

    def drift(self, u: np.ndarray) -> np.ndarray:
        if self.family == "allen_cahn":
            return u - u ** 3
        return np.zeros_like(u)


@dataclass
class Trajectory:
    """Snapshots of an integration: times and grid values."""

    times: np.ndarray
    values: np.ndarray              # (n_steps+1, n_grid) nodal values


def tent_sine_cross_gram(fem_space: TestSpace, n_modes: int) -> np.ndarray:
    """Exact integrals of tent functions against orthonormal sines.

    S[i, j-1] = integral of tent_i(x) * sqrt(2) sin(pi j x), closed form
    for uniform tents of width h centred at x_i."""
    if fem_space.kind != "fem1d":
        raise ValueError("cross gram is defined for fem1d spaces")
    h = fem_space.h
    nodes = np.arange(1, fem_space.size + 1) * h
    k = np.pi * np.arange(1, n_modes + 1)
    amp = np.sqrt(2.0) * 2.0 * (1.0 - np.cos(k * h)) / (h * k ** 2)
    return np.sin(np.outer(nodes, k)) * amp[None, :]


class Stepper:
    """Factored per-step solver for a fixed SpdeConfig."""

    def __init__(self, cfg: SpdeConfig):
        if cfg.cfl_product > _CFL_BOUND and not cfg.allow_cfl_violation:
            raise ValueError(
                f"CFL product {cfg.cfl_product:g} exceeds the bound "
                f"{_CFL_BOUND:g}; relax it explicitly to proceed")
        self.cfg = cfg
        self.ctx = SeminormContext.build(cfg.space, cfg.s)
        self.features = FeatureSet(cfg.space, np.ones(1), cfg.dt * cfg.nu,
                                   np.array([0.0, 1.0]), cfg.n_quad)
        self.blocks = assemble_features(cfg.kernel, self.features)
        kkt = KKTSystem(self.ctx, self.blocks, cfg.gamma)
        # grid values of the step for each unit measurement, boundary zero
        self.solution_map = self.blocks.on_grid(
            kkt.solve(np.eye(cfg.space.size), np.zeros(2)))

    def measure(self, values: np.ndarray) -> np.ndarray:
        """Projection of solver-grid values onto cfg.space.  fem1d features
        with c = 1 store the tents times the trapezoid weights, the matrix
        of the fem projection, so it is not formed again per call."""
        if self.cfg.space.kind == "fem1d":
            return self.features.weights_val @ values
        return project(GridFunction(values), self.cfg.space).entries

    def step(self, u_grid: np.ndarray,
             dxi: MeasurementVector = None) -> np.ndarray:
        cfg = self.cfg
        m = self.measure(u_grid + cfg.dt * cfg.drift(u_grid))
        if dxi is not None:
            if (dxi.space.kind, dxi.space.size) != (cfg.space.kind,
                                                    cfg.space.size):
                raise ValueError("increments measured against another basis")
            m = m + cfg.sigma * dxi.entries
        return self.solution_map @ m


def integrate(cfg: SpdeConfig, path: NoisePath = None) -> Trajectory:
    """Full trajectory over [0, t_final], deterministic given (cfg, path)."""
    n_steps = cfg.n_steps
    if path is not None:
        if path.n_steps != n_steps:
            raise ValueError("noise path length does not match t_final/dt")
        if abs(path.dt - cfg.dt) > 1e-12 * cfg.dt:
            raise ValueError("noise path dt does not match the scheme dt")
    stepper = Stepper(cfg)
    u = np.zeros(cfg.n_quad) if cfg.initial is None else \
        np.asarray(cfg.initial.values, dtype=float).copy()
    if u.shape != (cfg.n_quad,):
        raise ValueError("initial condition must live on the solver grid")

    times = np.arange(n_steps + 1) * cfg.dt
    values = np.empty((n_steps + 1, cfg.n_quad))
    values[0] = u
    for k in range(n_steps):
        dxi = path.increment(k) if path is not None else None
        u = stepper.step(u, dxi)
        values[k + 1] = u
    return Trajectory(times, values)
