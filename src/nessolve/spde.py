"""Semi-implicit Euler time stepping driven by the kernel solver.

Each step solves the rough linear problem (I - dt*nu*Lap) u_{k+1} =
u_k + dt*f(u_k) + sigma*dxi_k with the weak-norm kernel solver: the
Gauss-Newton step QP of a linear elliptic operator with diffusion dt*nu.
The operator is time-independent, so ``Stepper`` assembles its Gram blocks
and factors one ``KKTSystem`` up front; each step then costs one
projection of the right-hand side and one application of the precomputed
solution map.  The reaction term (u - u^3 for Allen-Cahn) is treated
explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFeaturesError
from .gauss_newton import KKTSystem
from .kernels import FeatureSet, KernelSpec, assemble_features
from .noise import NoisePath
from .seminorm import SeminormContext
from .spaces import GridFunction, MeasurementVector, TestSpace, \
    build_test_space, grid_points, project

__all__ = ["SpdeConfig", "Trajectory", "Stepper", "integrate",
           "tent_sine_cross_gram"]


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
    cfl_bound: float = 5.0
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
    """Snapshots of an integration: times, grid values, measurements."""

    times: np.ndarray
    values: np.ndarray              # (n_steps+1, n_grid) nodal values
    measurements: np.ndarray        # (n_steps+1, N) basis projections
    space: TestSpace

    def snapshot(self, k: int) -> GridFunction:
        return GridFunction(self.values[k])

    def measurement(self, k: int) -> MeasurementVector:
        return MeasurementVector(self.measurements[k], self.space)


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
        if cfg.cfl_product > cfg.cfl_bound and not cfg.allow_cfl_violation:
            raise ValueError(
                f"CFL product {cfg.cfl_product:g} exceeds the bound "
                f"{cfg.cfl_bound:g}; relax it explicitly to proceed")
        self.cfg = cfg
        self.ctx = SeminormContext.build(cfg.space, cfg.s)
        self.features = FeatureSet(cfg.space, np.ones(1), cfg.dt * cfg.nu,
                                   np.array([0.0, 1.0]), cfg.n_quad)
        self.blocks = assemble_features(cfg.kernel, self.features,
                                        want_quad_eval=True)
        self.kkt = KKTSystem(self.ctx, self.blocks, cfg.gamma)
        self.grid = grid_points(cfg.n_quad)
        self._cross = {}

    def _to_measurement(self, dxi: MeasurementVector) -> np.ndarray:
        """Increment coefficients measured against cfg.space."""
        if dxi.space.kind == self.cfg.space.kind and \
                dxi.space.size == self.cfg.space.size:
            return dxi.entries
        if dxi.space.kind == "sine1d" and self.cfg.space.kind == "fem1d":
            key = dxi.space.size
            if key not in self._cross:
                self._cross[key] = tent_sine_cross_gram(self.cfg.space, key)
            return self._cross[key] @ dxi.entries
        if dxi.space.kind == "sine1d" and self.cfg.space.kind == "sine1d":
            return dxi.entries[:self.cfg.space.size]
        raise ValueError("cannot measure the increment against this basis")

    def step(self, u_grid: np.ndarray,
             dxi: MeasurementVector = None) -> np.ndarray:
        cfg = self.cfg
        rhs_field = GridFunction(u_grid + cfg.dt * cfg.drift(u_grid))
        m = project(rhs_field, cfg.space).entries
        if dxi is not None and cfg.sigma != 0.0:
            m = m + cfg.sigma * self._to_measurement(dxi)
        coeffs, _ = self.kkt.solve(m, np.zeros(2))
        return self.blocks.quad_eval @ coeffs


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
    measurements = np.empty((n_steps + 1, cfg.space.size))
    values[0] = u
    measurements[0] = project(GridFunction(u), cfg.space).entries
    for k in range(n_steps):
        dxi = path.increment(k) if path is not None else None
        try:
            u = stepper.step(u, dxi)
        except DegenerateFeaturesError as exc:
            raise DegenerateFeaturesError(
                f"kernel solve failed at step {k}: {exc}",
                block=exc.block) from exc
        values[k + 1] = u
        measurements[k + 1] = project(GridFunction(u), cfg.space).entries
    return Trajectory(times, values, measurements, cfg.space)
