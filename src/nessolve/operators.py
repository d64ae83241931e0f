"""Differential operators, their linearizations, and spectral grid action.

Two families are covered: a linear elliptic operator -nu*Lap(u) + u and a
semilinear variant adding sin(pi*u).  The SPDE stepper's implicit
left-hand side u - dt*nu*Lap(u) is the linear form with diffusion dt*nu,
which ``spde.Stepper`` assembles directly.  Laplacians of grid functions
are applied spectrally through the type-I DST, which is exact for
truncated sine series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dst

from .spaces import GridFunction

__all__ = ["OperatorSpec", "Linearization", "apply", "linearize",
           "laplacian"]

_FAMILIES = ("linear_elliptic", "semilinear_sine")


@dataclass(frozen=True)
class OperatorSpec:
    """An operator family with its diffusion coefficient."""

    family: str
    nu_diff: float

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown operator family {self.family!r}")
        if self.nu_diff <= 0:
            raise ValueError("nu_diff must be positive")

    @property
    def is_linear(self) -> bool:
        return self.family == "linear_elliptic"


@dataclass(frozen=True)
class Linearization:
    """Zeroth-order coefficient and affine shift of P'(u_n).

    The linearized equation reads -nu*Lap(v) + c(x) v = xi + shift with
    shift = P'(u_n)u_n - P(u_n), so the shift is zero for linear families
    and contains no derivatives of u_n otherwise.
    """

    c_field: GridFunction
    nu_diff: float
    shift: GridFunction

    def __post_init__(self):
        if not np.all(np.isfinite(self.c_field.values)):
            raise ValueError("linearization coefficient is not finite")


def laplacian(u: GridFunction) -> GridFunction:
    """Spectral Laplacian of a grid function vanishing on the boundary."""
    v = u.values
    n = v.shape[0] - 1
    if u.dim == 1:
        lam = (np.pi * np.arange(1, n)) ** 2
        out = np.zeros_like(v)
        out[1:-1] = dst(-lam * dst(v[1:-1], type=1), type=1) / (2.0 * n)
        return GridFunction(out)
    j = np.arange(1, n)
    lam = np.pi ** 2 * (j[:, None] ** 2 + j[None, :] ** 2)
    c = dst(dst(v[1:-1, 1:-1], type=1, axis=0), type=1, axis=1)
    out = np.zeros_like(v)
    out[1:-1, 1:-1] = dst(dst(-lam * c, type=1, axis=0), type=1,
                          axis=1) / (4.0 * n * n)
    return GridFunction(out)


def apply(op: OperatorSpec, u: GridFunction) -> GridFunction:
    """P(u) on u's grid."""
    diffusion = -op.nu_diff * laplacian(u).values
    if op.family == "semilinear_sine":
        return GridFunction(diffusion + u.values + np.sin(np.pi * u.values))
    return GridFunction(diffusion + u.values)


def linearize(op: OperatorSpec, u_n: GridFunction) -> Linearization:
    """Frechet linearization of P at u_n.

    Returns the coefficient c(x) of the zeroth-order part of P'(u_n), the
    diffusion, and the shift P'(u_n)u_n - P(u_n) that augments
    the right-hand side of the linearized solve.
    """
    v = u_n.values
    if op.family == "semilinear_sine":
        c = 1.0 + np.pi * np.cos(np.pi * v)
        shift = np.pi * v * np.cos(np.pi * v) - np.sin(np.pi * v)
        return Linearization(GridFunction(c), op.nu_diff,
                             GridFunction(shift))
    return Linearization(GridFunction(np.ones_like(v)), op.nu_diff,
                         GridFunction(np.zeros_like(v)))
