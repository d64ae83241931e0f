"""Discretized weak-norm machinery: |f|^2 = m^T A^{-1} m over a test basis."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .spaces import MeasurementVector, TestSpace, stiffness_matrix

__all__ = ["SeminormContext", "seminorm_squared"]


@dataclass(frozen=True)
class SeminormContext:
    """A test space together with its factored energy Gram matrix.

    For sine bases the matrix is diagonal and the O(N) shortcut is used;
    otherwise a Cholesky factor is cached.  Immutable and shareable.
    """

    space: TestSpace
    s: float
    diag: np.ndarray = field(default=None, repr=False)
    chol: np.ndarray = field(default=None, repr=False)

    @classmethod
    def build(cls, space: TestSpace, s: float) -> "SeminormContext":
        if s < 0:
            raise ValueError("exponent must be nonnegative")
        if space.kind in ("sine1d", "sine2d"):
            return cls(space, s, diag=space.eigenvalues ** s)
        a = stiffness_matrix(space, s)
        return cls(space, s, chol=scipy.linalg.cholesky(a, lower=True))

    def apply_inverse(self, m: np.ndarray) -> np.ndarray:
        """A^{-1} m via the diagonal shortcut or triangular solves."""
        m = np.asarray(m, dtype=float)
        if self.diag is not None:
            return (m.T / self.diag).T
        y = scipy.linalg.solve_triangular(self.chol, m, lower=True)
        return scipy.linalg.solve_triangular(self.chol.T, y, lower=False)

    def whiten(self, m: np.ndarray) -> np.ndarray:
        """w with ||w||^2 = m^T A^{-1} m (i.e. L^{-1} m for A = L L^T)."""
        m = np.asarray(m, dtype=float)
        if self.diag is not None:
            return (m.T / np.sqrt(self.diag)).T
        return scipy.linalg.solve_triangular(self.chol, m, lower=True)


def _entries(ctx: SeminormContext, m) -> np.ndarray:
    if isinstance(m, MeasurementVector):
        if m.space is not ctx.space and m.space != ctx.space:
            raise ValueError("measurement comes from a different test space")
        m = m.entries
    m = np.asarray(m, dtype=float)
    if m.shape != (ctx.space.size,):
        raise ValueError("measurement length does not match the test space")
    return m


def seminorm_squared(ctx: SeminormContext, m) -> float:
    """The squared discretized dual norm m^T A^{-1} m."""
    v = _entries(ctx, m)
    return float(v @ ctx.apply_inverse(v))
