"""Error metrics and empirical rate fitting for the benchmark runs."""

from __future__ import annotations

import numpy as np

from .spaces import GridFunction, trapezoid_weights

__all__ = ["l2_norm", "rel_l2_error", "sup_error", "space_time_l2_error",
           "fit_rate"]


def _values(u) -> np.ndarray:
    return u.values if isinstance(u, GridFunction) else np.asarray(u, float)


def l2_norm(u) -> float:
    """Trapezoid L2 norm of a grid function on the unit interval/square."""
    v = _values(u)
    w = trapezoid_weights(v.shape[0], v.ndim)
    return float(np.sqrt(w @ (v.ravel() ** 2)))


def rel_l2_error(u, v) -> float:
    """||u - v||_L2 / ||v||_L2 by trapezoid quadrature on matching grids."""
    uv, vv = _values(u), _values(v)
    if uv.shape != vv.shape:
        raise ValueError("grids do not match")
    ref = l2_norm(vv)
    if ref == 0.0:
        raise ValueError("reference has zero norm")
    return l2_norm(uv - vv) / ref


def sup_error(u, v) -> float:
    uv, vv = _values(u), _values(v)
    if uv.shape != vv.shape:
        raise ValueError("grids do not match")
    return float(np.max(np.abs(uv - vv)))


# trajectory rows scored at a time: 64 rows of the SPDE pipelines' 261-point
# grid are 130 KiB
_ROWS = 64


def space_time_l2_error(traj_a, traj_b) -> float:
    """Relative space-time L2 distance between two trajectories.

    The time integral is a trapezoid over the coarse stamps, which must be
    a subset of the reference's stamps; spatial values must share a grid.
    Normalized by the reference's space-time norm.

    The spatial integrals are taken ``_ROWS`` rows at a time, reading the
    reference rows aligned with each block, so no array of a trajectory's
    size is formed; each row's integral has the bits of the whole-array
    product.
    """
    ta, tb = np.asarray(traj_a.times), np.asarray(traj_b.times)
    if len(ta) > len(tb):
        traj_a, traj_b = traj_b, traj_a
        ta, tb = tb, ta
    # align the coarse stamps with a subset of the fine ones
    idx = np.searchsorted(tb, ta)
    idx = np.clip(idx, 0, len(tb) - 1)
    if not np.allclose(tb[idx], ta, rtol=0, atol=1e-9):
        raise ValueError("time stamps are not aligned")
    va, vb = traj_a.values, traj_b.values
    if va.shape != idx.shape + vb.shape[1:]:
        raise ValueError("spatial grids do not match")
    wx = trapezoid_weights(va.shape[1])
    err_rows = np.empty(len(idx))
    ref_rows = np.empty(len(idx))
    for start in range(0, len(idx), _ROWS):
        rows = slice(start, start + _ROWS)
        b = vb[idx[rows]]
        d = va[rows] - b
        d *= d
        err_rows[rows] = d @ wx
        b *= b
        ref_rows[rows] = b @ wx
    wt = trapezoid_weights(len(ta)) * (ta[-1] - ta[0])
    err2 = wt @ err_rows
    ref2 = wt @ ref_rows
    if ref2 <= 0.0:
        raise ValueError("reference trajectory has zero norm")
    return float(np.sqrt(err2 / ref2))


def fit_rate(xs, ys):
    """Least-squares line through (log xs, log ys).

    Returns (slope, intercept, r_squared)."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size < 3:
        raise ValueError("need at least three points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("rate fits need positive data")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(max(min(r2, 1.0), 0.0))
