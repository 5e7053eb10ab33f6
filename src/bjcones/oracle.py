"""Brute-force ground truth: dense lambda grids and unit-sphere scans.

Everything here goes straight at the definitions, independently of the cone
constructions, so scans can arbitrate whether a constructed cone matches the
set it claims to describe.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .minimize import _golden_line_min
from .norms import _sphere_grid, as_vector, check_eps
from .orthogonality import PRED_TOL

__all__ = [
    "SphereScan",
    "brute_force_min",
    "scan_f",
    "scan_g",
    "scan_ball_sphere",
    "circular_components",
    "write_scan_csv",
]


@dataclass(frozen=True)
class SphereScan:
    """Membership flags and objective values over n uniform sphere angles."""

    n: int
    angles: np.ndarray
    members: np.ndarray
    values: np.ndarray


def brute_force_min(spec, x, y, grid_n=100_000):
    """inf over t of ||x + t y|| by dense grid search plus one parabolic polish.

    Overestimates the true infimum by at most the grid-induced error, which
    shrinks as grid_n grows.
    """
    x = as_vector(x, spec.dim)
    y = as_vector(y, spec.dim)
    grid_n = int(grid_n)
    if grid_n < 3:
        raise ValueError("grid_n must be at least 3")
    ny = spec.value(y)
    if ny == 0.0:
        raise ValueError("y must be nonzero")
    nx = spec.value(x)
    if nx == 0.0:
        return 0.0
    radius = 2.0 * nx / ny
    lam = np.linspace(-radius, radius, grid_n)
    vals = spec.values(x[None, :] + lam[:, None] * y[None, :])
    i = int(np.argmin(vals))
    best = float(vals[i])
    if 0 < i < grid_n - 1:
        f_lo, f_mid, f_hi = float(vals[i - 1]), float(vals[i]), float(vals[i + 1])
        denom = f_lo - 2.0 * f_mid + f_hi
        if denom > 0.0:
            h = lam[1] - lam[0]
            vertex = lam[i] + 0.5 * h * (f_lo - f_hi) / denom
            vertex = min(max(vertex, lam[i - 1]), lam[i + 1])
            best = min(best, float(spec.values(np.array([x + vertex * y]))[0]))
    return min(best, nx)


def _scan_grid(spec, n):
    if spec.dim != 2:
        raise ValueError("sphere scans require a 2-D norm")
    if n < 360:
        raise ValueError("scan resolution must be at least 360")
    return _sphere_grid(spec, n)


def scan_f(spec, x, eps, n=3600):
    """Distance-type membership of every grid direction, straight from the definition."""
    check_eps(eps)
    x = as_vector(x, 2)
    nx = spec.value(x)
    if nx == 0.0:
        raise ValueError("x must be nonzero")
    angles, points = _scan_grid(spec, n)
    vals = _golden_line_min(spec, x[None, :], points, spec.minimization_tol)[1]
    members = vals >= math.sqrt(1.0 - eps * eps) * nx - PRED_TOL
    return SphereScan(n, angles, members, vals)


def scan_g(spec, x, eps, n=3600):
    """Quadratic-type membership of every grid direction, straight from the definition."""
    check_eps(eps)
    x = as_vector(x, 2)
    nx = spec.value(x)
    if nx == 0.0:
        raise ValueError("x must be nonzero")
    angles, points = _scan_grid(spec, n)
    vals = _golden_line_min(spec, (x / nx)[None, :], points, spec.minimization_tol, eps)[1]
    members = vals >= -PRED_TOL
    return SphereScan(n, angles, members, vals)


def scan_ball_sphere(spec, z, eps, n=3600):
    """Membership of grid directions in the ball of radius eps around z."""
    if eps < 0.0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    z = as_vector(z, 2)
    angles, points = _scan_grid(spec, n)
    vals = spec.values(points - z)
    members = vals <= eps + PRED_TOL
    return SphereScan(n, angles, members, vals)


def circular_components(members):
    """Maximal circular runs of true flags, with wraparound merged.

    Returns (count, arcs) where each arc is the list of member indices in
    walking order.
    """
    m = np.asarray(members, dtype=bool)
    n = m.size
    if n == 0:
        raise ValueError("members must be nonempty")
    if m.all():
        return 1, [list(range(n))]
    if not m.any():
        return 0, []
    # walk from the first false flag, so no run is cut in two, split the walk
    # where the flag changes and keep the true runs, in order of their first index
    walk = np.roll(np.arange(n), -int(np.argmin(m)))
    runs = np.split(walk, np.flatnonzero(np.diff(m[walk])) + 1)
    arcs = sorted((run.tolist() for run in runs if m[run[0]]), key=lambda arc: arc[0])
    return len(arcs), arcs


def write_scan_csv(spec, x, eps, n, fh):
    """Dump a combined scan as CSV.

    Columns: angle_radians, unit_x, unit_y, inf_value, member_F, member_G,
    where inf_value is the line distance used by the distance-type test.
    """
    sf = scan_f(spec, x, eps, n)
    sg = scan_g(spec, x, eps, n)
    angles, points = _scan_grid(spec, n)
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["angle_radians", "unit_x", "unit_y", "inf_value", "member_F", "member_G"])
    for k in range(n):
        writer.writerow([
            f"{angles[k]:.12g}",
            f"{points[k, 0]:.12g}",
            f"{points[k, 1]:.12g}",
            f"{sf.values[k]:.12g}",
            int(sf.members[k]),
            int(sg.members[k]),
        ])
