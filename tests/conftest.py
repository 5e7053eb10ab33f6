"""Shared norms, generators, and independent reference helpers."""

import math

import numpy as np

from bjcones import LpNorm, Norm, PolyhedralNorm

L1 = LpNorm(1, 2)
L15 = LpNorm(1.5, 2)
L2 = LpNorm(2, 2)
L3 = LpNorm(3, 2)
LINF = LpNorm(math.inf, 2)

# the regular-ish hexagon used in several anchor tests
HEX_VERTICES = [[1, 0], [0.5, 1], [-0.5, 1], [-1, 0], [-0.5, -1], [0.5, -1]]


class ValuesOnly(Norm):
    """A norm that gives only values(), like one the library does not know."""

    def __init__(self, norm):
        self.norm = norm
        self.dim = norm.dim

    def values(self, points):
        return self.norm.values(points)


def random_hexagon(rng):
    """A random origin-symmetric strictly convex hexagonal norm."""
    while True:
        th = np.sort(rng.uniform(0.15, math.pi - 0.15, size=3))
        if np.diff(th).min() < 0.25:
            continue
        r = rng.uniform(0.6, 1.4, size=3)
        top = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        try:
            return PolyhedralNorm(np.vstack([top, -top]))
        except ValueError:
            continue


def random_unit(spec, rng):
    while True:
        v = rng.normal(size=spec.dim)
        if np.linalg.norm(v) > 1e-6:
            return spec.unit(v)


def ang(u, v):
    """Euclidean angle between the directions of u and v, in [0, pi]."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return math.atan2(abs(float(u[0] * v[1] - u[1] * v[0])), float(u @ v))


def circ_dist(a, b):
    return abs(math.remainder(a - b, 2.0 * math.pi))


def boundary_angles(pair):
    """Euclidean angles of the four boundary rays of a cone pair."""
    v1, v2 = pair.cone.v1, pair.cone.v2
    return [math.atan2(v[1], v[0]) for v in (v1, v2, -v1, -v2)]


def off_boundary(angles, bounds, band=1e-4):
    """Mask of scan angles farther than band (circularly) from every boundary."""
    keep = np.ones(len(angles), dtype=bool)
    a = np.asarray(angles, dtype=float)
    for b in bounds:
        d = np.abs(np.remainder(a - b + math.pi, 2.0 * math.pi) - math.pi)
        keep &= d > band
    return keep


def grid_line_min(spec, x, y, n=100_000):
    """Dense-grid reference for inf_t ||x + t y||.

    Deliberately avoids the library's minimizer: plain vectorized grid over
    the certified bracket, no polish.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = 2.0 * spec.value(x) / spec.value(y)
    lam = np.linspace(-r, r, n)
    vals = spec.values(x[None, :] + lam[:, None] * y[None, :])
    return float(min(vals.min(), spec.value(x)))


def grid_sup_b_ratio(spec, x, y, n=200_000):
    """Grid reference for the minimal quadratic-type eps.

    Evaluates (||x||^2 - ||x + t y||^2) / (2 ||x|| |t| ||y||) on a two-sided
    log-spaced grid reaching down to |t| = 1e-9, which captures the t -> 0
    limits to within float noise.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nx = spec.value(x)
    ny = spec.value(y)
    r = 2.0 * nx / ny
    mag = np.logspace(-9.0, math.log10(r), n // 2)
    lam = np.concatenate([-mag[::-1], mag])
    vals = spec.values(x[None, :] + lam[:, None] * y[None, :])
    ratio = (nx * nx - vals * vals) / (2.0 * nx * np.abs(lam) * ny)
    return float(max(0.0, min(1.0, ratio.max())))
