"""Independent reference answers, built on ``Norm.values`` alone.

Nothing here imports ``bjcones.minimize`` or ``bjcones.oracle``: the library's
own oracles share ``minimize.line_distances`` with the fast paths, so they
cannot arbitrate them.  Every minimum is found by a dense grid over the
certified bracket [-2||x||/||y||, 2||x||/||y||] followed by repeated zooming
onto the neighbours of the best grid point.  For a convex objective the
minimiser always lies between those neighbours, so each zoom keeps it.
"""

import math

import numpy as np

GRID = 513      # first-level grid points per row
SUB = 33        # points per zoom level; each level shrinks the bracket 16-fold
LEVELS = 7      # final bracket about 2R / 512 / 16**7 = 1.5e-11 R
CHUNK = 256     # rows per batched values() call group, to bound memory

# log-spaced |t| grid for the quadratic-type ratio: the supremum is often the
# t -> 0 limit, which a grid reaching down to 1e-9 R captures to float noise
RATIO_DECADES = 9.0
RATIO_GRID = 1500
RATIO_LEVELS = 4


def unit_rows(norm, v):
    v = np.atleast_2d(np.asarray(v, dtype=float))
    return v / norm.values(v)[:, None]


def linear_grid(lo, hi):
    """GRID evenly spaced points per row over [lo, hi]."""
    return lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, GRID)[None, :]


def _zoom_min(objective, t, levels=LEVELS):
    """Row-wise min of objective(rows, t) by grid + zoom, from the (k, m) grid t.

    objective maps (row indices, (k, m) parameters) to (k, m) values.  Each
    level re-grids the bracket between the neighbours of the best point.  The
    returned value is the least objective value evaluated, so it can only
    overestimate the true minimum, by at most the variation over the final
    bracket (for a convex objective).
    """
    rows = np.arange(t.shape[0])
    best = np.full(t.shape[0], np.inf)
    for level in range(levels + 1):
        vals = objective(rows, t)
        i = np.argmin(vals, axis=1)
        best = np.minimum(best, vals[rows, i])
        if level == levels:
            break
        m = t.shape[1]
        a = t[rows, np.maximum(i - 1, 0)]
        b = t[rows, np.minimum(i + 1, m - 1)]
        t = a[:, None] + (b - a)[:, None] * np.linspace(0.0, 1.0, SUB)[None, :]
    return best


def _chunked(fn, n, *arrays):
    out = np.empty(n)
    for s in range(0, n, CHUNK):
        out[s:s + CHUNK] = fn(*(a[s:s + CHUNK] for a in arrays))
    return out


def line_dist(norm, points, dirs):
    """inf_t ||p + t d|| for each row pair (p, d)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    points, dirs = np.broadcast_arrays(points, dirs)

    def block(p, d):
        k, dim = p.shape
        np_ = norm.values(p)
        r = 2.0 * np_ / norm.values(d)

        def obj(rows, t):
            pts = p[rows][:, None, :] + t[:, :, None] * d[rows][:, None, :]
            return norm.values(pts.reshape(-1, dim)).reshape(t.shape)

        return np.minimum(_zoom_min(obj, linear_grid(-r, r)), np_)

    return _chunked(block, points.shape[0], points, dirs)


def min_b(norm, x, dirs, eps):
    """inf_t ||x + t y||^2 - ||x||^2 + 2 eps ||x|| ||y|| |t| for each row y.

    eps is a scalar or one value per row.
    """
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    x = np.broadcast_to(np.asarray(x, dtype=float), dirs.shape)
    eps = np.broadcast_to(np.asarray(eps, dtype=float), dirs.shape[:1])

    def block(p, d, e):
        k, dim = p.shape
        nx = norm.values(p)
        ny = norm.values(d)
        r = 2.0 * nx / ny

        def obj(rows, t):
            pts = p[rows][:, None, :] + t[:, :, None] * d[rows][:, None, :]
            nv = norm.values(pts.reshape(-1, dim)).reshape(t.shape)
            return (nv * nv - (nx * nx)[rows, None]
                    + 2.0 * (e * nx * ny)[rows, None] * np.abs(t))

        # t = 0 gives exactly 0
        return np.minimum(_zoom_min(obj, linear_grid(-r, r)), 0.0)

    return _chunked(block, dirs.shape[0], x, dirs, eps)


def eps_b(norm, x, dirs):
    """sup_{t != 0} (||x||^2 - ||x + t y||^2) / (2 ||x|| |t| ||y||), clipped to [0, 1].

    Two-sided log-spaced grid in |t|, then linear zooming around the best
    grid point on each side.
    """
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    x = np.broadcast_to(np.asarray(x, dtype=float), dirs.shape)
    mag = np.logspace(-RATIO_DECADES, 0.0, RATIO_GRID)

    def block(p, d):
        k, dim = p.shape
        nx = norm.values(p)
        ny = norm.values(d)
        r = 2.0 * nx / ny

        def neg_ratio(rows, t):
            pts = p[rows][:, None, :] + t[:, :, None] * d[rows][:, None, :]
            nv = norm.values(pts.reshape(-1, dim)).reshape(t.shape)
            return (nv * nv - (nx * nx)[rows, None]) / (2.0 * (nx * ny)[rows, None] * np.abs(t))

        best = np.maximum(-_zoom_min(neg_ratio, r[:, None] * mag[None, :], RATIO_LEVELS),
                          -_zoom_min(neg_ratio, -r[:, None] * mag[None, :], RATIO_LEVELS))
        return np.clip(best, 0.0, 1.0)

    return _chunked(block, dirs.shape[0], x, dirs)


def right_derivative(norm, x, y, h=1e-7):
    """(||x + h y|| - ||x||) / h per row, for rows of unit x and unit y: the
    right derivative up to O(h) curvature and O(1e-16 / h) cancellation."""
    x = np.atleast_2d(x)
    y = np.atleast_2d(y)
    return (norm.values(x + h * y) - norm.values(x)) / h


def gram_sin2(x, y):
    """Squared Euclidean sine of the angle between x and y, overflow-safe."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x = x / np.abs(x).max()
    y = y / np.abs(y).max()
    xx, yy, xy = float(x @ x), float(y @ y), float(x @ y)
    return max(0.0, 1.0 - xy * xy / (xx * yy))


def in_cone_pair(v1, v2, w):
    """Whether w lies strictly inside K or -K, K = cone{v1, v2}.

    Used only for directions away from the boundary rays, so rays on the
    boundary and degenerate (half-line) cones count as outside.
    """
    det = v1[0] * v2[1] - v1[1] * v2[0]
    if abs(det) <= 1e-12 * float(np.linalg.norm(v1) * np.linalg.norm(v2)):
        return False
    a = (w[0] * v2[1] - w[1] * v2[0]) / det
    b = (v1[0] * w[1] - v1[1] * w[0]) / det
    return bool((a > 0 and b > 0) or (a < 0 and b < 0))


def sphere_dirs(norm, angles):
    raw = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return raw / norm.values(raw)[:, None]


def angle_gap(u, v):
    """Euclidean angle between directions u and v, in [0, pi]."""
    c = float(np.dot(u, v)) / (float(np.linalg.norm(u)) * float(np.linalg.norm(v)))
    return math.acos(max(-1.0, min(1.0, c)))


def circ_dist(a, b):
    return np.abs(np.remainder(np.asarray(a) - b + math.pi, 2.0 * math.pi) - math.pi)
