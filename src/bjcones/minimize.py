"""One-dimensional convex minimization along lines, under an arbitrary norm.

Every objective handled here is convex in the line parameter, and the
minimizers all live inside the bracket [-R, R] with R = 2 ||x|| / ||y||:
outside it the triangle inequality gives ||x + t y|| >= |t| ||y|| - ||x|| >
||x||, which already exceeds the value at 0.  Golden-section search on a
certified bracket therefore needs no assumptions beyond convexity; it serves
every norm without an exact line kernel (Norm.line_min) and the oracles.
"""

import math
from dataclasses import dataclass

import numpy as np

from .norms import Norm, _bracket, _bracket_chord, _rot90, as_vector, check_eps, is_collinear
from .norms import line_objective, objective_scale, one_sided_derivative

__all__ = [
    "MinResult",
    "golden_section_min",
    "dist_to_line",
    "line_distances",
    "line_distances_from",
    "min_b_functional",
    "min_b_values",
    "sup_b_ratio",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class MinResult:
    """Minimum of a convex objective plus the interval attaining it within tol."""

    value: float
    lambda_lo: float
    lambda_hi: float
    tol: float


def golden_section_min(f, lo, hi, tol):
    """Vectorized golden-section minimization of row-wise convex objectives.

    f maps a (m,) array of line parameters to a (m,) array of values; row i
    is searched on [lo[i], hi[i]].  Returns (lam, val) for the best point
    seen per row (endpoints included), so val never underestimates the
    objective anywhere.
    """
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    h = b - a
    hmax = float(h.max(initial=0.0))
    if hmax <= tol:
        mid = 0.5 * (a + b)
        return mid, f(mid)
    n = min(max(int(math.ceil(math.log(tol / hmax) / math.log(_INVPHI))), 1), 200)

    c, d = a + _INVPHI2 * h, a + _INVPHI * h
    yc, yd = f(c), f(d)
    best_x, best_y = a.copy(), f(a)
    for x_new, y_new in ((b, f(b)), (c, yc), (d, yd)):
        better = y_new < best_y
        best_x = np.where(better, x_new, best_x)
        best_y = np.minimum(best_y, y_new)

    for _ in range(n):
        left = yc < yd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        h = h * _INVPHI
        c_fresh, d_fresh = a + _INVPHI2 * h, a + _INVPHI * h
        x_new = np.where(left, c_fresh, d_fresh)
        y_new = f(x_new)
        c, d, yc, yd = (np.where(left, c_fresh, d), np.where(left, c, d_fresh),
                        np.where(left, y_new, yd), np.where(left, yc, y_new))
        better = y_new < best_y
        best_x = np.where(better, x_new, best_x)
        best_y = np.minimum(best_y, y_new)
    return best_x, best_y


def _line_min(spec, points, dirs, tol, eps=None):
    """Row-wise minimum over t of a convex objective along points[i] + t dirs[i].

    points and dirs are (m, dim) arrays; points may also be a single row,
    shared by every direction.

    eps=None minimizes the distance ||x + t y||; a number eps minimizes the
    quadratic functional ||x + t y||^2 - ||x||^2 + 2 eps ||x|| ||y|| |t|.
    Returns arrays (t, value, radius): the minimizer, the minimum and the
    half-width of the certified bracket [-radius, radius].  t = 0 is always
    among the candidates, so the value never exceeds the objective there.

    Uses the norm's exact kernel (Norm.line_min) when it has one, and golden
    section on the bracket otherwise.
    """
    exact = spec.line_min(points, dirs, eps)
    if exact is None:
        return _golden_line_min(spec, points, dirs, tol, eps)
    return exact


def _golden_line_min(spec, points, dirs, tol, eps=None):
    """_line_min by golden section on the bracket, whatever the norm.

    This is the fallback for norms without an exact kernel and the line
    minimizer of the oracles, which must not share the fast paths' kernels.
    tol (spec.minimization_tol if None) is relative to the bracket
    [-radius, radius] where that is under 1 or over 4 wide."""
    if tol is None:
        tol = spec.minimization_tol
    npts = spec.values(points)
    ndirs = spec.values(dirs)
    if np.any(ndirs == 0.0):
        raise ValueError("y must be nonzero")
    radius = 2.0 * npts / ndirs
    s = objective_scale(npts, eps)

    def objective(nv, lam):
        return line_objective(nv, npts, ndirs, lam, eps, s)

    rmax = float(radius.max(initial=0.0))
    t, vals = golden_section_min(
        lambda lam: objective(spec.values(points + lam[:, None] * dirs), lam),
        -radius, radius, tol * min(1.0, 2.0 * rmax) * max(1.0, 0.5 * rmax))
    at_zero = objective(npts, np.zeros(len(npts)))
    with np.errstate(over="ignore"):
        return np.where(at_zero < vals, 0.0, t), np.minimum(vals, at_zero) * s * s, radius


def dist_to_line(spec, x, y, tol=None):
    """Distance inf_t ||x + t y|| together with the near-minimal interval.

    The interval [lambda_lo, lambda_hi] collects every t whose objective is
    within tol of the reported value: the chord of the sphere of radius
    value + tol through the minimizer (Norm.chord), clipped to the bracket
    [-R, R], R = 2 ||x|| / ||y||.  Flat minimizer intervals (common for
    polygonal norms) come out whole.  The chord runs on y scaled exactly to a
    largest entry in [1/2, 1), so no scale over- or underflows.
    """
    x = as_vector(x, spec.dim)
    y = as_vector(y, spec.dim)
    if tol is None:
        tol = spec.minimization_tol
    (lam0,), (val0,), (radius,) = _line_min(spec, x[None, :], y[None, :], tol)
    if radius == 0.0:  # x = 0
        return MinResult(0.0, 0.0, 0.0, tol)
    level = val0 + tol
    e = np.frexp(np.abs(y).max())[1]
    s = np.array(spec.chord((x + lam0 * y) / level, np.ldexp(y, -e)))
    lo, hi = np.clip(lam0 + np.ldexp(level * s, -e), -radius, radius)
    return MinResult(float(val0), float(lo), float(hi), tol)


def line_distances(spec, x, directions, tol=None):
    """dist_to_line values of one x against many directions (rows), values only."""
    x = as_vector(x, spec.dim)
    dirs = np.asarray(directions, dtype=float)
    return _line_min(spec, np.broadcast_to(x, dirs.shape).copy(), dirs, tol)[1]


def line_distances_from(spec, points, direction, tol=None):
    """dist_to_line values of many x (rows) against one direction, values only;
    on a 2-D norm |a . x| for one distance functional a (_distance_functional),
    which takes no tol."""
    y = as_vector(direction, spec.dim)
    pts = np.asarray(points, dtype=float)
    if spec.dim == 2:
        if tol is not None:
            raise ValueError("tol applies to norms of dimension 3 or more only")
        return np.abs(pts @ _distance_functional(spec, y[None, :])[0])
    return _line_min(spec, pts, np.broadcast_to(y, pts.shape).copy(), tol)[1]


def _distance_functional(spec, ys):
    """Per row y of ys, the functional a with dist(x, span y) = |a . x| for all x on
    a 2-D norm: a = g / ||g||_* for g = rot90(y), by the Hahn-Banach distance
    formula.  g is scaled exactly to a largest entry in [1/2, 1)."""
    g = np.ldexp(_rot90(ys), -np.frexp(np.abs(ys).max(axis=1))[1][:, None])
    ng = spec.dual().values(g)
    if np.any(ng == 0.0):
        raise ValueError("y must be nonzero")
    return g / ng[:, None]


class _PlaneDual(Norm):
    """The dual of a 2-D norm with no closed form for it (Norm.dual).  With
    g = rot90(v), dist(x, span v) = |g . x| / ||g||_*, so ||g||_* =
    (g . g) / dist(g, span rot90^-1(g)): all rows in one _line_min call, each
    scaled exactly to a largest entry in [1/2, 1) first."""

    dim = 2

    def __init__(self, primal):
        if primal.dim != 2:
            raise ValueError("the dual norm by line minimization needs a 2-D norm")
        self.primal = self._dual = primal

    def values(self, points):
        g = self._check_points(points)
        e = np.frexp(np.abs(g).max(axis=1))[1]
        gs = np.ldexp(g, -e[:, None])
        zero = ~gs.any(axis=1)
        gs[zero] = (1.0, 0.0)  # the dual norm of 0 is 0
        d = _line_min(self.primal, gs, -_rot90(gs), None)[1]
        return np.where(zero, 0.0, np.ldexp((gs * gs).sum(axis=1) / d, e))

    def chord(self, o, z):
        # ||z||_* >= (z . z)/||z||, which costs one primal values() call
        return _bracket_chord(self, o, z, 2.0 * self.primal.value(z) / (z @ z))


def min_b_functional(spec, x, y, eps):
    """inf over t of ||x + t y||^2 - ||x||^2 + 2 eps ||x|| ||y|| |t|.

    Nonnegative infimum characterizes the quadratic form of approximate
    orthogonality at level eps.
    """
    vals = min_b_values(spec, x, np.asarray(y, dtype=float)[None, :], eps)
    return float(vals[0])


def min_b_values(spec, x, directions, eps):
    """Row-wise version of min_b_functional for many directions."""
    check_eps(eps)
    x = as_vector(x, spec.dim)
    dirs = np.asarray(directions, dtype=float)
    return _line_min(spec, x[None, :], dirs, None, eps)[1]


def sup_b_ratio(spec, x, y):
    """sup over t != 0 of (||x||^2 - ||x + t y||^2) / (2 ||x|| |t| ||y||), clipped to [0, 1].

    The sup is the least eps for which the quadratic approximate-orthogonality
    inequality holds.  h(t) = ||x||^2 - ||x + t y||^2 is concave with h(0) = 0,
    so h(t)/|t| is nonincreasing in |t| on each side of 0 and the sup is its
    pair of t -> 0 limits, -tau_plus(x, y)/||y|| and -tau_plus(x, -y)/||y||
    for the one-sided norm derivatives tau_plus: one derivative call in all.
    Collinear pairs return 1 (the degenerate case).
    """
    x = as_vector(x, spec.dim)
    y = as_vector(y, spec.dim)
    nx = spec.value(x)
    ny = spec.value(y)
    if nx == 0.0 or ny == 0.0:
        raise ValueError("sup_b_ratio requires nonzero x and y")
    if is_collinear(x, y, rtol=1e-14):
        return 1.0
    tau = one_sided_derivative(spec, x, np.stack([y, -y]), "plus")
    return min(1.0, max(0.0, -float(tau.min()) / ny))
