"""Norms on R^n: lp norms and symmetric polygonal gauges, plus directional derivatives.

A norm object evaluates single vectors or batches of row vectors, and exposes
just enough structure (analytic gradients where available, smoothness hints)
for the orthogonality and cone routines built on top of it.
"""

import json
import math

import numpy as np

# functionals within this relative margin of the norm count as active at x, so
# that rounding in x (a sphere point, a section's ambient image) cannot hide a
# corner that x lies on
_ACTIVE_RTOL = 1e-12
# a 2-D norm is differentiable at x when its support functionals there are this close
SMOOTH_TOL = 1e-7

# interior points per bracket evaluated in one predicate call by _bracket
_FAN = 64
# a bracket this many floating-point steps wide cannot usefully be split further
_ULPS = 4

__all__ = [
    "Norm",
    "LpNorm",
    "PolyhedralNorm",
    "as_vector",
    "is_collinear",
    "load_norm_spec",
    "norm_from_dict",
    "sphere_point",
    "sphere_points",
    "one_sided_derivative",
    "support_functionals",
    "is_smooth_point",
    "is_smooth_space",
]


def as_vector(v, dim=None):
    """Coerce v to a finite 1-D float array, optionally checking its length."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0:
        raise ValueError("expected a vector, got a scalar")
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    if dim is not None and arr.size != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {arr.size}")
    return arr


def check_eps(eps):
    """Reject an approximation level outside [0, 1)."""
    if not (0.0 <= eps < 1.0):
        raise ValueError(f"eps must lie in [0, 1), got {eps}")


def is_collinear(x, y, rtol=1e-12):
    """Linear dependence of two vectors, via the Euclidean Gram determinant.

    Each vector is first scaled by the power of two nearest its largest entry.
    The scaling is exact and multiplies every term of the test by the same
    power of two, so the verdict is scale free and cannot over- or underflow.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
    y = np.ldexp(y, -np.frexp(np.abs(y).max())[1])
    xx = float(x @ x)
    yy = float(y @ y)
    xy = float(x @ y)
    return xx * yy - xy * xy <= rtol * xx * yy


class Norm:
    """Base class for a norm on R^dim."""

    dim = None

    def values(self, points):
        """Norm of each row of a (m, dim) array, returned as a (m,) array.  Fold
        across the columns (_fold): numpy reduces along axis 1 row by row."""
        raise NotImplementedError

    def value(self, v):
        """Norm of a single vector."""
        v = as_vector(v, self.dim)
        return float(self.values(v[None, :])[0])

    def unit(self, v):
        """v scaled to norm one."""
        v = as_vector(v, self.dim)
        n = self.value(v)
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return v / n

    def gradient(self, x):
        """Gradient of the norm at x, or None when no analytic form is used."""
        return None

    def right_derivative(self, x, y):
        """Row-wise lim_{t->0+} (||x + t y|| - ||x||)/t for (m, dim) arrays x and y,
        in closed form, or None when the norm has none (x rows are nonzero)."""
        if self.gradient(x[0]) is None:
            return None
        return (np.array([self.gradient(row) for row in x]) * y).sum(axis=1)

    def known_smooth(self):
        """True/False when smoothness of the whole space is known, else None."""
        return None

    def dual(self):
        """The dual norm ||g||_* = sup {g . x : ||x|| <= 1}, built once per norm.  The
        base class has it in the plane only, by line minimization (minimize._PlaneDual)."""
        if "_dual" not in vars(self):
            self._dual = self._make_dual()
        return self._dual

    def _make_dual(self):
        from .minimize import _PlaneDual  # the line minimizer is built on this module
        return _PlaneDual(self)

    def chord(self, o, z):
        """The roots s_- < 0 < s_+ of ||o + s z|| = 1, for 1-D arrays o and z with
        ||o|| < 1 and z != 0; in the base class by one bracket search (_bracket_chord),
        whose roots are taken from inside the ball."""
        return _bracket_chord(self, o, z, 2.0 / self.value(z))

    def line_min(self, points, dirs, eps=None):
        """Exact row-wise minimum over t along the lines points[i] + t dirs[i].

        eps=None minimizes the distance ||x + t y||; a number eps minimizes the
        quadratic functional ||x + t y||^2 - ||x||^2 + 2 eps ||x|| ||y|| |t|.
        Returns arrays (t, value, radius), radius = 2 ||x|| / ||y|| being the
        half-width of a bracket [-radius, radius] that holds every minimizer,
        or None when the norm has no exact kernel.

        A kernel lists finitely many candidates t that must contain a minimizer
        (t = 0 is always one) and scores them all, and the directions, in one
        values() call, so each value is the objective at a real t and never
        underestimates the minimum.
        """
        points, dirs = np.broadcast_arrays(points, dirs)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            cands = self._line_candidates(points, dirs, eps)
        if cands is None:
            return None
        cands = np.concatenate([np.zeros((len(cands), 1)), cands], axis=1)
        r, c = np.nonzero(np.isfinite(cands))
        t = cands[r, c]
        nv = self.values(np.concatenate([points[r] + t[:, None] * dirs[r], dirs]))
        nv, ny = nv[: len(t)], nv[len(t):]
        if np.any(ny == 0.0):
            raise ValueError("y must be nonzero")
        nx = nv[c == 0]   # column 0 is t = 0, so the quadratic objective is 0 there
        s = objective_scale(nx, eps)
        vals = np.full(cands.shape, np.inf)
        vals[r, c] = line_objective(nv, nx[r], ny[r], t, eps, s[r])
        best = vals.argmin(axis=1)
        idx = np.arange(len(cands))
        with np.errstate(over="ignore"):
            return cands[idx, best], vals[idx, best] * s * s, 2.0 * nx / ny

    def _line_candidates(self, points, dirs, eps):
        """(m, k) candidate t per row for line_min (non-finite entries are
        skipped), or None when the norm has no exact line kernel."""
        return None

    @property
    def minimization_tol(self):
        """Default bracket tolerance for 1-D minimizations under this norm."""
        return 1e-9

    def _check_points(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(
                f"expected points of shape (m, {self.dim}), got {pts.shape}"
            )
        return pts


class LpNorm(Norm):
    """The lp norm on R^dim for p in [1, inf]."""

    def __init__(self, p, dim):
        if isinstance(p, str):
            raise ValueError("p must be a number or math.inf; use norm_from_dict for JSON input")
        p = float(p)
        if not (p >= 1.0):
            raise ValueError(f"p must satisfy p >= 1, got {p}")
        dim = int(dim)
        if dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim}")
        self.p = p
        self.dim = dim

    def __repr__(self):
        return f"LpNorm(p={self.p}, dim={self.dim})"

    def values(self, points):
        pts = self._check_points(points)
        a = np.abs(pts)
        if math.isinf(self.p):
            return _fold(np.maximum, a)
        if self.p == 1.0:
            return _fold(np.add, a)
        if self.p == 2.0:
            try:
                with np.errstate(over="raise", under="raise"):
                    return np.sqrt(_fold(np.add, a * a))
            except FloatingPointError:
                return _l2_rescaled(a)
        # scale by the row max so large p does not overflow
        m = _fold(np.maximum, a)
        safe = np.where(m > 0.0, m, 1.0)
        return m * _fold(np.add, (a / safe[:, None]) ** self.p) ** (1.0 / self.p)

    def gradient(self, x):
        """Analytic norm gradient, available for 1 < p < inf only."""
        if not (1.0 < self.p < math.inf):
            return None
        x = as_vector(x, self.dim)
        if not np.any(x):
            raise ValueError("norm gradient is undefined at the zero vector")
        return self._gradients(x[None, :])[0]

    def _gradients(self, x):
        xs = x / _fold(np.maximum, np.abs(x))[:, None]
        w = np.sign(xs) * np.abs(xs) ** (self.p - 1.0)
        denom = _fold(np.add, np.abs(xs) ** self.p) ** ((self.p - 1.0) / self.p)
        return w / denom[:, None]

    def right_derivative(self, x, y):
        # l1 and l_inf are maxima of finitely many linear functionals, so the
        # right derivative is the largest of them along y among those active at x
        a = np.abs(x)
        if self.p == 1.0:
            zero = a <= _ACTIVE_RTOL * _fold(np.add, a)[:, None]
            return _fold(np.add, np.where(zero, np.abs(y), np.sign(x) * y))
        if math.isinf(self.p):
            m = _fold(np.maximum, a)[:, None]
            return _fold(np.maximum, np.where(a >= m - _ACTIVE_RTOL * m, np.sign(x) * y, -np.inf))
        return _fold(np.add, self._gradients(x) * y)

    def _line_candidates(self, x, y, eps):
        if self.p == 2.0:
            # the projection, or for the quadratic functional the stationary
            # point of each side of t = 0; rows are scaled by their largest
            # entry so the inner products cannot over- or underflow
            sx = np.abs(x).max(axis=1)
            sy = np.abs(y).max(axis=1)
            xs = x / np.where(sx > 0.0, sx, 1.0)[:, None]
            ys = y / sy[:, None]
            xy = (xs * ys).sum(axis=1)[:, None]
            yy = (ys * ys).sum(axis=1)[:, None]
            if eps is not None:
                slope = eps * np.sqrt((xs * xs).sum(axis=1)[:, None] * yy)
                xy = xy + np.array([-1.0, 1.0]) * slope
            return -xy / yy * (sx / sy)[:, None]
        if self.p == 1.0:
            # where y_i = 0 the coordinate is constant along the line, and a
            # knot at 0 only splits a stretch in two
            knots = np.where(y != 0.0, -x / y, 0.0)
            if eps is None:
                # the distance bottoms out at a breakpoint, where a coordinate vanishes
                return _in_bracket(knots, np.abs(x).sum(axis=1), np.abs(y).sum(axis=1))
            # along the line the norm is the largest of its linear pieces, one
            # sign vector per stretch between breakpoints (and the two ends)
            knots = np.sort(knots, axis=1)
            mids = 0.5 * (knots[:, 1:] + knots[:, :-1])
            far = np.where(y != 0.0, np.sign(y), np.sign(x))[:, None, :]
            near = np.where(y != 0.0, -np.sign(y), np.sign(x))[:, None, :]
            signs = np.concatenate(
                [near, np.sign(x[:, None, :] + mids[..., None] * y[:, None, :]), far], axis=1)
            return _max_affine_candidates((signs * x[:, None, :]).sum(axis=2),
                                          (signs * y[:, None, :]).sum(axis=2), eps)
        if math.isinf(self.p):
            return _max_affine_candidates(np.concatenate([x, -x], axis=1),
                                          np.concatenate([y, -y], axis=1), eps)
        if self.dim == 2 and eps is None:
            # plane duality: g = (-y2, y1) vanishes on y, so the distance is attained
            # where x + t y is parallel to u = sign(g) |g|^(q-1), the point g norms;
            # on rows scaled by their largest entry, y x u = g . u >= 1 (x = 0: nan, skipped)
            sx, sy = (np.abs(v).max(axis=1, keepdims=True) for v in (x, y))
            xs, g = x / sx, np.stack([-y[:, 1], y[:, 0]], axis=1) / sy
            u = np.sign(g) * np.abs(g) ** (1.0 / (self.p - 1.0))
            cross = xs[:, :1] * u[:, 1:] - xs[:, 1:] * u[:, :1]
            return -cross / (g * u).sum(axis=1, keepdims=True) * (sx / sy)
        return None

    def known_smooth(self):
        return 1.0 < self.p < math.inf

    @property
    def minimization_tol(self):
        return 1e-10 if 1.0 < self.p < math.inf else 1e-9

    def _make_dual(self):
        # the conjugate exponent q, 1/p + 1/q = 1
        q = math.inf if self.p == 1.0 else 1.0 if math.isinf(self.p) else self.p / (self.p - 1.0)
        return LpNorm(q, self.dim)

    def chord(self, o, z):
        if self.p == 2.0:
            return _l2_chord(o, z)
        if math.isinf(self.p) or (self.p == 1.0 and self.dim == 2):
            # the largest of the functionals +-e_i, or in the plane of (+-1, +-1)
            e = np.eye(self.dim) if math.isinf(self.p) else np.array([[1.0, 1.0], [1.0, -1.0]])
            return _max_affine_chord(np.concatenate([e, -e]), o, z)
        return super().chord(o, z)


class PolyhedralNorm(Norm):
    """Minkowski gauge of a symmetric convex polygon with the origin inside.

    Only dim = 2 is supported.  Vertices may be given in any order; they are
    sorted by angle and validated for symmetry and strict convexity.
    """

    dim = 2

    def __init__(self, vertices):
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2:
            raise ValueError(f"vertices must be a (k, 2) array, got shape {verts.shape}")
        if not np.all(np.isfinite(verts)):
            raise ValueError("vertex coordinates must be finite")
        if verts.shape[0] < 4:
            raise ValueError("a symmetric polygon with nonempty interior needs at least 4 vertices")
        scale = np.abs(verts).max()
        if np.any(np.abs(verts).max(axis=1) <= 1e-12 * scale):
            raise ValueError("the origin cannot be a vertex")

        order = np.argsort(np.arctan2(verts[:, 1], verts[:, 0]))
        verts = verts[order]

        # each vertex a with the next two, b and c, around the polygon
        a, b, c = verts, np.roll(verts, -1, axis=0), np.roll(verts, -2, axis=0)
        bad = np.abs(a - b).max(axis=1) <= 1e-12 * scale
        if bad.any():
            raise ValueError(f"duplicate vertex {a[bad.argmax()].tolist()}")

        # symmetry: every vertex must have its reflection in the list
        bad = np.abs(a[:, None, :] + a[None, :, :]).max(axis=2).min(axis=1) > 1e-9 * scale
        if bad.any():
            raise ValueError("vertex list is not symmetric about the origin: "
                             f"no match for -{a[bad.argmax()].tolist()}")

        # strict convexity of the angularly sorted polygon
        ab, bc = b - a, c - b
        bad = ab[:, 0] * bc[:, 1] - ab[:, 1] * bc[:, 0] <= 1e-12 * scale * scale
        if bad.any():
            raise ValueError("vertices are not in strictly convex position "
                             f"(flat or reflex corner near {b[bad.argmax()].tolist()})")

        # one linear functional per edge, normalized to equal 1 on the edge
        funcs = np.linalg.solve(np.stack([a, b], axis=1), np.ones((len(a), 2, 1)))[:, :, 0]
        self.vertices = verts
        self._funcs = funcs

    def __repr__(self):
        return f"PolyhedralNorm({self.vertices.tolist()})"

    def values(self, points):
        pts = self._check_points(points)
        return (self._funcs @ pts.T).max(axis=0)

    def right_derivative(self, x, y):
        # the largest edge functional along y among those active at x
        fx = x @ self._funcs.T
        m = _fold(np.maximum, fx)[:, None]
        return _fold(np.maximum, np.where(fx >= m - _ACTIVE_RTOL * m, y @ self._funcs.T, -np.inf))

    def _line_candidates(self, x, y, eps):
        return _max_affine_candidates(x @ self._funcs.T, y @ self._funcs.T, eps)

    def known_smooth(self):
        return False

    def _make_dual(self):
        # the polygon with the edge functionals as vertices and the vertices as
        # edge functionals: ||g||_* is the largest g . v over the vertices v
        dual = object.__new__(PolyhedralNorm)
        order = np.argsort(np.arctan2(self._funcs[:, 1], self._funcs[:, 0]))
        dual.vertices, dual._funcs = self._funcs[order], self.vertices
        return dual

    def chord(self, o, z):
        return _max_affine_chord(self._funcs, o, z)


def _fold(op, a):
    """op folded left to right over the column views of a, one call per column:
    below 8 columns a sum adds as a.sum(axis=1) does, and a max is exact."""
    out = a[:, 0]
    for j in range(1, a.shape[1]):
        out = op(out, a[:, j])
    return out


def _l2_rescaled(a):
    """Euclidean norms of the rows of a = |points| when some square over- or
    underflowed.  Only rows whose plain sum of squares is inf, or is subnormal
    or zero while the row is nonzero, are rescaled by their largest entry."""
    with np.errstate(over="ignore", under="ignore"):
        s = _fold(np.add, a * a)
        out = np.sqrt(s)
        m = _fold(np.maximum, a)
        fix = (s == np.inf) | ((s < np.finfo(float).tiny) & (m > 0.0))
        m = m[fix]
        safe = np.where(m < np.inf, m, 1.0)
        out[fix] = m * np.sqrt(_fold(np.add, (a[fix] / safe[:, None]) ** 2))
    return out


def _bracket_chord(spec, o, z, r):
    """Norm.chord by one bracket search on values() over [0, -+r], to 1e-10 r/4:
    ||o + s z|| is convex in s, below 1 at s = 0 and, for r >= 2/||z||, above 1
    at s = +-r, because ||o + s z|| >= |s| ||z|| - ||o||.  Each root is its
    bracket's inside end, so ||o + s z|| <= 1 there."""

    def outside(s):
        w = o + s[..., None] * z
        return (spec.values(w.reshape(-1, spec.dim)) > 1.0).reshape(s.shape)

    s, _ = _bracket(outside, [0.0, 0.0], [-r, r], 0.25e-10 * r)
    return float(s[0]), float(s[1])


def _max_affine_chord(funcs, o, z):
    """Norm.chord of the norm max_i funcs[i] . w: the piece i reaches 1 at
    s_i = (1 - F_i . o)/(F_i . z), and the norm at the nearest s_i on each side.
    A subnormal F_i . z may send its s_i to +-inf, which is never the nearest."""
    fo, fz = funcs @ o, funcs @ z
    up, down = fz > 0.0, fz < 0.0
    with np.errstate(over="ignore"):
        return float(((1.0 - fo[down]) / fz[down]).max()), float(((1.0 - fo[up]) / fz[up]).min())


def _l2_chord(o, z):
    """Norm.chord of the Euclidean norm: the roots of (z.z) s^2 + 2 (o.z) s + o.o - 1,
    with z scaled by its largest entry.  The root away from cancellation fixes the
    other by their product, (o.o - 1)/(z.z) <= 0; o.o - 1 is capped at 0, so an o
    on the sphere up to rounding gives roots near 0, not c/q of two noise terms."""
    sz = float(np.abs(z).max())
    zs = z / sz
    a, b, c = float(zs @ zs), float(o @ zs), min(float(o @ o) - 1.0, 0.0)
    q = -(b + math.copysign(math.sqrt(b * b - a * c), b))
    r = (q / a, c / q if q else 0.0)
    return min(r) / sz, max(r) / sz


def _bracket(pred, lo, hi, tol):
    """Shrink brackets of a monotone predicate until each is at most tol wide.

    pred maps an (n, k) array of parameters, row i inside bracket i, to an
    (n, k) boolean array.  Along bracket i it must be false at lo[i] and true
    at hi[i], and switch once; lo[i] may exceed hi[i].  Each stage evaluates a
    fan of up to _FAN evenly spaced interior points per bracket in one call
    and keeps the sub-bracket around the first switch.  Returns the final
    (lo, hi) arrays, still false at lo and true at hi.  A bracket also counts
    as shrunk once it spans at most _ULPS floating-point steps, so a tol below
    the spacing of doubles at the brackets' magnitude cannot stall the search.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    rows = np.arange(lo.size)
    while True:
        gap = np.abs(hi - lo)
        open_ = gap > _ULPS * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
        width = float(gap[open_].max(initial=0.0))
        if width <= tol:
            return lo, hi
        k = min(_FAN, math.ceil(width / tol) - 1)
        pts = lo[:, None] + (hi - lo)[:, None] * (np.arange(1, k + 1) / (k + 1))
        hits = pred(pts)
        first = np.where(hits.any(axis=1), hits.argmax(axis=1), k)
        ext = np.concatenate([lo[:, None], pts, hi[:, None]], axis=1)
        lo, hi = ext[rows, first], ext[rows, first + 1]


def objective_scale(nx, eps):
    """Per row, the s for which line_objective is the objective over s * s."""
    return np.ones_like(nx) if eps is None else np.ldexp(1.0, np.frexp(nx)[1])


def line_objective(nv, nx, ny, t, eps, s):
    """The line objective at t over s * s, from nv = ||x + t y||, nx = ||x||, ny = ||y||.

    s is 1 for the distance.  The quadratic functional is formed on norms scaled
    exactly by s, the power of two nearest ||x||: it compares as unscaled and
    never overflows to inf - inf (NaN)."""
    if eps is None:
        return nv
    nv, nx = nv / s, nx / s
    return nv * nv - nx * nx + 2.0 * eps * nx * ny * np.abs(t) / s


def _in_bracket(cands, nx, ny):
    """Drop candidates outside the bracket |t| <= 2 ||x|| / ||y||, which holds
    every minimizer of both line objectives."""
    radius = (2.0 * nx / ny)[:, None]
    return np.where(np.abs(cands) <= radius, cands, np.nan)


def _max_affine_candidates(a, b, eps):
    """Line candidates for a norm that is the largest of linear functionals.

    Along the line, the norm is max_i (a_i + b_i t).  Its minimum is where a
    falling piece (b_i < 0) crosses a rising one (b_j >= 0).  The quadratic
    functional may also stop at any kink (a crossing of two pieces) or inside
    a piece, at that piece's stationary point.
    """
    k = a.shape[1]
    nx, ny = a.max(axis=1), b.max(axis=1)
    cross = (a[:, :, None] - a[:, None, :]) / (b[:, None, :] - b[:, :, None])
    if eps is None:
        pairs = (b[:, :, None] < 0.0) & (b[:, None, :] >= 0.0)
        cands = np.where(pairs, cross, np.nan).reshape(len(a), k * k)
    else:
        # the stationary points of (a_i + b_i t)^2 + 2 eps nx ny |t| on either side of t = 0
        step = eps * (nx[:, None] / b) * (ny[:, None] / b)
        i, j = np.triu_indices(k, 1)
        cands = np.concatenate([cross[:, i, j], -a / b - step, -a / b + step], axis=1)
    return _in_bracket(cands, nx, ny)


def norm_from_dict(doc):
    """Build a norm from a parsed JSON document.

    Accepted shapes:
      {"type": "lp", "p": <number or "inf">, "dim": <int>}
      {"type": "polyhedral", "vertices": [[x, y], ...]}
    """
    if not isinstance(doc, dict):
        raise ValueError(f"norm spec must be a JSON object, got {type(doc).__name__}")
    kind = doc.get("type")
    if kind == "lp":
        if "p" not in doc or "dim" not in doc:
            raise ValueError('lp norm spec needs keys "p" and "dim"')
        p = doc["p"]
        if isinstance(p, str):
            if p.lower() in ("inf", "infinity"):
                p = math.inf
            else:
                raise ValueError(f'unrecognized p value "{p}" (use a number or "inf")')
        return LpNorm(p, doc["dim"])
    if kind == "polyhedral":
        if "vertices" not in doc:
            raise ValueError('polyhedral norm spec needs key "vertices"')
        return PolyhedralNorm(doc["vertices"])
    raise ValueError(f'unknown norm type {kind!r} (expected "lp" or "polyhedral")')


def load_norm_spec(path):
    """Load a norm from a JSON file."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON in norm spec {path}: {exc}") from exc
    return norm_from_dict(doc)


def sphere_points(spec, angles):
    """The unit-sphere points of spec in the directions (cos a, sin a), one row per angle."""
    if spec.dim != 2:
        raise ValueError("sphere points require a 2-D norm")
    a = np.asarray(angles, dtype=float)
    c = np.stack([np.cos(a), np.sin(a)], axis=1)
    return c / spec.values(c)[:, None]


def _sphere_grid(spec, n):
    """n evenly spaced angles on [0, 2 pi), starting at 0, and their unit-sphere points:
    the one grid of the oracles' scans, the smoothness sample and the CLI's drawings."""
    angles = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return angles, sphere_points(spec, angles)


def sphere_point(spec, angle):
    """The unit-sphere point of spec in the direction (cos angle, sin angle)."""
    return sphere_points(spec, [angle])[0]


def _as_rows(spec, v):
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 1:
        return as_vector(arr, spec.dim)[None, :]
    if arr.ndim != 2 or arr.shape[1] != spec.dim or not np.all(np.isfinite(arr)):
        raise ValueError(f"expected finite rows of shape (m, {spec.dim}), got {arr.shape}")
    return arr


def one_sided_derivative(spec, x, y, side="plus"):
    """One-sided directional derivative of the norm at x in direction y.

    side="plus" gives lim_{t->0+} (||x + t y|| - ||x||)/t, side="minus" the
    limit from the left.  x and y may each be one vector or an (m, dim) array
    of rows; rows pair up (a single vector pairs with every row) and an array
    of m derivatives is returned, a float when both are single vectors.

    Uses the norm's closed form when it has one (an analytic gradient, or the
    active functionals of a piecewise-linear norm), otherwise monotone halving
    of the difference quotient: by convexity the quotient is nonincreasing as
    t decreases, so halving stops once two consecutive quotients agree to
    within 1e-9.
    """
    if side not in ("plus", "minus"):
        raise ValueError(f'side must be "plus" or "minus", got {side!r}')
    single = np.ndim(x) == 1 and np.ndim(y) == 1
    xs = _as_rows(spec, x)
    ys = _as_rows(spec, y)
    if np.any(spec.values(xs) == 0.0):
        raise ValueError("one-sided derivative requires x != 0")
    xs, ys = np.broadcast_arrays(xs, ys)
    if side == "minus":
        ys = -ys
    d = _right_derivative(spec, xs, ys)
    if side == "minus":
        d = -d
    return float(d[0]) if single else d


def _right_derivative(spec, x, y):
    """tau_+(x, y) per row pair, x rows nonzero: the closed form, else halving."""
    d = spec.right_derivative(x, y)
    return _halving_derivative(spec, x, y) if d is None else d


def _halving_derivative(spec, x, y):
    # t halves from 1e-2 until two consecutive quotients agree to within 1e-9,
    # but never below 1e-10
    sy = np.linalg.norm(y, axis=1)
    moving = sy > 0.0
    # work on normalized pairs so the step sizes are scale free
    xu = x / spec.values(x)[:, None]
    yu = y / np.where(moving, sy, 1.0)[:, None]
    n0 = spec.values(xu)
    t = 1e-2
    q = (spec.values(xu + t * yu) - n0) / t
    done = ~moving
    while t > 1e-10 and not done.all():
        t *= 0.5
        q_new = (spec.values(xu + t * yu) - n0) / t
        settled = q - q_new < 1e-9
        q = np.where(done, q, q_new)
        done |= settled
    return np.where(moving, sy * q, 0.0)


def _rot90(v):
    """The rows of v turned a quarter turn counterclockwise, (v1, v2) -> (-v2, v1)."""
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def support_functionals(spec, x):
    """(m, 2) arrays (a_plus, a_minus), the ends of the 2-D norm's subdifferential at each
    row of x: with x scaled to norm one and p = rot90(x)/|x|, a . x = 1 and a_+- . p =
    +-tau_+(x, +-p), from one derivative call.  They coincide where the norm is differentiable,
    and x is Birkhoff-James orthogonal to y iff a . y = 0 for an a between them (James)."""
    if spec.dim != 2:
        raise ValueError("support functionals require a 2-D norm")
    x = _as_rows(spec, x)
    nx = spec.values(x)
    if np.any(nx == 0.0):
        raise ValueError("support functionals require x != 0")
    xu = x / nx[:, None]
    r = np.hypot(xu[:, 0], xu[:, 1])[:, None]
    p = _rot90(xu) / r
    tau = _right_derivative(spec, np.concatenate([xu, xu]), np.concatenate([p, -p]))
    return xu / (r * r) + tau[:len(x), None] * p, xu / (r * r) - tau[len(x):, None] * p


def is_smooth_point(spec, x, tol=SMOOTH_TOL):
    """Whether the 2-D norm is differentiable at x (support functionals within tol)."""
    a_plus, a_minus = support_functionals(spec, as_vector(x, spec.dim))
    return bool(np.hypot(*(a_plus - a_minus)[0]) <= tol)


def is_smooth_space(spec, n=512, tol=SMOOTH_TOL):
    """Whether every sphere point of the 2-D norm looks smooth.

    Uses the norm's own knowledge when available, otherwise checks an
    n-point sample of the unit sphere.
    """
    known = spec.known_smooth()
    if known is not None:
        return bool(known)
    a_plus, a_minus = support_functionals(spec, _sphere_grid(spec, n)[1])
    return bool(np.all(np.hypot(*(a_plus - a_minus).T) <= tol))
