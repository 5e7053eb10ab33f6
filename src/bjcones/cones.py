"""Normal-cone decompositions of approximate-orthogonality sets in the plane.

For a unit vector x and eps in [0, 1), the set of directions approximately
orthogonal to x (distance type) is a union K U (-K) of a normal cone and its
reflection.  One derivative call gives the ends a_- and a_+ of the
subdifferential of x (norms.support_functionals).  At eps = 0, by James's
characterisation, K runs from rot90(a_-) to y = rot90(a_+).  Every other cone
boundary is a point where a line meets a unit sphere, one of the two roots
s_- < 0 < s_+ of ||o + s z|| = 1 (Norm.chord):

- f_cone, eps > 0: dist(x, span rot90(g)) = |g . x| / ||g||_* (Hahn-Banach), so
  K's rays are the dual-sphere points on {g : g . x = sqrt(1 - eps^2)} turned a
  quarter: o = sqrt(1 - eps^2) a_+ and z = rot90(x), in the dual norm.
- g_cone: at a smooth x, a = a_+ = a_- and the quadratic-type arcs end at the
  unit points on {w : a . w = eps}: o = eps x and z = rot90(a).

The converse solver reads the distance functional g / ||g||_* of each boundary
ray (minimize._distance_functional).
"""

import math
from dataclasses import dataclass

import numpy as np

from .minimize import _distance_functional, _line_min, line_distances, line_distances_from
from .norms import SMOOTH_TOL, _rot90, as_vector, check_eps, is_smooth_space, sphere_points
from .norms import support_functionals
from .orthogonality import PRED_TOL

__all__ = [
    "NormalCone2D",
    "ConePair",
    "FConeResult",
    "NoSolutionError",
    "normal_cone",
    "cone_membership",
    "cones_equal",
    "find_bj_direction",
    "f_cone",
    "s_set",
    "g_cone",
    "find_x_for_cone",
]


class NoSolutionError(Exception):
    """Raised when no (x, eps) generates the requested cone pair."""


@dataclass(frozen=True)
class NormalCone2D:
    """The cone {a*v1 + b*v2 : a, b >= 0} spanned by two unit boundary vectors."""

    v1: np.ndarray
    v2: np.ndarray


@dataclass(frozen=True)
class ConePair:
    """A cone together with its reflection, K U (-K)."""

    cone: NormalCone2D

    def contains(self, v):
        x, y = _plane_vector(v)
        (p1, q1), (p2, q2) = _plane_vector(self.cone.v1), _plane_vector(self.cone.v2)
        return _membership(p1, q1, p2, q2, x, y) or _membership(p1, q1, p2, q2, -x, -y)


@dataclass(frozen=True)
class FConeResult:
    """Cone pair of the distance-type set, with construction data.

    The boundary vectors are the normalized points at t1 and t2 of the
    segments from x and from -x to witness_y = unit(rot90(a_+)).
    """

    pair: ConePair
    t1: float
    t2: float
    witness_y: np.ndarray


def _dir_angle(u, v):
    """Euclidean angle between the directions of u and v, in [0, pi]."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if not (u.any() and v.any()):
        raise ValueError("angle of the zero vector is undefined")
    # atan2 resolves angles near 0 and pi to rounding; acos of the cosine cannot below 1e-8
    return math.atan2(abs(float(u[0] * v[1] - u[1] * v[0])), float(u @ v))


def normal_cone(spec, v1, v2):
    """Validate and normalize two boundary vectors into a NormalCone2D.

    Opposite boundary vectors are rejected: the span would be a full line,
    which violates the pointedness of a normal cone.
    """
    if spec.dim != 2:
        raise ValueError("normal cones are 2-D objects")
    u1 = spec.unit(as_vector(v1, 2))
    u2 = spec.unit(as_vector(v2, 2))
    if _dir_angle(u1, -u2) <= 1e-12:
        raise ValueError("v1 and -v2 coincide: the cone would contain a full line")
    return NormalCone2D(u1, u2)


def cone_membership(cone, v, tol=1e-9):
    """Whether v = a*v1 + b*v2 with a, b >= -tol.

    Linearly dependent boundary vectors fall back to the half-line test.
    """
    (p1, q1), (p2, q2) = _plane_vector(cone.v1), _plane_vector(cone.v2)
    return _membership(p1, q1, p2, q2, *_plane_vector(v), tol)


def _membership(p1, q1, p2, q2, x, y, tol=1e-9):
    """cone_membership of (x, y) in the cone of (p1, q1) and (p2, q2), in float arithmetic."""
    det = p1 * q2 - q1 * p2
    n1 = math.hypot(p1, q1)
    if abs(det) <= 1e-9 * n1 * math.hypot(p2, q2):
        if x == 0.0 and y == 0.0:
            return True
        if abs(p1 * y - q1 * x) > 1e-9 * n1 * math.hypot(x, y):
            return False
        return (x * p1 + y * q1) / (p1 * p1 + q1 * q1) >= -tol
    return (x * q2 - y * p2) / det >= -tol and (p1 * y - q1 * x) / det >= -tol


def _plane_vector(v):
    """v as two floats; ValueError unless v is one vector of two finite entries."""
    if np.ndim(v) != 1 or len(v) != 2:
        raise ValueError(f"expected a vector of length 2, got shape {np.shape(v)}")
    x, y = float(v[0]), float(v[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("vector entries must be finite")
    return x, y


def cones_equal(a, b, tol=1e-9):
    """Whether two cone pairs coincide: boundary sets {v1, v2} match as
    unordered pairs, up to one global sign flip, each within angle tol."""
    ca = a.cone if isinstance(a, ConePair) else a
    cb = b.cone if isinstance(b, ConePair) else b
    for sigma in (1.0, -1.0):
        for w1, w2 in ((cb.v1, cb.v2), (cb.v2, cb.v1)):
            if (_dir_angle(ca.v1, sigma * w1) <= tol
                    and _dir_angle(ca.v2, sigma * w2) <= tol):
                return True
    return False


def find_bj_direction(spec, x, side="right"):
    """A unit vector on the given side of a Birkhoff-James orthogonality with x.

    side="right" gives y with x orthogonal to y: unit(rot90(a_+)), the
    counterclockwise end of the arc of such y (support_functionals).  side="left"
    gives y with y orthogonal to x: y is orthogonal to x iff it is the least-norm
    point of its line along x (James), so y = unit(rot90(x) + t x) for the t
    minimizing ||rot90(x) + t x||, one line minimum.  Where a face of the sphere
    is parallel to x that minimum is a segment, and y is the point of the face
    that the line minimizer picks; every point of it is orthogonal to x.
    Either answer is certified by its line distance.
    """
    if side not in ("right", "left"):
        raise ValueError(f'side must be "right" or "left", got {side!r}')
    if spec.dim != 2:
        raise ValueError("find_bj_direction requires a 2-D norm")
    x = as_vector(x, 2)
    nx = spec.value(x)
    if nx == 0.0:
        raise ValueError("x must be nonzero")
    xu = x / nx
    if side == "right":
        return _right_bj_direction(spec, xu)[0]

    p = _rot90(xu)
    (t,), _, _ = _line_min(spec, p[None, :], xu[None, :], None)
    y = spec.unit(p + t * xu)
    d = float(line_distances_from(spec, y[None, :], xu)[0])
    if d < 1.0 - PRED_TOL:
        raise RuntimeError(f"left orthogonal direction failed its certificate: distance {d:.12g}")
    return y


def _right_bj_direction(spec, xu):
    """find_bj_direction's right side at a unit xu, with the support functionals a_+ and a_-."""
    (a_plus,), (a_minus,) = support_functionals(spec, xu)
    y = spec.unit(_rot90(a_plus))
    d = float(line_distances(spec, xu, y[None, :])[0])
    if d < 1.0 - PRED_TOL:
        raise RuntimeError(
            f"right orthogonal direction failed its certificate: distance {d:.12g}")
    return y, a_plus, a_minus


def _checked_unit_x(spec, x):
    x = as_vector(x, 2)
    nx = spec.value(x)
    if abs(nx - 1.0) > 1e-6:
        raise ValueError(f"x must be a unit vector, got norm {nx:.12g}")
    return x / nx


def f_cone(spec, x, eps):
    """Cone pair decomposing the distance-type approximate-orthogonality set of x.

    Requires unit x and eps in [0, 1).  Returns the boundary construction
    data; the cone pair covers exactly the directions y with
    inf_t ||x + t y|| >= sqrt(1 - eps^2).
    """
    if spec.dim != 2:
        raise ValueError("f_cone requires a 2-D norm")
    check_eps(eps)
    x = _checked_unit_x(spec, x)
    y, a_plus, a_minus = _right_bj_direction(spec, x)
    if eps == 0.0:
        rays = np.stack([_rot90(a_minus), y])
    else:
        # the dual unit sphere meets {g : g . x = delta} at delta a_+ + s_-+ rot90(x),
        # which turned a quarter are the rays on the side of x and of -x
        delta = math.sqrt(1.0 - eps * eps)
        z = _rot90(x)
        s_minus, s_plus = spec.dual().chord(delta * a_plus, z)
        rays = _rot90(delta * a_plus + np.array([[s_minus], [s_plus]]) * z)
    # each ray is c_x x + c_y y with c_y > 0, at t = c_y / (|c_x| + c_y) on the
    # segment from sign(c_x) x to y
    c = np.linalg.solve(np.stack([x, y], axis=1), rays.T)
    t1, t2 = c[1] / (np.abs(c[0]) + c[1])
    return FConeResult(ConePair(normal_cone(spec, *rays)), float(t1), float(t2), y)


def s_set(spec, x, eps, cert_tol=1e-6):
    """The extremal directions where inf_t ||x + t y|| equals sqrt(1 - eps^2) exactly.

    For eps > 0 these are the four boundary vectors of the cone pair; for
    eps = 0 they are the endpoints of the Birkhoff-James orthogonality arc
    (a single antipodal pair when the arc degenerates to a point).  Every
    returned vector is certified against the target distance.
    """
    res = f_cone(spec, x, eps)
    v1, v2 = res.pair.cone.v1, res.pair.cone.v2
    if eps == 0.0 and _dir_angle(v1, v2) <= 1e-8:
        pts = [v1, -v1]
    else:
        pts = [v1, v2, -v1, -v2]
    xu = _checked_unit_x(spec, x)
    bound = math.sqrt(1.0 - eps * eps)
    for d in line_distances(spec, xu, np.array(pts)):
        if abs(d - bound) > cert_tol:
            raise RuntimeError(
                f"extremal certification failed: distance {d:.12g} vs target {bound:.12g}"
            )
    return pts


def g_cone(spec, x, eps):
    """Cone pair decomposing the quadratic-type approximate-orthogonality set of x.

    Requires a smooth unit x, where the two support functionals of x agree in
    a (a . x = 1).  z = rot90(a) is orthogonal to x, so dist(w, span z) =
    |a . w| / ||z||.  The set meets the unit sphere in two antipodal closed
    arcs around z: a unit w belongs iff |a . w| <= eps.  The arc ends are the
    unit points on the line {w : a . w = eps}, eps x + s_+- z for the chord
    roots of ||eps x + s z|| = 1; the second end is the reflection of the
    one at s_-.
    """
    if spec.dim != 2:
        raise ValueError("g_cone requires a 2-D norm")
    check_eps(eps)
    x = _checked_unit_x(spec, x)
    (a,), (a_minus,) = support_functionals(spec, x)
    if math.hypot(*(a - a_minus)) > SMOOTH_TOL:
        raise ValueError(
            "g_cone requires a smooth point: the norm is not differentiable at x, "
            "so the orthogonal direction is not unique up to sign"
        )
    z = _rot90(a)
    s_minus, s_plus = spec.chord(eps * x, z)
    return ConePair(normal_cone(spec, eps * x + s_plus * z, -eps * x - s_minus * z))


def find_x_for_cone(spec, cone):
    """Recover (x, eps) whose distance-type set equals the given cone pair.

    A generator x is equidistant from the boundary rays, |a1 . x| = |a2 . x|
    for their distance functionals.  f_cone puts both rays on the same side of
    x, so a1 . x and a2 . x share their sign and x is one of the two sphere
    points on the kernel of a1 - a2.  Each, in ascending angle on [0, 2 pi), is
    certified by rebuilding its cone.  Raises NoSolutionError when the space is
    not smooth or when no candidate round-trips, which does happen for cones
    that no (x, eps) generates.
    """
    if spec.dim != 2:
        raise ValueError("find_x_for_cone requires a 2-D norm")
    target = cone if isinstance(cone, ConePair) else ConePair(cone)
    v1 = spec.unit(target.cone.v1)
    v2 = spec.unit(target.cone.v2)
    if _dir_angle(v1, -v2) <= 1e-9:
        raise ValueError("v1 and -v2 coincide: not a valid cone pair")
    if not is_smooth_space(spec):
        raise NoSolutionError(
            "the norm is not smooth (sphere sample found a corner); "
            "the cone-to-(x, eps) correspondence is only certified on smooth spaces"
        )

    if _dir_angle(v1, v2) <= 1e-9:
        # half-line: look for x orthogonal to v1 with eps = 0
        x0 = find_bj_direction(spec, v1, side="left")
        for cand in (x0, -x0):
            if cones_equal(f_cone(spec, cand, 0.0).pair, target, 1e-5):
                return cand, 0.0
        raise NoSolutionError(
            "no orthogonal point reproduced the half-line cone (tried 2 candidates)")

    a1, a2 = _distance_functional(spec, np.stack([v1, v2]))
    phi = math.atan2(a1[0] - a2[0], a2[1] - a1[1])
    roots = np.sort(np.mod([phi, phi + math.pi], 2.0 * math.pi))
    xs = sphere_points(spec, roots)
    dists = 0.5 * (np.abs(xs @ a1) + np.abs(xs @ a2))
    for x0, d in zip(xs, dists):
        if d < 1.0 - PRED_TOL:
            eps0 = math.sqrt(max(0.0, 1.0 - d * d))
            if cones_equal(f_cone(spec, x0, eps0).pair, target, 1e-5):
                return x0, eps0
    raise NoSolutionError(
        f"no equidistant sphere point reproduced the cone: "
        f"{len(roots)} candidate angles failed the round-trip check "
        f"({', '.join(f'{phi:.6f}' for phi in roots)})"
    )
