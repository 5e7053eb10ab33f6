"""Norm evaluation, polygonal gauges, directional derivatives, smoothness."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bjcones import (
    LpNorm,
    Norm,
    PolyhedralNorm,
    as_vector,
    dist_to_line,
    is_smooth_point,
    is_smooth_space,
    load_norm_spec,
    norm_from_dict,
    one_sided_derivative,
    restrict_norm,
    sphere_point,
    sphere_points,
    support_functionals,
)
from conftest import HEX_VERTICES, L1, L15, L2, L3, LINF, ValuesOnly, ang, random_hexagon

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
vec2 = st.tuples(finite, finite).map(np.array)
nonzero2 = vec2.filter(lambda v: np.abs(v).max() > 1e-3)
norm_choices = st.sampled_from([L1, L15, L2, L3, LINF, PolyhedralNorm(HEX_VERTICES)])


def test_lp_anchor_values():
    assert L2.value([3, 4]) == 5.0
    assert L1.value([3, -4]) == 7.0
    assert LINF.value([3, -4]) == 4.0
    assert L3.value([1, 1]) == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-15)
    assert L15.value([1, 1]) == pytest.approx(2.0 ** (2.0 / 3.0), abs=1e-15)


@given(vec2, st.sampled_from([1.0, 1.5, 2.0, 3.0, 7.0, math.inf]))
def test_lp_matches_numpy(v, p):
    spec = LpNorm(p, 2)
    expected = np.linalg.norm(v, ord=p if not math.isinf(p) else np.inf)
    assert spec.value(v) == pytest.approx(float(expected), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("scale", [1e160, 1e-160, 1e-170])
def test_l2_values_at_extreme_scales(scale):
    rows = np.array([[3.0, 4.0], [1.0, 1.0], [0.0, 0.0]]) * scale
    expected = np.array([5.0, math.sqrt(2.0), 0.0]) * scale
    for spec in (L2, LpNorm(2, 3)):
        pts = np.concatenate([rows, np.zeros((3, spec.dim - 2))], axis=1)
        assert spec.values(pts) == pytest.approx(expected, rel=1e-15, abs=0.0)
        # ordinary rows in the same batch keep the plain sum of squares
        mixed = spec.values(np.concatenate([pts, np.eye(spec.dim) * 3.0]))
        assert np.array_equal(mixed[3:], np.full(spec.dim, 3.0))


def test_lp_rejects_bad_parameters():
    with pytest.raises(ValueError):
        LpNorm(0.5, 2)
    with pytest.raises(ValueError):
        LpNorm(2, 0)
    with pytest.raises(ValueError):
        LpNorm("inf", 2)  # strings only via norm_from_dict
    with pytest.raises(ValueError):
        L2.value([1, 2, 3])
    with pytest.raises(ValueError):
        L2.values(np.zeros((3, 3)))


@given(norm_choices, nonzero2)
def test_unit_has_norm_one(spec, v):
    assert spec.value(spec.unit(v)) == pytest.approx(1.0, abs=1e-12)


def test_unit_rejects_zero():
    with pytest.raises(ValueError):
        L2.unit([0.0, 0.0])


@given(norm_choices, vec2, vec2, finite)
def test_norm_axioms(spec, u, v, c):
    nu, nv = spec.value(u), spec.value(v)
    assert nu >= 0.0
    assert spec.value(u + v) <= nu + nv + 1e-9 * (1.0 + nu + nv)
    assert spec.value(c * u) == pytest.approx(abs(c) * nu, rel=1e-12, abs=1e-12)
    assert spec.value([0.0, 0.0]) == 0.0


@given(st.lists(nonzero2, min_size=1, max_size=6))
def test_values_batch_matches_scalar(vs):
    pts = np.stack(vs)
    for spec in (L15, LINF, PolyhedralNorm(HEX_VERTICES)):
        batch = spec.values(pts)
        for i, v in enumerate(vs):
            assert batch[i] == pytest.approx(spec.value(v), rel=1e-14)


# Polygons are left out: their values are a matrix product, and BLAS rounds a
# one-row product and a many-row one differently: on a hexagon, 536 of 3,600
# random rows differ by 1 ulp between the two.
BATCH_NORMS = {
    **{f"l{p}_{d}": LpNorm(p, d) for p in (1, 1.5, 2, 3, math.inf) for d in (2, 3, 9)},
    **{f"section_l{p}": restrict_norm(LpNorm(p, 3), [1.0, 0.2, 0.3], [0.1, 1.0, 0.4])
       for p in (3, math.inf)},
}


@pytest.mark.parametrize("name", BATCH_NORMS)
def test_values_are_batch_invariant(name):
    # a row's norm is the same bit for bit alone and among 3,600 others, also
    # where the batch holds rows at 1e+-160 that send l2 to _l2_rescaled
    spec = BATCH_NORMS[name]
    rng = np.random.default_rng(53)
    pts = rng.normal(size=(3600, spec.dim)) * 10.0 ** rng.uniform(-5.0, 5.0, size=(3600, 1))
    pts[::9, 0] = 0.0
    pts[::600] *= 1e155
    pts[300::600] *= 1e-155
    batch = spec.values(pts)
    alone = np.array([spec.values(pts[i:i + 1])[0] for i in range(len(pts))])
    assert np.array_equal(batch, alone)


@pytest.mark.parametrize("dim", [2, 3, 7])
@pytest.mark.parametrize("p", [1, 1.5, 2, 3, math.inf])
def test_values_match_row_reductions(p, dim):
    # below 8 coordinates the column fold gives numpy's row reductions bit for bit
    pts = np.random.default_rng(59).normal(size=(500, dim)) * 10.0 ** np.arange(-5, 5, 0.02)[:, None]
    a = np.abs(pts)
    m = a.max(axis=1)
    if math.isinf(p):
        want = m
    elif p == 1:
        want = a.sum(axis=1)
    elif p == 2:
        want = np.sqrt((a * a).sum(axis=1))
    else:
        want = m * ((a / m[:, None]) ** p).sum(axis=1) ** (1.0 / p)
    assert np.array_equal(LpNorm(p, dim).values(pts), want)


def test_polyhedral_diamond_is_l1():
    diamond = PolyhedralNorm([[1, 0], [0, 1], [-1, 0], [0, -1]])
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(50, 2))
    assert np.allclose(diamond.values(pts), L1.values(pts), atol=1e-12)


def test_polyhedral_square_is_linf():
    square = PolyhedralNorm([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(50, 2))
    assert np.allclose(square.values(pts), LINF.values(pts), atol=1e-12)


def test_polyhedral_hexagon_anchor():
    spec = PolyhedralNorm(HEX_VERTICES)
    assert spec.value([1, 0]) == pytest.approx(1.0, abs=1e-12)
    assert spec.value([0, 1]) == pytest.approx(1.0, abs=1e-12)
    # the ray through (1,1) exits the hexagon at (2/3, 2/3)
    assert spec.value([1, 1]) == pytest.approx(1.5, abs=1e-12)


def test_polyhedral_vertex_order_is_irrelevant():
    shuffled = [HEX_VERTICES[i] for i in (3, 0, 4, 1, 5, 2)]
    a = PolyhedralNorm(HEX_VERTICES)
    b = PolyhedralNorm(shuffled)
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(20, 2))
    assert np.allclose(a.values(pts), b.values(pts), atol=1e-14)


def test_polyhedral_validation():
    with pytest.raises(ValueError, match=re.escape("no match for -[0.0, -2.0]")):
        PolyhedralNorm([[1, 0], [0, 1], [-1, 0], [0, -2]])
    with pytest.raises(ValueError, match="at least 4 vertices"):
        PolyhedralNorm([[1, 0], [-1, 0]])
    with pytest.raises(ValueError, match="origin cannot be a vertex"):
        PolyhedralNorm([[1, 0], [0, 1], [-1, 0], [0, -1], [0, 0], [0, 0]])
    with pytest.raises(ValueError, match=re.escape("duplicate vertex [1.0, 0.0]")):
        PolyhedralNorm([[1, 0], [1, 0], [0, 1], [-1, 0], [-1, 0], [0, -1]])
    # (0.5, 0.5) sits on the edge: flat corner
    with pytest.raises(ValueError, match=re.escape("corner near [0.5, 0.5]")):
        PolyhedralNorm([[1, 0], [0.5, 0.5], [0, 1], [-1, 0], [-0.5, -0.5], [0, -1]])
    with pytest.raises(ValueError, match=re.escape("(k, 2) array, got shape (4, 3)")):
        PolyhedralNorm([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]])


def looped_polygon(verts):
    """PolyhedralNorm's vertex checks and edge functionals one vertex at a time, as
    the loops they replaced: the first error message, else the functionals."""
    verts = np.asarray(verts, dtype=float)
    scale = np.abs(verts).max()
    verts = verts[np.argsort(np.arctan2(verts[:, 1], verts[:, 0]))]
    k = len(verts)
    for i in range(k):
        if np.abs(verts[i] - verts[(i + 1) % k]).max() <= 1e-12 * scale:
            return f"duplicate vertex {verts[i].tolist()}"
    for v in verts:
        if np.abs(verts + v).max(axis=1).min() > 1e-9 * scale:
            return f"vertex list is not symmetric about the origin: no match for -{v.tolist()}"
    for i in range(k):
        a, b, c = verts[i], verts[(i + 1) % k], verts[(i + 2) % k]
        cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        if cross <= 1e-12 * scale * scale:
            return ("vertices are not in strictly convex position "
                    f"(flat or reflex corner near {b.tolist()})")
    return np.array([np.linalg.solve(np.array([verts[i], verts[(i + 1) % k]]), np.ones(2))
                     for i in range(k)])


def test_polyhedral_checks_match_the_loops():
    rng = np.random.default_rng(21)
    for _ in range(200):
        th = np.sort(rng.uniform(0.0, math.pi, rng.integers(2, 6)))
        top = rng.uniform(0.2, 2.0, len(th))[:, None] * np.stack([np.cos(th), np.sin(th)], axis=1)
        verts = np.vstack([top, -top])
        if rng.uniform() < 0.3:  # break symmetry, or convexity, at one vertex
            verts[rng.integers(len(verts))] *= rng.uniform(0.5, 1.5)
        if rng.uniform() < 0.1:
            verts[1] = verts[0]
        expected = looped_polygon(verts)
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=re.escape(expected)):
                PolyhedralNorm(verts)
        else:
            assert np.array_equal(PolyhedralNorm(verts)._funcs, expected)


@given(st.floats(min_value=-10, max_value=10), norm_choices)
def test_sphere_point(angle, spec):
    p = sphere_point(spec, angle)
    assert spec.value(p) == pytest.approx(1.0, abs=1e-12)
    assert math.remainder(math.atan2(p[1], p[0]) - angle, 2 * math.pi) == pytest.approx(
        0.0, abs=1e-12
    )


def test_sphere_points_match_sphere_point():
    angles = np.linspace(-7.0, 7.0, 41)
    for spec in (L1, L3, LINF, PolyhedralNorm(HEX_VERTICES)):
        pts = sphere_points(spec, angles)
        assert pts.shape == (41, 2)
        for a, p in zip(angles, pts):
            assert np.array_equal(p, sphere_point(spec, a))


@given(st.floats(min_value=0.01, max_value=2 * math.pi - 0.01))
def test_tau_l2_is_cosine(theta):
    """In l2 the derivative of the norm at (1,0) along (cos t, sin t) is cos t."""
    y = np.array([math.cos(theta), math.sin(theta)])
    assert one_sided_derivative(L2, [1, 0], y, "plus") == pytest.approx(
        math.cos(theta), abs=1e-9
    )
    assert one_sided_derivative(L2, [1, 0], y, "minus") == pytest.approx(
        math.cos(theta), abs=1e-9
    )


def test_tau_l1_anchor():
    # at x = (1,0) the l1 norm grows like a + |b| forward, a - |b| backward
    for a, b in [(0.0, 1.0), (1.0, 1.0), (-2.0, 0.5), (0.3, -0.7)]:
        tp = one_sided_derivative(L1, [1, 0], [a, b], "plus")
        tm = one_sided_derivative(L1, [1, 0], [a, b], "minus")
        assert tp == pytest.approx(a + abs(b), abs=1e-8)
        assert tm == pytest.approx(a - abs(b), abs=1e-8)


def test_tau_linf_corner_anchor():
    assert one_sided_derivative(LINF, [1, 1], [-1, 0], "plus") == pytest.approx(0.0, abs=1e-8)
    assert one_sided_derivative(LINF, [1, 1], [-1, 0], "minus") == pytest.approx(-1.0, abs=1e-8)
    assert one_sided_derivative(LINF, [1, 1], [0, 1], "plus") == pytest.approx(1.0, abs=1e-8)
    assert one_sided_derivative(LINF, [1, 1], [0, 1], "minus") == pytest.approx(0.0, abs=1e-8)


@given(norm_choices, nonzero2, vec2)
# a halving difference quotient loses this one to cancellation (tau_- = 49.92187775)
@example(L1, np.array([11.0, 1e-9]), np.array([47.921875, 2.0]))
def test_tau_minus_never_exceeds_plus(spec, x, y):
    tp = one_sided_derivative(spec, x, y, "plus")
    tm = one_sided_derivative(spec, x, y, "minus")
    assert tm <= tp + 1e-8


def test_tau_piecewise_linear_is_exact():
    assert one_sided_derivative(L1, [11, 1e-9], [47.921875, 2], "minus") == 49.921875
    assert one_sided_derivative(L1, [11, 1e-9], [47.921875, 2], "plus") == 49.921875
    hexn = PolyhedralNorm(HEX_VERTICES)
    # at the vertex (1, 0) the edge functionals (1, 0.5) and (1, -0.5) meet
    assert one_sided_derivative(hexn, [1, 0], [0.25, 1], "plus") == pytest.approx(0.75, abs=1e-15)
    assert one_sided_derivative(hexn, [1, 0], [0.25, 1], "minus") == pytest.approx(-0.25, abs=1e-15)


class OpaqueNorm(Norm):
    """A norm known only through values(), so derivatives take the halving fallback."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim

    def values(self, points):
        return self.inner.values(points)


def test_tau_rows_match_single_calls_and_fallback():
    rng = np.random.default_rng(5)
    for inner in (L1, L3, LINF, PolyhedralNorm(HEX_VERTICES)):
        for spec in (inner, OpaqueNorm(inner)):
            xs = rng.normal(size=(6, 2))
            ys = rng.normal(size=(6, 2))
            for side in ("plus", "minus"):
                rows = one_sided_derivative(spec, xs, ys, side)
                fan = one_sided_derivative(spec, xs[0], ys, side)
                for i in range(6):
                    single = one_sided_derivative(spec, xs[i], ys[i], side)
                    assert rows[i] == pytest.approx(single, abs=1e-12)
                    assert fan[i] == pytest.approx(
                        one_sided_derivative(spec, xs[0], ys[i], side), abs=1e-12)
                    assert single == pytest.approx(
                        one_sided_derivative(inner, xs[i], ys[i], side), abs=1e-6)
    assert not is_smooth_space(OpaqueNorm(PolyhedralNorm(HEX_VERTICES)))


class GradientNorm(OpaqueNorm):
    """A norm known through values() and an analytic gradient only."""

    def gradient(self, x):
        return self.inner.gradient(x)


def test_tau_uses_a_norm_gradient():
    spec = GradientNorm(L3)
    rng = np.random.default_rng(6)
    x = rng.normal(size=2)
    ys = rng.normal(size=(5, 2))
    for side in ("plus", "minus"):
        assert np.allclose(one_sided_derivative(spec, x, ys, side), ys @ L3.gradient(x),
                           rtol=0.0, atol=1e-15)


@given(norm_choices, nonzero2, nonzero2,
       st.floats(min_value=0.1, max_value=4), st.floats(min_value=-3, max_value=3))
def test_tau_scaling_and_shift(spec, x, y, c, s):
    """tau is positively homogeneous in y and affine under adding multiples of x."""
    base = one_sided_derivative(spec, x, y, "plus")
    assert one_sided_derivative(spec, x, c * y, "plus") == pytest.approx(
        c * base, rel=1e-6, abs=1e-7
    )
    shifted = one_sided_derivative(spec, x, y + s * x, "plus")
    assert shifted == pytest.approx(base + s * spec.value(x), rel=1e-6, abs=1e-6)


# eighth-integer grid keeps every norm kink a safe distance from the sample
# points, so a fixed-step difference quotient is a fair reference
coarse = st.integers(min_value=-32, max_value=32).map(lambda k: k / 8.0)
coarse_vec = st.tuples(coarse, coarse).map(np.array)
coarse_x = coarse_vec.filter(lambda v: np.abs(v).min() >= 0.125)


@given(norm_choices, coarse_x, coarse_vec)
@settings(max_examples=60)
def test_tau_matches_difference_quotient(spec, x, y):
    """The reported derivative agrees with a plain one-sided quotient."""
    t = 1e-7
    nx = spec.value(x)
    q_plus = (spec.value(x + t * y) - nx) / t
    q_minus = (spec.value(x - t * y) - nx) / (-t)
    tol = 1e-5 * (1.0 + float(y @ y))
    assert one_sided_derivative(spec, x, y, "plus") == pytest.approx(q_plus, abs=tol)
    assert one_sided_derivative(spec, x, y, "minus") == pytest.approx(q_minus, abs=tol)


def test_gradient_matches_central_difference():
    rng = np.random.default_rng(3)
    for p in (1.5, 3.0, 7.0):
        spec = LpNorm(p, 2)
        for _ in range(10):
            x = rng.normal(size=2)
            if np.abs(x).min() < 1e-2:
                continue
            g = spec.gradient(x)
            h = 1e-6
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                num = (spec.value(x + e) - spec.value(x - e)) / (2 * h)
                assert g[k] == pytest.approx(num, abs=1e-6)


def test_gradient_absent_for_kinked_norms():
    assert L1.gradient([1, 2]) is None
    assert LINF.gradient([1, 2]) is None
    assert PolyhedralNorm(HEX_VERTICES).gradient([1, 2]) is None


def test_smooth_point_anchors():
    assert is_smooth_point(L2, [0.3, -0.9])
    assert not is_smooth_point(L1, [1, 0])
    assert is_smooth_point(L1, [0.6, 0.4])
    assert not is_smooth_point(LINF, [1, 1])
    assert is_smooth_point(LINF, [1, 0.3])
    hexn = PolyhedralNorm(HEX_VERTICES)
    assert not is_smooth_point(hexn, [1, 0])  # vertex
    assert is_smooth_point(hexn, [0, 1])  # edge midpoint


def test_smooth_space_classification():
    assert is_smooth_space(L15)
    assert is_smooth_space(L2)
    assert is_smooth_space(L3)
    assert not is_smooth_space(L1)
    assert not is_smooth_space(LINF)
    assert not is_smooth_space(PolyhedralNorm(HEX_VERTICES))


def test_random_hexagons_are_valid_norms():
    rng = np.random.default_rng(4)
    for _ in range(5):
        spec = random_hexagon(rng)
        pts = rng.normal(size=(20, 2))
        vals = spec.values(pts)
        assert np.all(vals > 0)
        doubled = spec.values(2.0 * pts)
        assert np.allclose(doubled, 2.0 * vals, rtol=1e-12)


def test_norm_from_dict_lp():
    spec = norm_from_dict({"type": "lp", "p": 2, "dim": 3})
    assert isinstance(spec, LpNorm) and spec.p == 2.0 and spec.dim == 3
    spec = norm_from_dict({"type": "lp", "p": "inf", "dim": 2})
    assert math.isinf(spec.p)


def test_norm_from_dict_polyhedral():
    spec = norm_from_dict({"type": "polyhedral", "vertices": HEX_VERTICES})
    assert isinstance(spec, PolyhedralNorm)
    assert spec.value([1, 1]) == pytest.approx(1.5)


def test_norm_from_dict_errors():
    with pytest.raises(ValueError):
        norm_from_dict({"type": "lp", "p": "three", "dim": 2})
    with pytest.raises(ValueError):
        norm_from_dict({"type": "lp"})
    with pytest.raises(ValueError):
        norm_from_dict({"type": "euclidean"})
    with pytest.raises(ValueError):
        norm_from_dict({"type": "polyhedral"})
    with pytest.raises(ValueError):
        norm_from_dict([1, 2])


def test_load_norm_spec(tmp_path):
    path = tmp_path / "norm.json"
    path.write_text(json.dumps({"type": "lp", "p": 3, "dim": 2}))
    spec = load_norm_spec(path)
    assert spec.value([1, 1]) == pytest.approx(2.0 ** (1.0 / 3.0))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError):
        load_norm_spec(bad)


def test_as_vector_validation():
    assert np.array_equal(as_vector([1, 2]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        as_vector(3.0)
    with pytest.raises(ValueError):
        as_vector([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        as_vector([1, math.nan])
    with pytest.raises(ValueError):
        as_vector([1, 2, 3], dim=2)


def test_smooth_point_requires_2d():
    with pytest.raises(ValueError):
        is_smooth_point(LpNorm(2, 3), [1, 0, 0])


def test_support_functionals_anchors():
    # at the l1 corner (1, 0) the subdifferential runs from (1, -1) to (1, 1)
    a_plus, a_minus = support_functionals(L1, [1, 0])
    assert np.array_equal(a_plus, [[1.0, 1.0]]) and np.array_equal(a_minus, [[1.0, -1.0]])
    # at a hexagon vertex its ends are the functionals of the two edges meeting there
    hexn = PolyhedralNorm(HEX_VERTICES)
    a_plus, a_minus = support_functionals(hexn, [[1, 0], [0.5, 1]])
    assert np.allclose(a_plus, [[1.0, 0.5], [0.0, 1.0]], rtol=0.0, atol=1e-15)
    assert np.allclose(a_minus, [[1.0, -0.5], [1.0, 0.5]], rtol=0.0, atol=1e-15)
    # an lp norm with 1 < p < inf is smooth: both ends are its gradient, at any scale
    rng = np.random.default_rng(41)
    for spec in (L15, L2, L3, LpNorm(7, 2)):
        xs = rng.normal(size=(8, 2)) * np.array([[1e-3], [1e3], [1], [1], [1], [1], [1], [1]])
        a_plus, a_minus = support_functionals(spec, xs)
        assert np.array_equal(a_plus, a_minus)
        for x, a in zip(xs, a_plus):
            assert np.allclose(a, spec.gradient(x), rtol=0.0, atol=1e-14)
            assert a @ x == pytest.approx(spec.value(x), rel=1e-14)
    with pytest.raises(ValueError):
        support_functionals(L2, [0, 0])
    with pytest.raises(ValueError):
        support_functionals(LpNorm(2, 3), [1, 0, 0])


DUAL_NORMS = {
    "l1": L1, "l1.5": L15, "l2": L2, "l3": L3, "l50": LpNorm(50, 2), "linf": LINF,
    "hexagon": PolyhedralNorm(HEX_VERTICES),
    "section_l3": restrict_norm(LpNorm(3, 3), [1.0, 0.2, 0.3], [0.1, 1.0, 0.4]),
    "section_linf": restrict_norm(LpNorm(math.inf, 3), [1.0, 0.2, 0.3], [0.1, 1.0, 0.4]),
    "values_only_l3": ValuesOnly(L3),
}


@pytest.mark.parametrize("name", sorted(DUAL_NORMS))
def test_dual_norm_is_the_distance_formula(name):
    # Hahn-Banach in the plane: dist(x, span v) = |g . x| / ||g||_* for g = rot90(v)
    spec = DUAL_NORMS[name]
    rng = np.random.default_rng(sorted(DUAL_NORMS).index(name) + 90)
    g = rng.normal(size=(12, 2))
    duals = spec.dual().values(g)
    for gi, nd in zip(g, duals):
        x = spec.unit(rng.normal(size=2))
        while abs(gi @ x) < 0.3 * np.linalg.norm(gi) * np.linalg.norm(x):
            x = spec.unit(rng.normal(size=2))
        dist = dist_to_line(spec, x, [gi[1], -gi[0]]).value
        assert nd == pytest.approx(abs(gi @ x) / dist, rel=1e-9, abs=0.0), gi
    assert spec.dual().values(np.zeros((1, 2)))[0] == 0.0
    assert spec.dual() is spec.dual()


def test_dual_closed_forms():
    assert LpNorm(3, 2).dual().p == 1.5 and LpNorm(1.5, 4).dual().p == 3.0
    assert L1.dual().p == math.inf and LINF.dual().p == 1.0 and L2.dual().p == 2.0
    hexn = PolyhedralNorm(HEX_VERTICES)
    g = np.random.default_rng(91).normal(size=(20, 2))
    assert np.array_equal(hexn.dual().values(g), (g @ hexn.vertices.T).max(axis=1))
    with pytest.raises(ValueError):
        ValuesOnly(LpNorm(3, 3)).dual()


CHORD_NORMS = {"l1": L1, "l2": L2, "linf": LINF, "hexagon": PolyhedralNorm(HEX_VERTICES),
               "l1_dual": L1.dual(), "hexagon_dual": PolyhedralNorm(HEX_VERTICES).dual(),
               "linf3": LpNorm(math.inf, 3), "l2_3": LpNorm(2, 3)}


@pytest.mark.parametrize("name", sorted(CHORD_NORMS))
def test_chord_closed_forms_land_on_the_sphere(name):
    spec = CHORD_NORMS[name]
    rng = np.random.default_rng(sorted(CHORD_NORMS).index(name) + 95)
    for r in (0.0, 0.3, 0.9, 0.999):
        for _ in range(20):
            o = r * spec.unit(rng.normal(size=spec.dim)) if r else np.zeros(spec.dim)
            z = rng.normal(size=spec.dim) * 10.0 ** rng.uniform(-3, 3)
            s_minus, s_plus = spec.chord(o, z)
            assert s_minus < 0.0 < s_plus
            ends = np.stack([o + s_minus * z, o + s_plus * z])
            assert np.abs(spec.values(ends) - 1.0).max() <= 1e-12
    # o just inside the sphere and z along it: the far root must not come
    # from the difference of two nearly equal numbers
    o = (1.0 - 1e-9) * spec.unit(np.ones(spec.dim))
    s_minus, s_plus = spec.chord(o, o)
    assert np.abs(spec.values(np.stack([o + s_minus * o, o + s_plus * o])) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("spec", [L15, L3, LpNorm(50, 2), ValuesOnly(L3)],
                         ids=["l1.5", "l3", "l50", "values_only_l3"])
def test_chord_bracket_lands_on_the_sphere(spec):
    rng = np.random.default_rng(97)
    for r in (0.0, 0.5, 0.99):
        o = r * spec.unit(rng.normal(size=2))
        z = rng.normal(size=2)
        s_minus, s_plus = spec.chord(o, z)
        assert s_minus < 0.0 < s_plus
        ends = np.stack([o + s_minus * z, o + s_plus * z])
        assert np.abs(spec.values(ends) - 1.0).max() <= 1e-10 * spec.value(z)
