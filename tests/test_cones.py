"""Cone decompositions: construction, membership, extremal sets, inversion."""

import math

import numpy as np
import pytest

import bjcones.cones
from bjcones import (
    ConePair,
    NormalCone2D,
    NoSolutionError,
    brute_force_min,
    cone_membership,
    cones_equal,
    dist_to_line,
    eps_b_min,
    f_cone,
    find_bj_direction,
    find_x_for_cone,
    g_cone,
    in_x_minus,
    in_x_plus,
    is_approx_orth_d,
    is_bj_orthogonal,
    is_smooth_point,
    line_distances,
    normal_cone,
    s_set,
    sphere_point,
)
from bjcones import LpNorm, PolyhedralNorm, restrict_norm
from conftest import HEX_VERTICES, L1, L15, L2, L3, LINF, ValuesOnly, ang, random_unit

HEXN = PolyhedralNorm(HEX_VERTICES)
ALL_NORMS = [L1, L15, L2, L3, LINF, HEXN]
SMOOTH_NORMS = [L15, L2, L3]


def line_gap(u, v):
    """Angular distance between the lines spanned by u and v."""
    a = ang(u, v)
    return min(a, math.pi - a)


def test_normal_cone_normalizes_in_ambient_norm():
    cone = normal_cone(L1, [2, 2], [-1, 3])
    assert np.allclose(cone.v1, [0.5, 0.5], atol=1e-12)
    assert np.allclose(cone.v2, [-0.25, 0.75], atol=1e-12)
    assert L1.value(cone.v1) == pytest.approx(1.0)
    assert L1.value(cone.v2) == pytest.approx(1.0)


def test_normal_cone_rejects_opposite_vectors():
    with pytest.raises(ValueError):
        normal_cone(L2, [1, 0], [-2, 0])
    with pytest.raises(ValueError):
        normal_cone(LpNorm(2, 3), [1, 0, 0], [0, 1, 0])


def test_cone_membership_quadrant_anchors():
    cone = normal_cone(L2, [1, 0], [0, 1])
    assert cone_membership(cone, [2, 3])
    assert not cone_membership(cone, [-1, 1])
    assert cone_membership(cone, [0, 0])
    assert cone_membership(cone, [1e-12, 5])


def test_cone_membership_wide_cone_anchor():
    cone = normal_cone(L2, [0.6, 0.8], [-0.6, 0.8])
    assert cone_membership(cone, [0, 1])
    assert not cone_membership(cone, [1, 0])
    assert not cone_membership(cone, [0, -1])


def test_cone_membership_half_line():
    cone = normal_cone(L2, [0, 1], [0, 1])
    assert np.allclose(cone.v1, cone.v2)
    assert cone_membership(cone, [0, 2])
    assert not cone_membership(cone, [0, -2])
    assert not cone_membership(cone, [0.1, 1])
    assert cone_membership(cone, [0, 0])


def test_cone_pair_contains_is_symmetric():
    rng = np.random.default_rng(30)
    pair = ConePair(normal_cone(L2, [1, 0.2], [-0.3, 1]))
    for _ in range(40):
        v = rng.normal(size=2)
        assert pair.contains(v) == pair.contains(-v)


def test_cone_membership_rejects_bad_vectors():
    pair = ConePair(normal_cone(L2, [1, 0.2], [-0.3, 1]))
    for bad in ([math.nan, 1.0], np.array([1.0, math.inf]), (0.0, -math.inf), [1.0, 2.0, 3.0],
                np.ones((2, 1)), [[1.0], [2.0]], 5.0):
        with pytest.raises(ValueError):
            pair.contains(bad)
        with pytest.raises(ValueError):
            cone_membership(pair.cone, bad)
    assert pair.contains((1, 0.2)) and pair.contains(np.array([0.0, 1.0]))


def test_cones_equal_identity_reflection_swap():
    v1 = np.array([0.6, 0.8])
    v2 = np.array([-0.6, 0.8])
    a = ConePair(NormalCone2D(v1, v2))
    assert cones_equal(a, a)
    assert cones_equal(a, ConePair(NormalCone2D(-v1, -v2)))
    assert cones_equal(a, ConePair(NormalCone2D(v2, v1)))
    assert cones_equal(a, NormalCone2D(-v2, -v1))


def test_cones_equal_rejects_angular_gap():
    a = NormalCone2D(np.array([0.6, 0.8]), np.array([-0.6, 0.8]))
    b = NormalCone2D(np.array([0.6, 0.8]), np.array([-0.7, math.sqrt(1 - 0.49)]))
    assert not cones_equal(a, b, tol=1e-6)


def test_cones_equal_rejects_single_sign_flip():
    # flipping one boundary vector describes the complementary pair of cones
    v1 = np.array([0.6, 0.8])
    v2 = np.array([-0.6, 0.8])
    assert not cones_equal(NormalCone2D(v1, v2), NormalCone2D(-v1, v2))


def test_find_bj_direction_euclidean():
    th = math.radians(40)
    x = np.array([math.cos(th), math.sin(th)])
    y = find_bj_direction(L2, x)
    assert line_gap(y, [-math.sin(th), math.cos(th)]) <= 1e-6
    assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-9)


def test_find_bj_direction_linf():
    y = find_bj_direction(LINF, [1, 0])
    assert line_gap(y, [0, 1]) <= 1e-6
    y = find_bj_direction(LINF, [1, 1])
    assert is_bj_orthogonal(LINF, [1, 1], y)


def test_find_bj_direction_always_orthogonal():
    rng = np.random.default_rng(31)
    for spec in ALL_NORMS:
        for _ in range(4):
            x = random_unit(spec, rng)
            y = find_bj_direction(spec, x)
            assert spec.value(y) == pytest.approx(1.0, abs=1e-9)
            assert is_bj_orthogonal(spec, x, y)


def test_find_bj_direction_left_side():
    rng = np.random.default_rng(33)
    for spec in ALL_NORMS:
        for _ in range(3):
            v = random_unit(spec, rng)
            x = find_bj_direction(spec, v, side="left")
            assert spec.value(x) == pytest.approx(1.0, abs=1e-9)
            assert is_bj_orthogonal(spec, x, v)
    with pytest.raises(ValueError):
        find_bj_direction(L2, [1, 0], side="up")


def test_find_bj_direction_right_is_counterclockwise_end():
    # at the l1 corner (1, 0) the orthogonal arc runs from (0.5, 0.5) to (-0.5, 0.5)
    assert np.allclose(find_bj_direction(L1, [1, 0]), [-0.5, 0.5], rtol=0.0, atol=1e-9)


LEFT_FAMILIES = {
    "l1": L1, "l1.5": L15, "l2": L2, "l3": L3, "l50": LpNorm(50, 2), "linf": LINF, "hexagon": HEXN,
    "section_l3": restrict_norm(LpNorm(3, 3), [1.0, 0.2, 0.3], [0.1, 1.0, 0.4]),
    "values_only_l3": ValuesOnly(L3),
}


@pytest.mark.parametrize("name", sorted(LEFT_FAMILIES))
def test_find_bj_direction_left_is_a_certified_line_minimum(name):
    # y is orthogonal to x iff y is the least-norm point of its line along x, so
    # dist(y, span x) = ||y|| = 1, here certified by brute force
    spec = LEFT_FAMILIES[name]
    for phi in (0.3, 2.4):
        x = spec.unit([math.cos(phi), math.sin(phi)])
        y = find_bj_direction(spec, x, side="left")
        assert spec.value(y) == pytest.approx(1.0, abs=1e-12)
        assert is_bj_orthogonal(spec, y, x)
        assert brute_force_min(spec, y, x) >= 1.0 - 1e-12


@pytest.mark.parametrize("spec, x, on_face", [
    (LINF, [1.0, 0.0], lambda y: abs(abs(y[1]) - 1.0) <= 1e-12 and abs(y[0]) <= 1.0),
    (HEXN, [1.0, 0.0], lambda y: abs(abs(y[1]) - 1.0) <= 1e-12 and abs(y[0]) <= 0.5),
    (L1, [0.5, 0.5], lambda y: abs(abs(y[1] - y[0]) - 1.0) <= 1e-12 and y[0] * y[1] <= 0.0),
], ids=["linf", "hexagon", "l1"])
def test_find_bj_direction_left_on_a_face_parallel_to_x(spec, x, on_face):
    # the line minimum is a whole face of the sphere there, every point of which
    # is orthogonal to x; the answer is one of them
    y = find_bj_direction(spec, x, side="left")
    assert on_face(y), y
    assert is_bj_orthogonal(spec, y, x)


def test_dir_angle_resolves_small_angles():
    # acos of the cosine read every angle below about 1.5e-8 as 0
    angle = bjcones.cones._dir_angle
    assert angle([1.0, 0.0], [1.0, 1e-8]) == pytest.approx(1e-8, rel=1e-12)
    assert angle([1.0, 0.0], [-1.0, 1e-8]) == pytest.approx(math.pi - 1e-8, rel=1e-15)


def test_cones_equal_rejects_cones_1e8_apart():
    v1, v2 = np.array([0.6, 0.8]), np.array([-0.6, 0.8])
    c, s = math.cos(1e-8), math.sin(1e-8)
    w1 = np.array([c * v1[0] - s * v1[1], s * v1[0] + c * v1[1]])
    assert not cones_equal(NormalCone2D(v1, v2), NormalCone2D(w1, v2), 1e-9)
    assert cones_equal(NormalCone2D(v1, v2), NormalCone2D(w1, v2), 2e-8)


@pytest.mark.parametrize("p, eps", [(1.001, 1 - 1e-9), (1.01, 1 - 1e-9), (1.1, 1 - 1e-9),
                                    (1.5, 1 - 1e-13)])
def test_g_cone_near_eps_one_keeps_its_thin_gap(p, eps):
    # the arc ends (+-eps, s), s = (1 - eps^p)^(1/p), lie a few 1e-9 rad from -+x,
    # which the 1e-12 coincidence test of normal_cone used to read as 0
    pair = g_cone(LpNorm(p, 2), [1.0, 0.0], eps)
    s = (-math.expm1(p * math.log1p(eps - 1.0))) ** (1.0 / p)
    assert pair.cone.v1 == pytest.approx([eps, s], abs=1e-10)
    assert pair.cone.v2 == pytest.approx([-eps, s], abs=1e-10)


def test_f_cone_euclidean_anchor():
    res = f_cone(L2, [1, 0], 0.6)
    expected = normal_cone(L2, [0.6, 0.8], [-0.6, 0.8])
    assert cones_equal(res.pair, expected, tol=1e-6)
    assert res.t1 == pytest.approx(4.0 / 7.0, abs=1e-6)
    assert res.t2 == pytest.approx(4.0 / 7.0, abs=1e-6)
    assert line_gap(res.witness_y, [0, 1]) <= 1e-6
    assert 0.0 < res.t1 < 1.0 and 0.0 < res.t2 < 1.0


def test_f_cone_smooth_eps_zero_degenerates():
    rng = np.random.default_rng(32)
    for spec in SMOOTH_NORMS:
        x = random_unit(spec, rng)
        res = f_cone(spec, x, 0.0)
        assert ang(res.pair.cone.v1, res.pair.cone.v2) <= 1e-7
        assert ang(res.pair.cone.v1, res.witness_y) <= 1e-7
        assert res.t1 >= 1.0 - 1e-6 and res.t2 >= 1.0 - 1e-6
        assert is_bj_orthogonal(spec, x, res.pair.cone.v1)


def test_f_cone_l1_eps_zero_anchor():
    res = f_cone(L1, [1, 0], 0.0)
    expected = normal_cone(L1, [0.5, 0.5], [-0.5, 0.5])
    assert cones_equal(res.pair, expected, tol=1e-6)
    assert res.t1 == pytest.approx(0.5, abs=1e-6)


def test_f_cone_linf_corner_eps_zero():
    res = f_cone(LINF, [1, 1], 0.0)
    expected = normal_cone(LINF, [0, 1], [-1, 0])
    assert cones_equal(res.pair, expected, tol=1e-6)


def test_f_cone_eps_zero_on_values_only_norms():
    # derivatives by difference quotients still give the cone of the wrapped norm
    rng = np.random.default_rng(37)
    for inner in (L15, L2, L3):
        spec = ValuesOnly(inner)
        for _ in range(20):
            x = random_unit(inner, rng)
            res, ref = f_cone(spec, x, 0.0), f_cone(inner, x, 0.0)
            assert cones_equal(res.pair, ref.pair, tol=1e-6)
            assert ang(res.witness_y, ref.witness_y) <= 1e-6
            assert 0.0 < res.t1 <= 1.0 and 0.0 < res.t2 <= 1.0


def test_f_cone_rejects_bad_inputs():
    with pytest.raises(ValueError):
        f_cone(L2, [1, 0], 1.0)
    with pytest.raises(ValueError):
        f_cone(L2, [1, 0], -0.2)
    with pytest.raises(ValueError):
        f_cone(L2, [2, 0], 0.3)
    with pytest.raises(ValueError):
        f_cone(LpNorm(2, 3), [1, 0, 0], 0.3)


def test_f_cone_sign_split():
    """For eps > 0 one boundary vector lies in x+, the other in x-."""
    rng = np.random.default_rng(33)
    for spec in ALL_NORMS:
        x = random_unit(spec, rng)
        for eps in (0.2, 0.5, 0.8):
            res = f_cone(spec, x, eps)
            v1, v2 = res.pair.cone.v1, res.pair.cone.v2
            plus = [in_x_plus(spec, x, v) for v in (v1, v2)]
            minus = [in_x_minus(spec, x, v) for v in (v1, v2)]
            assert sum(plus) == 1, (spec, eps)
            assert minus[plus.index(False)]


def test_f_cone_matches_predicate_scan():
    rng = np.random.default_rng(34)
    for spec in (L1, HEXN):
        x = random_unit(spec, rng)
        eps = 0.5
        pair = f_cone(spec, x, eps).pair
        bounds = [math.atan2(v[1], v[0])
                  for v in (pair.cone.v1, pair.cone.v2, -pair.cone.v1, -pair.cone.v2)]
        for a in np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False):
            if min(abs(math.remainder(a - b, 2.0 * math.pi)) for b in bounds) <= 1e-4:
                continue
            p = sphere_point(spec, a)
            assert pair.contains(p) == is_approx_orth_d(spec, x, p, eps)


def test_s_set_euclidean_anchors():
    pts = s_set(L2, [1, 0], 0.6)
    assert len(pts) == 4
    targets = [np.array([sx * 0.6, sy * 0.8]) for sx in (1, -1) for sy in (1, -1)]
    for p in pts:
        assert min(float(np.abs(p - t).max()) for t in targets) <= 1e-6

    pts = s_set(L2, [1, 0], 0.0)
    assert len(pts) == 2
    assert line_gap(pts[0], [0, 1]) <= 1e-6
    assert np.allclose(pts[0], -pts[1])


def test_s_set_linf_corner_arc_endpoints():
    pts = s_set(LINF, [1, 1], 0.0)
    assert len(pts) == 4
    for p in pts:
        gap = min(line_gap(p, [0, 1]), line_gap(p, [1, 0]))
        assert gap <= 1e-6
        assert dist_to_line(LINF, [1, 1], p).value >= 1.0 - 1e-6
    # the whole arc between the endpoints is orthogonal; its midpoint strictly so
    assert is_bj_orthogonal(LINF, [1, 1], [1, -1])
    assert not is_bj_orthogonal(LINF, [1, 1], [1, 1e-3])


def test_s_set_certified_distance():
    rng = np.random.default_rng(35)
    for spec in ALL_NORMS:
        x = random_unit(spec, rng)
        for eps in (0.35, 0.75):
            pts = s_set(spec, x, eps)
            assert len(pts) == 4
            bound = math.sqrt(1.0 - eps * eps)
            for p in pts:
                assert spec.value(p) == pytest.approx(1.0, abs=1e-9)
                assert dist_to_line(spec, x, p).value == pytest.approx(bound, abs=1e-6)


def test_s_set_interior_is_strictly_above_bound():
    rng = np.random.default_rng(36)
    for spec in (L2, LINF, HEXN):
        x = random_unit(spec, rng)
        for eps in (0.3, 0.7):
            res = f_cone(spec, x, eps)
            v1, v2 = res.pair.cone.v1, res.pair.cone.v2
            bound = math.sqrt(1.0 - eps * eps)
            for s in np.linspace(0.1, 0.9, 9):
                z = spec.unit((1.0 - s) * v1 + s * v2)
                if min(ang(z, v1), ang(z, v2)) < 1e-3:
                    continue
                assert dist_to_line(spec, x, z).value > bound + 1e-9


def test_g_cone_euclidean_matches_f_cone():
    gp = g_cone(L2, [1, 0], 0.6)
    fp = f_cone(L2, [1, 0], 0.6).pair
    assert cones_equal(gp, fp, tol=1e-6)


def test_g_cone_eps_zero_half_line():
    for spec, x in ((L2, [1, 0]), (L3, [0, 1])):
        pair = g_cone(spec, x, 0.0)
        assert np.allclose(pair.cone.v1, pair.cone.v2)
        assert is_bj_orthogonal(spec, x, pair.cone.v1)


def test_g_cone_linf_smooth_point_anchor():
    # x = (1, 0.3) sits inside an edge of the sup-norm sphere, so the
    # hypothesis is met even though the space is not smooth; the member arc
    # around (0, 1) spans exactly the unit vectors (w, 1) with |w| <= eps
    pair = g_cone(LINF, [1, 0.3], 0.2)
    expected = normal_cone(LINF, [0.2, 1], [-0.2, 1])
    assert cones_equal(pair, expected, tol=1e-6)
    assert pair.contains([0.1, 1])
    assert not pair.contains([0.3, 1])


SECTION_BASIS = ([1.0, 0.2, 0.3], [0.1, 1.0, 0.4])
G_CONE_NORMS = {
    "l1.01": LpNorm(1.01, 2), "l1.5": L15, "l3": L3, "l50": LpNorm(50, 2),
    "linf": LINF, "hexagon": HEXN,
    "section_l3": restrict_norm(LpNorm(3, 3), *SECTION_BASIS),
    "section_linf": restrict_norm(LpNorm(math.inf, 3), *SECTION_BASIS),
}


@pytest.mark.parametrize("name", sorted(G_CONE_NORMS))
def test_g_cone_boundary_is_at_eps_b(name):
    # the arc ends are the unit directions whose least quadratic-type eps is eps
    spec = G_CONE_NORMS[name]
    rng = np.random.default_rng(sorted(G_CONE_NORMS).index(name) + 70)
    for eps in (0.2, 0.5, 0.9):
        x = random_unit(spec, rng)
        while not is_smooth_point(spec, x):
            x = random_unit(spec, rng)
        cone = g_cone(spec, x, eps).cone
        for v in (cone.v1, cone.v2):
            assert eps_b_min(spec, x, v) == pytest.approx(eps, abs=1e-8), (x, eps)


F_CONE_NORMS = {**G_CONE_NORMS, "l1": L1, "l2": L2, "values_only_l3": ValuesOnly(L3)}


@pytest.mark.parametrize("name", sorted(F_CONE_NORMS))
def test_f_cone_rays_are_at_the_bound(name):
    # each ray v has dist(x, span v) = sqrt(1 - eps^2), by the primal line distance
    spec = F_CONE_NORMS[name]
    rng = np.random.default_rng(sorted(F_CONE_NORMS).index(name) + 80)
    for eps in (0.05, 0.2, 0.5, 0.8, 0.999):
        for _ in range(4):
            x = random_unit(spec, rng)
            cone = f_cone(spec, x, eps).pair.cone
            d = line_distances(spec, x, np.stack([cone.v1, cone.v2]))
            assert np.abs(d - math.sqrt(1.0 - eps * eps)).max() <= 2e-10, (x, eps)


NEAR_BJ_NORMS = {
    "l1": (L1, [[1.0, 0.0], [0.0, -1.0]]), "l2": (L2, []), "l3": (L3, []),
    "linf": (LINF, [[1.0, 1.0], [-1.0, 1.0]]), "hexagon": (HEXN, HEX_VERTICES[:2]),
    "section_linf": (restrict_norm(LpNorm(math.inf, 3), *SECTION_BASIS), []),
}


@pytest.mark.parametrize("name", sorted(NEAR_BJ_NORMS))
def test_f_cone_near_zero_eps_is_the_bj_cone(name):
    # below eps = 2e-8, sqrt(1 - eps^2) is 1 up to rounding, so the line of the
    # dual chord touches the dual sphere at the subdifferential of x; both
    # rays must stay at its ends, corners of the norm included
    spec, corners = NEAR_BJ_NORMS[name]
    rng = np.random.default_rng(sorted(NEAR_BJ_NORMS).index(name) + 60)
    xs = [random_unit(spec, rng) for _ in range(6)] + [spec.unit(c) for c in corners]
    for x in xs:
        bj = f_cone(spec, x, 0.0).pair
        for eps in (1e-9, 1e-8, 2e-8):
            assert cones_equal(f_cone(spec, x, eps).pair, bj, 1e-6), (x, eps)


def test_g_cone_rejects_corner_and_bad_eps():
    with pytest.raises(ValueError):
        g_cone(L1, [1, 0], 0.3)
    with pytest.raises(ValueError):
        g_cone(LINF, [1, 1], 0.2)
    with pytest.raises(ValueError):
        g_cone(L2, [1, 0], 1.0)
    with pytest.raises(ValueError):
        g_cone(L2, [3, 0], 0.2)


def test_find_x_euclidean_anchor():
    x, eps = find_x_for_cone(L2, normal_cone(L2, [0.6, 0.8], [-0.6, 0.8]))
    assert eps == pytest.approx(0.6, abs=1e-6)
    assert line_gap(x, [1, 0]) <= 1e-6
    assert L2.value(x) == pytest.approx(1.0, abs=1e-9)


def test_find_x_complementary_euclidean_cone():
    # the cone between (0.6, 0.8) and (0.6, -0.8) is the F-cone of x = (0, 1)
    # at eps = 0.8, exactly
    x, eps = find_x_for_cone(L2, normal_cone(L2, [0.6, 0.8], [0.6, -0.8]))
    assert eps == pytest.approx(0.8, abs=1e-12)
    assert line_gap(x, [0, 1]) <= 1e-12


def test_find_x_half_line():
    x, eps = find_x_for_cone(L2, normal_cone(L2, [0, 1], [0, 1]))
    assert eps == 0.0
    assert line_gap(x, [1, 0]) <= 1e-6


def test_find_x_accepts_cone_pair_wrapper():
    pair = ConePair(normal_cone(L2, [0.6, 0.8], [-0.6, 0.8]))
    x, eps = find_x_for_cone(L2, pair)
    assert eps == pytest.approx(0.6, abs=1e-6)


def test_find_x_refuses_non_smooth_spaces():
    cone = normal_cone(LINF, [-0.5, 1], [-1, 1])
    with pytest.raises(NoSolutionError) as exc:
        find_x_for_cone(LINF, cone)
    assert "smooth" in str(exc.value)
    with pytest.raises(NoSolutionError):
        find_x_for_cone(HEXN, normal_cone(HEXN, [1, 0], [0, 1]))


def test_find_x_round_trip_l3():
    rng = np.random.default_rng(37)
    x = random_unit(L3, rng)
    res = f_cone(L3, x, 0.45)
    x2, eps2 = find_x_for_cone(L3, res.pair)
    assert eps2 == pytest.approx(0.45, abs=1e-5)
    assert line_gap(x2, x) <= 1e-5
    assert cones_equal(f_cone(L3, x2, eps2).pair, res.pair, tol=1e-5)


def test_find_x_rejects_invalid_cone():
    with pytest.raises(ValueError):
        find_x_for_cone(L2, NormalCone2D(np.array([1.0, 0.0]), np.array([-1.0, 0.0])))


ROUND_TRIP_NORMS = {
    "l1.01": (LpNorm(1.01, 2), 1e-8),
    "l1.5": (L15, 1e-8),
    "l3": (L3, 1e-8),
    "l50": (LpNorm(50, 2), 1e-8),
    "section_l3": (restrict_norm(LpNorm(3, 3), *SECTION_BASIS), 1e-8),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_NORMS))
def test_find_x_round_trips(name):
    spec, x_tol = ROUND_TRIP_NORMS[name]
    rng = np.random.default_rng(sorted(ROUND_TRIP_NORMS).index(name) + 50)
    for _ in range(30):
        th = rng.uniform(0.0, 2.0 * math.pi)
        x0 = spec.unit([math.cos(th), math.sin(th)])
        eps0 = rng.uniform(0.1, 0.9)
        x, eps = find_x_for_cone(spec, f_cone(spec, x0, eps0).pair)
        assert min(np.abs(x - x0).max(), np.abs(x + x0).max()) <= x_tol, (th, eps0)
        assert abs(eps - eps0) <= 1e-8, (th, eps0)


def test_find_x_makes_one_round_trip(monkeypatch):
    # f_cone puts both boundary rays on the same side of x, so the generator
    # (or -x, which gives the same pair) is the first candidate tried
    rng = np.random.default_rng(61)
    targets = [f_cone(L3, random_unit(L3, rng), rng.uniform(0.1, 0.9)).pair for _ in range(30)]
    calls = []

    def counting_f_cone(*args):
        calls.append(args)
        return f_cone(*args)

    monkeypatch.setattr(bjcones.cones, "f_cone", counting_f_cone)
    for pair in targets:
        find_x_for_cone(L3, pair)
    assert len(calls) == len(targets)
