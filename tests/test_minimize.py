"""Line minimization: golden section, distances to lines, quadratic functionals."""

import contextlib
import math
import signal
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bjcones import (
    LpNorm,
    MinResult,
    Norm,
    PolyhedralNorm,
    brute_force_min,
    dist_to_line,
    is_approx_orth_b,
    line_distances,
    line_distances_from,
    min_b_functional,
    min_b_values,
    restrict_norm,
    scan_f,
    scan_g,
    sphere_points,
    sup_b_ratio,
)
from bjcones.minimize import _bracket, _golden_line_min, _line_min, golden_section_min
from conftest import HEX_VERTICES, L1, L15, L2, L3, LINF, grid_line_min, grid_sup_b_ratio

ALL_NORMS = [L1, L15, L2, L3, LINF]
SMOOTH_NORMS = [L15, L2, L3]


def test_golden_vector_of_parabolas():
    m = np.array([-3.0, 0.0, 0.25, 7.5])

    def f(t):
        return (t - m) ** 2

    lam, val = golden_section_min(f, np.full(4, -10.0), np.full(4, 10.0), 1e-8)
    assert np.all(np.abs(lam - m) <= 1e-7)
    assert np.all(val >= 0.0)
    assert np.all(val <= 1e-13)


def test_golden_min_at_endpoint():
    lam, val = golden_section_min(lambda t: t.copy(), np.array([1.0]), np.array([2.0]), 1e-9)
    assert lam[0] == 1.0
    assert val[0] == 1.0


def test_golden_degenerate_bracket():
    lam, val = golden_section_min(lambda t: t * t, np.array([0.5]), np.array([0.5]), 1e-9)
    assert lam[0] == 0.5
    assert val[0] == 0.25


def test_golden_never_underestimates():
    """The reported value is f at an actually evaluated point."""
    rng = np.random.default_rng(5)
    m = rng.uniform(-5, 5, size=20)

    def f(t):
        return np.abs(t - m) + 1.0

    _, val = golden_section_min(f, np.full(20, -8.0), np.full(20, 8.0), 1e-9)
    assert np.all(val >= 1.0)
    assert np.all(val <= 1.0 + 1e-8)


def test_bracket_shrinks_every_bracket_around_its_switch():
    roots = np.array([0.3, -1.7, 2.0 / 3.0])
    lo = np.array([0.0, 0.0, 1.0])
    hi = np.array([1.0, -2.0, 0.0])   # the last two run downward
    calls = []

    def pred(t):
        calls.append(t.shape)
        return (t - roots[:, None]) * np.sign(hi - lo)[:, None] >= 0.0

    # 64 points per stage shrink a bracket 65-fold: 6 and 7 calls from width 2
    for tol, stages in ((1e-9, 6), (1e-11, 7)):
        calls.clear()
        a, b = _bracket(pred, lo, hi, tol)
        assert len(calls) == stages and all(shape == (3, 64) for shape in calls[:-1])
        assert np.all(np.abs(b - a) <= tol)
        assert not pred(a[:, None]).any() and pred(b[:, None]).all()
        assert np.all(np.minimum(a, b) <= roots) and np.all(roots <= np.maximum(a, b))


def test_dist_anchor_euclidean_axes():
    res = dist_to_line(L2, [1, 0], [0, 1])
    assert isinstance(res, MinResult)
    assert res.value == pytest.approx(1.0, abs=1e-9)
    # the objective is quadratically flat at the bottom, so the within-tol
    # interval has width ~ sqrt(tol) around 0
    assert abs(res.lambda_lo) <= 2e-5
    assert abs(res.lambda_hi) <= 2e-5


def test_dist_anchor_euclidean_60_degrees():
    y = [math.cos(math.radians(60)), math.sin(math.radians(60))]
    res = dist_to_line(L2, [1, 0], y)
    assert res.value == pytest.approx(math.sin(math.radians(60)), abs=1e-9)


def test_dist_anchor_linf_flat_interval():
    res = dist_to_line(LINF, [1, 1], [-1, 0])
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.lambda_lo == pytest.approx(0.0, abs=1e-6)
    assert res.lambda_hi == pytest.approx(2.0, abs=1e-6)


def test_dist_anchor_l1_flat_interval():
    # ||(1+t, 1-t)||_1 = 2 on the whole segment t in [-1, 1]
    res = dist_to_line(L1, [1, 1], [1, -1])
    assert res.value == pytest.approx(2.0, abs=1e-9)
    assert res.lambda_lo == pytest.approx(-1.0, abs=1e-6)
    assert res.lambda_hi == pytest.approx(1.0, abs=1e-6)


def test_dist_zero_x():
    res = dist_to_line(L2, [0, 0], [1, 1])
    assert res.value == 0.0
    assert res.lambda_lo == res.lambda_hi == 0.0


def test_dist_rejects_zero_direction():
    with pytest.raises(ValueError):
        dist_to_line(L2, [1, 0], [0, 0])


@pytest.mark.parametrize("spec", ALL_NORMS)
def test_dist_matches_plain_grid(spec):
    rng = np.random.default_rng(6)
    for _ in range(8):
        x = rng.normal(size=2)
        y = rng.normal(size=2)
        if min(np.abs(x).max(), np.abs(y).max()) < 1e-3:
            continue
        res = dist_to_line(spec, x, y)
        gm = grid_line_min(spec, x, y)
        assert res.value <= gm + 1e-9
        assert gm - res.value <= 1e-4 * (1.0 + spec.value(x))


@pytest.mark.parametrize("spec", SMOOTH_NORMS)
def test_dist_matches_refined_grid_closely(spec):
    rng = np.random.default_rng(7)
    for _ in range(6):
        x = rng.normal(size=2)
        y = rng.normal(size=2)
        if min(np.abs(x).max(), np.abs(y).max()) < 1e-3:
            continue
        res = dist_to_line(spec, x, y)
        assert res.value == pytest.approx(brute_force_min(spec, x, y), abs=1e-7)


@pytest.mark.parametrize("spec", ALL_NORMS)
def test_dist_interval_is_near_minimal(spec):
    rng = np.random.default_rng(8)
    for _ in range(6):
        x = rng.normal(size=2)
        y = rng.normal(size=2)
        if min(np.abs(x).max(), np.abs(y).max()) < 1e-3:
            continue
        res = dist_to_line(spec, x, y)
        assert res.lambda_lo <= res.lambda_hi
        for s in np.linspace(0.0, 1.0, 7):
            t = (1 - s) * res.lambda_lo + s * res.lambda_hi
            v = spec.value(np.asarray(x, float) + t * np.asarray(y, float))
            assert v <= res.value + 2.0 * res.tol + 1e-12
        assert res.value <= spec.value(x) + 1e-12


finite = st.floats(min_value=-20, max_value=20, allow_nan=False)
pair = st.tuples(finite, finite).map(np.array).filter(lambda v: np.abs(v).max() > 1e-2)


@given(pair, pair, st.sampled_from([-2.0, -0.5, 0.5, 2.0]),
       st.sampled_from([L1, L15, L2, L3, LINF]))
@settings(max_examples=50)
def test_dist_scaling_rules(x, y, c, spec):
    base = dist_to_line(spec, x, y).value
    # the reported value carries bracket-width noise of order tol * slope,
    # so compare with a slack proportional to the direction scale
    slack = 1e-8 * (1.0 + spec.value(x) + abs(c) * spec.value(y))
    assert dist_to_line(spec, x, c * y).value == pytest.approx(base, abs=slack)
    assert dist_to_line(spec, c * x, y).value == pytest.approx(abs(c) * base, abs=slack)


def test_line_distances_matches_single_calls():
    rng = np.random.default_rng(9)
    x = np.array([0.7, -0.4])
    dirs = rng.normal(size=(12, 2))
    for spec in (L2, L1, LINF):
        batch = line_distances(spec, x, dirs)
        singles = [dist_to_line(spec, x, d).value for d in dirs]
        assert np.allclose(batch, singles, atol=1e-9)


def test_line_distances_from_matches_single_calls():
    rng = np.random.default_rng(10)
    pts = rng.normal(size=(12, 2))
    y = np.array([0.3, 0.9])
    for spec in (L2, L15):
        batch = line_distances_from(spec, pts, y)
        singles = [dist_to_line(spec, p, y).value for p in pts]
        assert np.allclose(batch, singles, atol=1e-9)


def test_min_b_zero_at_orthogonal_pair():
    assert min_b_functional(L2, [1, 0], [0, 1], 0.0) == pytest.approx(0.0, abs=1e-12)


def test_min_b_hilbert_threshold():
    y = np.array([math.sqrt(0.5), math.sqrt(0.5)])
    assert min_b_functional(L2, [1, 0], y, 0.8) >= -1e-9
    assert min_b_functional(L2, [1, 0], y, 0.5) < -1e-4


def test_min_b_collinear_anchor():
    # g(t) = (1+t)^2 - 1 + |t| has minimum -1/4 at t = -1/2
    assert min_b_functional(L2, [1, 0], [1, 0], 0.5) == pytest.approx(-0.25, abs=1e-9)


def test_min_b_never_positive():
    rng = np.random.default_rng(11)
    for spec in ALL_NORMS:
        dirs = rng.normal(size=(10, 2))
        vals = min_b_values(spec, [0.4, 0.8], dirs, 0.3)
        assert np.all(vals <= 1e-12)


def test_min_b_values_matches_scalar():
    rng = np.random.default_rng(12)
    dirs = rng.normal(size=(8, 2))
    x = np.array([1.1, -0.2])
    for spec in (L2, LINF):
        batch = min_b_values(spec, x, dirs, 0.4)
        singles = [min_b_functional(spec, x, d, 0.4) for d in dirs]
        assert np.allclose(batch, singles, atol=1e-9)


def test_min_b_rejects_bad_inputs():
    with pytest.raises(ValueError):
        min_b_functional(L2, [1, 0], [0, 1], 1.0)
    with pytest.raises(ValueError):
        min_b_functional(L2, [1, 0], [0, 1], -0.1)
    with pytest.raises(ValueError):
        min_b_functional(L2, [1, 0], [0, 0], 0.5)


def test_sup_b_euclidean_is_cos_angle():
    for deg in (10, 30, 45, 60, 90, 120, 155):
        th = math.radians(deg)
        y = np.array([math.cos(th), math.sin(th)])
        assert sup_b_ratio(L2, [1, 0], y) == pytest.approx(
            abs(math.cos(th)), abs=1e-8
        ), deg


def test_sup_b_collinear_is_one():
    assert sup_b_ratio(L2, [1, 0], [-2, 0]) == 1.0
    assert sup_b_ratio(L1, [0.3, 0.4], [0.6, 0.8]) == 1.0


def test_sup_b_linf_corner_pairs():
    # (1,1) is orthogonal to (1,0) in the sup norm, so the minimal eps is 0 ...
    assert sup_b_ratio(LINF, [1, 1], [1, 0]) == pytest.approx(0.0, abs=1e-9)
    # ... while against (1,1) the direction (1,0) needs eps = 1 despite being
    # non-collinear: the left derivative of ||(1,0) + t (1,1)|| is -1.
    assert sup_b_ratio(LINF, [1, 0], [1, 1]) == pytest.approx(1.0, abs=1e-9)


def test_sup_b_rejects_zero_inputs():
    with pytest.raises(ValueError):
        sup_b_ratio(L2, [0, 0], [1, 0])
    with pytest.raises(ValueError):
        sup_b_ratio(L2, [1, 0], [0, 0])


def test_sup_b_invariant_under_scaling():
    rng = np.random.default_rng(14)
    for spec in (L2, L1, L3):
        x = rng.normal(size=2)
        y = rng.normal(size=2)
        base = sup_b_ratio(spec, x, y)
        for c, d in [(2.0, 0.5), (-1.0, 1.0), (0.25, -3.0)]:
            assert sup_b_ratio(spec, c * x, d * y) == pytest.approx(base, abs=1e-8)


# ----- exact line kernels -----------------------------------------------------

SECTION_BASIS = ([1.0, 0.2, 0.3], [0.1, 1.0, 0.4])
HEXAGON = PolyhedralNorm(HEX_VERTICES)
OCTAGON = PolyhedralNorm([[math.cos(a), math.sin(a)] for a in 0.1 + np.arange(8) * math.pi / 4])
KERNEL_NORMS = {
    "l1_2": L1, "l2_2": L2, "linf_2": LINF,
    "l1_3": LpNorm(1, 3), "l2_3": LpNorm(2, 3), "linf_3": LpNorm(math.inf, 3),
    "hexagon": HEXAGON, "octagon": OCTAGON,
    "section_linf": restrict_norm(LpNorm(math.inf, 3), *SECTION_BASIS),
    "section_l2": restrict_norm(LpNorm(2, 3), *SECTION_BASIS),
}
KERNEL_EPS = [None, 0.0, 0.3, 0.999]
# 2-D lp norms with 1 < p < inf have an exact kernel for the distance only
LP_KERNEL_NORMS = {f"l{p}_2": LpNorm(p, 2) for p in (1.01, 1.5, 3, 50)}
KERNEL_CASES = ([(name, eps) for name in sorted(KERNEL_NORMS) for eps in KERNEL_EPS]
                + [(name, None) for name in sorted(LP_KERNEL_NORMS)])
KERNEL_SEEDS = {name: i for i, name in enumerate(sorted(KERNEL_NORMS) + sorted(LP_KERNEL_NORMS))}


def kernel_rows(spec, rng):
    """Line rows (x, y): random, nearly collinear, flat, 1e+-100-scaled, and
    with a zero coordinate in y (and then also in x) in the ambient space."""
    d = spec.dim
    x = rng.normal(size=(20, d))
    y = rng.normal(size=(20, d))
    # nearly collinear
    y[4:8] = x[4:8] * rng.uniform(-2.0, 2.0, size=(4, 1)) + 1e-7 * y[4:8]
    # y along the face of the norm through x: the functional active at x
    # (a difference quotient, exact inside a face) vanishes on y, so on a
    # polygonal norm the minimum is flat, and elsewhere it sits at t = 0
    for i in range(8, 12):
        h = 1e-7 * np.eye(d)
        f = (spec.values(x[i] + h) - spec.values(x[i] - h)) / 2e-7
        y[i] -= (f @ y[i]) / (f @ f) * f
    # scaled by 1e+-100
    x[12:16] *= np.array([1e100, 1e-100, 1e100, 1e-100])[:, None]
    y[12:16] *= np.array([1e100, 1e-100, 1e-100, 1e100])[:, None]
    # zero coordinates; on a section, (-c1, c0) is orthogonal to a basis
    # column c holding a 1.0, so the ambient coordinate is exactly zero
    basis = getattr(spec, "basis", None)
    if basis is None:
        y[16:, 0] = 0.0
        x[18:, -1] = 0.0
    else:
        scale = np.array([2.0, -0.5, 4.0, -0.25])[:, None]
        y[16:] = scale * np.array([-basis[1, 0], basis[0, 0]])
        x[18:] = scale[2:] * np.array([-basis[1, 1], basis[0, 1]])
    ambient = (lambda v: v) if basis is None else (lambda v: v @ basis)
    assert np.all(ambient(y[16:])[:, 0] == 0.0)
    return x, y


def line_objective(spec, x, y, t, eps):
    nv = spec.values(x + t[:, None] * y)
    if eps is None:
        return nv
    nx = spec.values(x)
    return nv * nv - nx * nx + 2.0 * eps * nx * spec.values(y) * np.abs(t)


def convex_lower_bound(f, radius, n=4001):
    """A certified lower bound on min f over [-radius, radius] for a convex f.

    The discrete minimizer's two neighbouring cells hold the minimum, and on
    each cell f lies above the secants of the cells beside it, extended.
    """
    t = np.linspace(-radius, radius, n)
    v = f(t)
    i = int(np.argmin(v))
    slope = np.diff(v) / np.diff(t)
    best = np.inf
    for j in (i - 1, i):
        if not 0 <= j < n - 1:
            continue
        lo, hi = t[j], t[j + 1]
        lines = [(t[j], v[j], slope[j - 1]) if j >= 1 else None,
                 (t[j + 1], v[j + 1], slope[j + 1]) if j + 1 < n - 1 else None]
        lines = [ln for ln in lines if ln is not None]

        def envelope(s):
            return max((v0 + k * (s - t0) for t0, v0, k in lines), default=-np.inf)

        pts = [lo, hi]
        if len(lines) == 2 and lines[0][2] != lines[1][2]:
            (t0, v0, k0), (t1, v1, k1) = lines
            pts.append(min(max((v1 - v0 + k0 * t0 - k1 * t1) / (k0 - k1), lo), hi))
        best = min(best, min(envelope(s) for s in pts))
    return best


@pytest.mark.parametrize("name, eps", KERNEL_CASES)
def test_line_kernel_is_exact(name, eps):
    spec = {**KERNEL_NORMS, **LP_KERNEL_NORMS}[name]
    assert spec.line_min(np.zeros((1, spec.dim)), np.ones((1, spec.dim)), eps) is not None
    x, y = kernel_rows(spec, np.random.default_rng(KERNEL_SEEDS[name]))
    tol = spec.minimization_tol
    t, v, radius = _line_min(spec, x, y, tol, eps)
    _, golden, golden_radius = _golden_line_min(spec, x, y, tol, eps)
    nx = spec.values(x)
    scale = nx if eps is None else nx * nx
    assert np.array_equal(radius, golden_radius)
    # no worse than golden section, and attained at the returned t
    assert np.all(v <= golden + 1e-12 * scale)
    assert np.all(np.abs(line_objective(spec, x, y, t, eps) - v) <= 1e-12 * scale)
    for i in range(len(x)):
        def f(s):
            return line_objective(spec, np.broadcast_to(x[i], (len(s), spec.dim)),
                                  np.broadcast_to(y[i], (len(s), spec.dim)), s, eps)
        assert v[i] >= convex_lower_bound(f, radius[i]) - 1e-12 * scale[i], i
        if eps is None:
            assert v[i] <= brute_force_min(spec, x[i], y[i]) + 1e-12 * scale[i], i


def test_quadratic_minimum_at_a_kink_of_two_rising_pieces():
    # along (1, 0.5) + t (1, 0.2) the sup norm rises with slope 0.2 and then 1;
    # the quadratic functional at eps = 0.2 bottoms out at that kink, t = -0.625
    t, v, _ = _line_min(LINF, np.array([[1.0, 0.5]]), np.array([[1.0, 0.2]]), 1e-9, 0.2)
    assert t[0] == -0.625
    assert v[0] == pytest.approx(-0.609375, abs=1e-15)


def test_l1_quadratic_minimum_with_a_zero_coordinate_in_y():
    # ||(1/3 + t, 2/3)||_1^2 - 1 + 2 eps |t| bottoms out at t = -1/3, where it
    # is -5/9 + 2 eps / 3; y = (1, 0) has a constant second coordinate
    x, y = np.array([1 / 3, 2 / 3]), np.array([1.0, 0.0])
    for eps in (0.0, 0.3):
        assert min_b_functional(L1, x, y, eps) == pytest.approx(-5 / 9 + 2 * eps / 3, abs=1e-15)
        assert not is_approx_orth_b(L1, x, y, eps)
    # sphere directions as in g_cone's scans; angle 0 gives y = (1, 0)
    points = sphere_points(L1, np.arange(8) * math.pi / 4)
    golden = _golden_line_min(L1, x[None, :], points, L1.minimization_tol, 0.3)[1]
    v = min_b_values(L1, x, points, 0.3)
    assert np.all((v <= golden + 1e-12) & (v >= golden - 1e-9))


class ValuesOnly(Norm):
    """A norm that gives only values(), like one the library does not know."""

    def __init__(self, norm):
        self.norm = norm
        self.dim = norm.dim

    def values(self, points):
        return self.norm.values(points)


def test_norms_without_a_kernel_use_golden_section():
    for spec, eps in ((restrict_norm(LpNorm(3, 3), *SECTION_BASIS), None),
                      (LpNorm(3, 3), None), (ValuesOnly(L3), None), (L15, 0.3), (L3, 0.3)):
        assert spec.line_min(np.ones((1, spec.dim)), np.eye(spec.dim)[:1], eps) is None


@pytest.mark.parametrize("spec", ALL_NORMS + [
    HEXAGON, LpNorm(3, 3), LpNorm(math.inf, 3),
    restrict_norm(LpNorm(3, 3), *SECTION_BASIS),
    restrict_norm(LpNorm(math.inf, 3), *SECTION_BASIS),
    ValuesOnly(L3),
])
def test_sup_b_matches_log_grid(spec):
    rng = np.random.default_rng(13)
    for _ in range(6):
        x = rng.normal(size=spec.dim)
        y = rng.normal(size=spec.dim)
        if min(np.abs(x).max(), np.abs(y).max()) < 0.05:
            continue
        assert sup_b_ratio(spec, x, y) == pytest.approx(
            grid_sup_b_ratio(spec, x, y), abs=1e-5
        )


PLANE_NORMS = {
    "l1": L1, "l1.5": L15, "l2": L2, "l3": L3, "linf": LINF, "hexagon": HEXAGON,
    "section_l3": restrict_norm(LpNorm(3, 3), *SECTION_BASIS),
    "section_linf": restrict_norm(LpNorm(math.inf, 3), *SECTION_BASIS),
    "values_only_l3": ValuesOnly(L3),
}


@pytest.mark.parametrize("name", sorted(PLANE_NORMS))
def test_line_distances_from_is_one_functional(name):
    spec = PLANE_NORMS[name]
    rng = np.random.default_rng(sorted(PLANE_NORMS).index(name))
    y = rng.normal(size=2)
    pts = np.vstack([rng.normal(size=(10, 2)), 3.0 * y, [-y[1], y[0]]])
    tol = spec.minimization_tol
    for c, d in ((1.0, 1.0), (1e100, 1e-100), (1e-100, 1e100), (1e100, 1e100), (1e-100, 1e-100)):
        v = line_distances_from(spec, c * pts, d * y)
        golden = _golden_line_min(spec, c * pts, np.broadcast_to(d * y, pts.shape).copy(), tol)[1]
        assert np.all(np.abs(v - golden) <= 1e-9 * spec.values(c * pts)), (c, d)
    # brute force overshoots the minimum, so it bounds the distance from above
    for p, dist in zip(pts, line_distances_from(spec, pts, y)):
        assert dist <= brute_force_min(spec, p, y, grid_n=20_001) + 1e-12 * spec.value(p)
    with pytest.raises(ValueError):
        line_distances_from(spec, pts, [0.0, 0.0])


def test_line_distances_from_takes_tol_in_3d_only():
    # the plane's distance functional has no tolerance to set
    with pytest.raises(ValueError):
        line_distances_from(L3, [[1.0, 0.5]], [0.2, 1.0], tol=1e-6)
    sec = restrict_norm(LpNorm(3, 3), *SECTION_BASIS)
    with pytest.raises(ValueError):
        line_distances_from(sec, [[1.0, 0.5]], [0.2, 1.0], tol=1e-6)
    v = line_distances_from(LpNorm(3, 3), [[1.0, 0.5, 0.0]], [0.2, 1.0, 0.3], tol=1e-6)
    assert v[0] == pytest.approx(dist_to_line(LpNorm(3, 3), [1.0, 0.5, 0.0], [0.2, 1.0, 0.3]).value,
                                 abs=1e-6)


def test_golden_stop_is_relative_below_unit_brackets():
    # the bracket 2 ||x|| / ||y|| is about 1.3e-11 wide, below the absolute
    # tol of 1e-10, where golden section used to stop at t = 0 and report ||x||
    x = 1e-12 * np.array([1.0, 2.0, 3.0])
    y = np.array([0.3, 1.0, 0.2])
    spec = LpNorm(3, 3)
    res = dist_to_line(spec, x, y)
    assert res.value == pytest.approx(2.4557002878e-12, rel=1e-9)
    assert res.value >= convex_lower_bound(
        lambda s: line_objective(spec, x[None, :], y[None, :], s, None),
        2.0 * spec.value(x) / spec.value(y)) - 1e-12 * spec.value(x)
    sec = restrict_norm(LpNorm(3, 3), *SECTION_BASIS)
    dirs = np.array([[0.4, -1.0], [1.0, 1.0]])
    unit = line_distances(sec, [1.0, 2.0], dirs)
    assert np.allclose(line_distances(sec, [1e-12, 2e-12], dirs), 1e-12 * unit, rtol=1e-9, atol=0.0)


def test_golden_stop_is_relative_above_wide_brackets():
    # at unit scale 12 of these rows have minimum exactly 0, at t = 0; with an
    # absolute tol a bracket 1e5 or more wide resolved t below rounding and
    # reported noise under 0, at 1e200 an overflow to -inf
    x = L3.unit([0.3, 1.0])
    dirs = sphere_points(L3, np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False))
    unit = min_b_values(L3, x, dirs, 0.3)
    zero = unit == 0.0
    assert zero.sum() == 12
    for scale in (1e5, 1e160, 1e200):
        big = min_b_values(L3, scale * x, dirs, 0.3)
        assert np.all(big[zero] == 0.0)
        assert np.all(big[~zero] < 0.0)


def test_min_b_zero_once_the_square_overflows():
    assert min_b_functional(L2, [1e160, 0.0], [0.3, 1.0], 0.3) == 0.0


@pytest.mark.parametrize("spec", [L2, L3, LINF], ids=["l2", "l3", "linf"])
def test_min_b_never_nan_once_the_square_overflows(spec):
    # here the minimum is 0, at t = 0, for all three norms; golden section
    # (l3) may report rounding noise below it
    big = min_b_functional(spec, [1e160, 0.0], [0.3, 1.0], 0.3)
    assert -1e-15 * 1e320 <= big <= 0.0
    rng = np.random.default_rng(41)
    x = np.array([0.6, -0.8])
    dirs = rng.normal(size=(16, 2))
    for eps in (0.0, 0.3, 0.9):
        unit = min_b_values(spec, x, dirs, eps)
        big = min_b_values(spec, 1e160 * x, dirs, eps)
        assert not np.any(np.isnan(big))
        # the value is ||x||^2 = 1e320 times the unit-scale one: -inf only
        # where that is negative, and otherwise equal to it up to rounding
        finite = np.isfinite(big)
        assert np.all(unit[~finite] < 0.0)
        assert np.allclose(big[finite] / 1e160 / 1e160, unit[finite], rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("name", ["l2_2", "linf_2", "hexagon", "section_linf"])
def test_oracle_scans_run_golden_section(name):
    spec = KERNEL_NORMS[name]
    x = np.array([0.3, 1.0])
    f = scan_f(spec, x, 0.4, n=720)
    g = scan_g(spec, x, 0.4, n=720)
    points = sphere_points(spec, f.angles)
    tol = spec.minimization_tol
    assert np.array_equal(f.values, _golden_line_min(
        spec, np.broadcast_to(x, points.shape).copy(), points, tol)[1])
    assert np.array_equal(g.values, _golden_line_min(
        spec, (x / spec.value(x))[None, :], points, tol, 0.4)[1])


@contextlib.contextmanager
def deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("x, y", [([1e6, 2e6], [1.0, 0.5]), ([1.0, 2.0], [1e-7, 5e-8])])
def test_dist_to_line_far_minimizer_l2(x, y):
    # the minimizer lies where doubles are coarser than tol; the edge search
    # used to spin there forever
    with deadline(5):
        res = dist_to_line(L2, x, y)
    closed = abs(x[0] * y[1] - x[1] * y[0]) / math.hypot(*y)
    assert res.value == pytest.approx(closed, rel=1e-12)
    assert res.lambda_lo <= -(x[0] * y[0] + x[1] * y[1]) / (y[0] ** 2 + y[1] ** 2) <= res.lambda_hi


@pytest.mark.parametrize("spec", [HEXAGON, L3], ids=["hexagon", "l3"])
def test_dist_to_line_far_minimizer(spec):
    x = np.array([0.3e7, 1e7])
    y = np.array([1.0, 0.2])
    y = y / spec.value(y) * spec.value(x) / 1e7   # ||x|| / ||y|| = 1e7
    with deadline(5):
        res = dist_to_line(spec, x, y)
    assert res.lambda_lo <= res.lambda_hi
    nx = spec.value(x)
    assert res.value <= brute_force_min(spec, x, y) + 1e-12 * nx
    assert res.value >= convex_lower_bound(
        lambda s: line_objective(spec, x[None, :], y[None, :], s, None), 2e7) - 1e-12 * nx


SCALED_FAMILIES = {
    "l2": L2, "l3": L3, "l1": L1, "linf": LINF, "hexagon": HEXAGON, "l3_3": LpNorm(3, 3),
    "section_l3": restrict_norm(LpNorm(3, 3), [1.0, 0.2, 0.3], [0.1, 1.0, 0.4]),
}


@pytest.mark.parametrize("name", sorted(SCALED_FAMILIES))
def test_dist_interval_ends_at_extreme_scales(name):
    # x and y scaled by 10^u for u uniform in [-k, k], k = 20 or 150, so R =
    # 2 ||x|| / ||y|| often lies far below or above tol: each end is +-R, or lies
    # in the level set {t : ||x + t y|| <= value + tol} with the point 1e-6 R
    # further out outside it
    spec = SCALED_FAMILIES[name]
    rng = np.random.default_rng(20 + sorted(SCALED_FAMILIES).index(name))
    for k in [20, 150] * 50:
        x, y = (rng.normal(size=spec.dim) * 10.0 ** rng.uniform(-k, k) for _ in range(2))
        res = dist_to_line(spec, x, y)
        radius = 2.0 * spec.value(x) / spec.value(y)
        level = res.value + res.tol
        ends = np.array([res.lambda_lo, res.lambda_hi])
        free = np.abs(np.abs(ends) - radius) > 4.0 * np.spacing(radius)
        probes = np.concatenate([ends, ends + [-1e-6 * radius, 1e-6 * radius]])
        nv = spec.values(x + probes[:, None] * y)
        assert res.lambda_lo <= res.lambda_hi
        assert np.all(nv[:2][free] <= level * (1.0 + 1e-12)), (x, y, res)
        assert np.all(nv[2:][free] > level), (x, y, res)


def test_dist_interval_l2_anchor_below_tol():
    # R = 1.1e-17 lies far below tol while the interval is a sliver of the
    # bracket; the edges are the exact roots of ||x + t y|| = value + tol
    res = dist_to_line(L2, [-5.63e-5, 4.24e-5], [-6.79e12, -1.02e13])
    assert res.lambda_lo == pytest.approx(3.24684304544618e-19, rel=1e-11, abs=0.0)
    assert res.lambda_hi == pytest.approx(3.44046601298503e-19, rel=1e-11, abs=0.0)


# ||(1 + 3t, 0.5)|| = 0.5 where 1 + 3t lies in [-0.5, 0.5] on l_inf, is 0 on l1
# and lies in [-0.25, 0.25] on the hexagon
@pytest.mark.parametrize("spec, lo, hi", [
    (LINF, -0.5, -1.0 / 6.0), (L1, -1.0 / 3.0, -1.0 / 3.0), (HEXAGON, -5.0 / 12.0, -0.25),
], ids=["linf", "l1", "hexagon"])
def test_dist_interval_subnormal_direction_entry(spec, lo, hi):
    # a functional along the second axis has a subnormal F . z, and the closed-form
    # chord's division by it may overflow to an s_i that is never the nearest
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = dist_to_line(spec, [1.0, 0.5], [3.0, 2.2e-308])
    assert res.value == 0.5
    assert res.lambda_lo == pytest.approx(lo - res.tol / 3.0, abs=1e-15)
    assert res.lambda_hi == pytest.approx(hi + res.tol / 3.0, abs=1e-15)


@pytest.mark.parametrize("spec", [L2, L3, LINF, HEXAGON, LpNorm(3, 3)],
                         ids=["l2", "l3", "linf", "hexagon", "l3_3"])
def test_dist_interval_where_value_plus_tol_rounds_to_value(spec):
    # at ||x|| = 1e200 value + tol rounds to value, so the chord's o lies on the
    # sphere up to rounding and its roots must come out next to 0
    rng = np.random.default_rng(12)
    for _ in range(20):
        x, y = rng.normal(size=spec.dim) * 1e200, rng.normal(size=spec.dim)
        res = dist_to_line(spec, x, y)
        assert res.value + res.tol == res.value
        radius = 2.0 * spec.value(x) / spec.value(y)
        assert 0.0 <= res.lambda_hi - res.lambda_lo <= 1e-7 * radius
        ends = np.array([res.lambda_lo, res.lambda_hi])
        assert np.all(spec.values(x + ends[:, None] * y) <= res.value * (1.0 + 1e-12))
