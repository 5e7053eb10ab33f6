"""Line minimization: golden section, distances to lines, quadratic functionals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bjcones import (
    MinResult,
    brute_force_min,
    dist_to_line,
    line_distances,
    line_distances_from,
    min_b_functional,
    min_b_values,
    sup_b_ratio,
)
from bjcones.minimize import _bracket, golden_section_min
from conftest import L1, L15, L2, L3, LINF, grid_line_min, grid_sup_b_ratio

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


@pytest.mark.parametrize("spec", ALL_NORMS)
def test_sup_b_matches_log_grid(spec):
    rng = np.random.default_rng(13)
    for _ in range(6):
        x = rng.normal(size=2)
        y = rng.normal(size=2)
        if min(np.abs(x).max(), np.abs(y).max()) < 0.05:
            continue
        assert sup_b_ratio(spec, x, y) == pytest.approx(
            grid_sup_b_ratio(spec, x, y), abs=1e-5
        )


def test_sup_b_invariant_under_scaling():
    rng = np.random.default_rng(14)
    for spec in (L2, L1, L3):
        x = rng.normal(size=2)
        y = rng.normal(size=2)
        base = sup_b_ratio(spec, x, y)
        for c, d in [(2.0, 0.5), (-1.0, 1.0), (0.25, -3.0)]:
            assert sup_b_ratio(spec, c * x, d * y) == pytest.approx(base, abs=1e-8)
