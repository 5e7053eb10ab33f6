"""Exact and approximate orthogonality predicates and minimal-eps values."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bjcones import (
    dist_to_line,
    eps_b_min,
    eps_d_min,
    find_bj_direction,
    in_x_minus,
    in_x_plus,
    is_approx_orth_b,
    is_approx_orth_d,
    is_bj_orthogonal,
    is_collinear,
    orth_report,
)
from conftest import (
    L1,
    L15,
    L2,
    L3,
    LINF,
    grid_sup_b_ratio,
    random_unit,
)

ALL_NORMS = [L1, L15, L2, L3, LINF]
SMOOTH_NORMS = [L15, L2, L3]


def unit_dir(deg):
    th = math.radians(deg)
    return np.array([math.cos(th), math.sin(th)])


def test_bj_anchors():
    assert is_bj_orthogonal(LINF, [1, 1], [-1, 0])
    assert not is_bj_orthogonal(L2, [1, 0], [1, 1])
    assert is_bj_orthogonal(L1, [1, 0], [1, 1])
    assert is_bj_orthogonal(L2, [1, 0], [0, 1])
    assert is_bj_orthogonal(L2, [3, 4], [-4, 3])


def test_bj_zero_direction_is_orthogonal():
    assert is_bj_orthogonal(L2, [1, 0], [0, 0])


def test_bj_rejects_zero_x():
    with pytest.raises(ValueError):
        is_bj_orthogonal(L2, [0, 0], [1, 0])


def test_half_space_membership_anchors():
    y = unit_dir(45)
    assert in_x_plus(L2, [1, 0], y)
    assert not in_x_minus(L2, [1, 0], y)
    assert in_x_plus(L2, [1, 0], [0, 1])
    assert in_x_minus(L2, [1, 0], [0, 1])
    assert in_x_plus(L2, [1, 0], [0, 0])
    assert in_x_minus(L2, [1, 0], [0, 0])


def test_bj_is_plus_and_minus():
    rng = np.random.default_rng(20)
    for spec in ALL_NORMS:
        for _ in range(10):
            x = random_unit(spec, rng)
            y = rng.normal(size=2)
            bj = is_bj_orthogonal(spec, x, y)
            plus = in_x_plus(spec, x, y)
            minus = in_x_minus(spec, x, y)
            assert bj == (plus and minus)


def test_approx_d_anchors():
    assert is_approx_orth_d(L2, [1, 0], [0, 1], 0.6)
    assert not is_approx_orth_d(L2, [1, 0], unit_dir(30), 0.6)
    assert is_approx_orth_d(L2, [1, 0], [0, 0], 0.0)
    assert is_approx_orth_d(L2, [1, 0], [0, 0], 0.9)


def test_approx_b_anchors():
    assert is_approx_orth_b(L2, [1, 0], [0, 1], 0.0)
    y = unit_dir(45)
    assert is_approx_orth_b(L2, [1, 0], y, 0.8)
    assert not is_approx_orth_b(L2, [1, 0], y, 0.5)
    assert is_approx_orth_b(L2, [1, 0], [0, 0], 0.3)


def test_approx_predicates_reject_bad_eps():
    for bad in (-0.2, 1.0, 1.5):
        with pytest.raises(ValueError):
            is_approx_orth_d(L2, [1, 0], [0, 1], bad)
        with pytest.raises(ValueError):
            is_approx_orth_b(L2, [1, 0], [0, 1], bad)


def test_eps_d_min_anchors():
    assert eps_d_min(L2, [1, 0], unit_dir(45)) == pytest.approx(math.sqrt(0.5), abs=1e-9)
    assert eps_d_min(L2, [1, 0], [0, 1]) == pytest.approx(0.0, abs=1e-9)
    assert eps_d_min(L2, [1, 0], [1, 0]) == pytest.approx(1.0, abs=1e-12)
    assert eps_d_min(LINF, [1, 1], [-1, 0]) == pytest.approx(0.0, abs=1e-9)


def test_eps_b_min_anchors():
    assert eps_b_min(L2, [1, 0], unit_dir(60)) == pytest.approx(0.5, abs=1e-8)
    assert eps_b_min(L2, [1, 0], [0, 1]) == pytest.approx(0.0, abs=1e-9)
    assert eps_b_min(L2, [1, 0], [-3, 0]) == 1.0


def test_eps_b_min_linf_corner_matches_grid_oracle():
    """(1,1) is already orthogonal to (1,0) in the sup norm, so the minimal
    quadratic eps is 0 -- pinned against the independent grid oracle."""
    lib = eps_b_min(LINF, [1, 1], [1, 0])
    ref = grid_sup_b_ratio(LINF, [1, 1], [1, 0])
    assert lib == pytest.approx(ref, abs=1e-6)
    assert lib == pytest.approx(0.0, abs=1e-9)


def test_eps_b_min_can_be_one_without_collinearity():
    """In the sup norm ||(1,0) + t (1,1)|| decays with left slope -1, which
    forces eps = 1 even though the pair spans the plane."""
    assert not is_collinear([1, 0], [1, 1])
    assert eps_b_min(LINF, [1, 0], [1, 1]) == pytest.approx(1.0, abs=1e-9)


def test_eps_min_rejects_zero_inputs():
    with pytest.raises(ValueError):
        eps_d_min(L2, [1, 0], [0, 0])
    with pytest.raises(ValueError):
        eps_b_min(L2, [1, 0], [0, 0])
    with pytest.raises(ValueError):
        eps_d_min(L2, [0, 0], [1, 0])


def test_eps_d_one_exactly_for_collinear():
    rng = np.random.default_rng(21)
    for spec in ALL_NORMS:
        x = random_unit(spec, rng)
        assert eps_d_min(spec, x, -2.5 * x) == pytest.approx(1.0, abs=1e-9)
        y = rng.normal(size=2)
        if abs(x[0] * y[1] - x[1] * y[0]) > 0.3:
            assert eps_d_min(spec, x, y) < 1.0 - 1e-6


def test_eps_b_below_one_off_collinear_for_smooth_norms():
    for spec in SMOOTH_NORMS:
        for deg in np.linspace(20, 160, 15):
            assert eps_b_min(spec, [1, 0], unit_dir(deg)) < 1.0 - 1e-3


def test_predicates_flip_at_minimal_eps():
    rng = np.random.default_rng(22)
    for spec in ALL_NORMS:
        for _ in range(6):
            x = random_unit(spec, rng)
            y = random_unit(spec, rng)
            ed = eps_d_min(spec, x, y)
            eb = eps_b_min(spec, x, y)
            if ed + 0.01 < 1.0:
                assert is_approx_orth_d(spec, x, y, ed + 0.01)
            if ed - 0.01 >= 0.0:
                assert not is_approx_orth_d(spec, x, y, ed - 0.01)
            if eb + 0.01 < 1.0:
                assert is_approx_orth_b(spec, x, y, eb + 0.01)
            if eb - 0.01 >= 0.0:
                assert not is_approx_orth_b(spec, x, y, eb - 0.01)


finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
vec = st.tuples(finite, finite).map(np.array).filter(lambda v: np.abs(v).max() > 1e-2)
scale = st.sampled_from([-2.0, -0.5, 0.5, 2.0])


@given(vec, vec, scale, scale, st.sampled_from([L1, L2, LINF]),
       st.floats(min_value=0.0, max_value=0.95))
@settings(max_examples=60, deadline=None)
# golden section reached a line distance one ulp below 1 on one side only,
# which sqrt(1 - d^2) turned into an eps_d_min gap of 1.5e-8
@example(np.array([0.0, 1.0]), np.array([2.0, 2.220446049250313e-16]), -2.0, 0.5, LINF, 0.0)
def test_homogeneity(x, y, c, d, spec, eps):
    assert is_approx_orth_d(spec, x, y, eps) == is_approx_orth_d(spec, c * x, d * y, eps)
    assert is_approx_orth_b(spec, x, y, eps) == is_approx_orth_b(spec, c * x, d * y, eps)
    assert eps_d_min(spec, x, y) == pytest.approx(eps_d_min(spec, c * x, d * y), abs=1e-8)
    assert eps_b_min(spec, x, y) == pytest.approx(eps_b_min(spec, c * x, d * y), abs=1e-8)


def test_euclidean_eps_values_coincide():
    rng = np.random.default_rng(23)
    for _ in range(20):
        x = rng.normal(size=2)
        y = rng.normal(size=2)
        if min(np.abs(x).max(), np.abs(y).max()) < 0.05:
            continue
        assert eps_d_min(L2, x, y) == pytest.approx(eps_b_min(L2, x, y), abs=1e-6)


def test_quadratic_relation_matches_nearby_orthogonal_direction():
    """For a smooth norm, the quadratic relation at level eps holds exactly
    when y lies within eps * ||y|| of the line of directions orthogonal to x."""
    rng = np.random.default_rng(24)
    checked = 0
    for spec in SMOOTH_NORMS:
        for _ in range(12):
            x = random_unit(spec, rng)
            y = random_unit(spec, rng)
            eps = rng.uniform(0.05, 0.95)
            z = find_bj_direction(spec, x)
            gap = dist_to_line(spec, y, z).value
            if abs(gap - eps) <= 1e-4:
                continue
            assert is_approx_orth_b(spec, x, y, eps) == (gap <= eps)
            checked += 1
    assert checked >= 25


def test_orth_report_matches_components():
    rng = np.random.default_rng(25)
    for spec in (L2, L1, LINF):
        x = random_unit(spec, rng)
        y = random_unit(spec, rng)
        rep = orth_report(spec, x, y)
        assert rep.bj == is_bj_orthogonal(spec, x, y)
        assert rep.in_plus == in_x_plus(spec, x, y)
        assert rep.in_minus == in_x_minus(spec, x, y)
        assert rep.eps_d_min == pytest.approx(eps_d_min(spec, x, y))
        assert rep.eps_b_min == pytest.approx(eps_b_min(spec, x, y))
        assert not rep.degenerate


def test_orth_report_orthogonal_and_degenerate_cases():
    rep = orth_report(L2, [2, 0], [0, -3])
    assert rep.bj and rep.in_plus and rep.in_minus
    assert rep.eps_d_min == pytest.approx(0.0, abs=1e-9)
    assert rep.eps_b_min == pytest.approx(0.0, abs=1e-9)
    assert not rep.degenerate

    rep = orth_report(L1, [1, 2], [-2, -4])
    assert rep.degenerate
    assert rep.eps_d_min == pytest.approx(1.0, abs=1e-12)
    assert rep.eps_b_min == 1.0

    with pytest.raises(ValueError):
        orth_report(L2, [1, 0], [0, 0])
    with pytest.raises(ValueError):
        orth_report(L2, [0, 0], [1, 0])


def test_collinear_detector():
    assert is_collinear([1, 2], [-0.5, -1])
    assert is_collinear([1, 0], [0, 0])
    assert not is_collinear([1, 0], [1, 1e-5])


def test_collinear_detector_is_scale_free():
    # the Gram terms of these pairs overflow to inf (then nan) or underflow to 0
    assert is_collinear(1e160 * np.array([1.0, 2.0]), 1e160 * np.array([2.0, 4.0]))
    assert not is_collinear(1e160 * np.array([1.0, 2.0]), 1e160 * np.array([2.0, 5.0]))
    assert not is_collinear(1e-170 * np.array([1.0, 0.0]), 1e-170 * np.array([0.0, 1.0]))


def test_orth_report_tiny_orthogonal_pair_is_not_degenerate():
    rep = orth_report(L2, [1e-85, 0.0], [0.0, 1e-85])
    assert not rep.degenerate
    assert rep.bj
