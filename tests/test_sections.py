"""Plane sections of n-dimensional norms and membership lifted through them."""

import math

import numpy as np
import pytest

from bjcones import (
    LpNorm,
    SectionNorm,
    brute_force_min,
    PolyhedralNorm,
    f_cone,
    f_membership,
    g_cone,
    g_membership,
    is_smooth_point,
    is_smooth_space,
    one_sided_derivative,
    restrict_norm,
    sphere_point,
)
from conftest import HEX_VERTICES, ang

L1_3 = LpNorm(1, 3)
L2_3 = LpNorm(2, 3)
L3_4 = LpNorm(3, 4)
LINF_3 = LpNorm(math.inf, 3)


def test_section_linf_collapses_repeated_coordinates():
    sec = restrict_norm(LINF_3, [1, 1, 0], [0, 0, 1])
    rng = np.random.default_rng(40)
    for _ in range(20):
        a, b = rng.normal(size=2)
        assert sec.value([a, b]) == pytest.approx(max(abs(a), abs(b)), abs=1e-12)


def test_section_of_euclidean_orthonormal_basis_is_euclidean():
    sec = restrict_norm(L2_3, [1, 0, 0], [0, 1, 0])
    assert sec.value([3, 4]) == pytest.approx(5.0, abs=1e-12)


def test_section_l1_axis_basis_is_l1():
    sec = restrict_norm(L1_3, [1, 0, 0], [0, 1, 0])
    assert sec.value([3, -4]) == pytest.approx(7.0, abs=1e-12)


def test_section_satisfies_norm_axioms():
    rng = np.random.default_rng(41)
    for ambient in (L2_3, LINF_3, L3_4):
        bx = rng.normal(size=ambient.dim)
        by = rng.normal(size=ambient.dim)
        sec = restrict_norm(ambient, bx, by)
        for _ in range(15):
            u = rng.normal(size=2)
            v = rng.normal(size=2)
            c = rng.normal()
            nu, nv = sec.value(u), sec.value(v)
            assert nu >= 0.0
            assert sec.value(u + v) <= nu + nv + 1e-9 * (1 + nu + nv)
            assert sec.value(c * u) == pytest.approx(abs(c) * nu, rel=1e-12, abs=1e-12)
        assert sec.value([0, 0]) == 0.0


def test_section_rejects_dependent_basis():
    with pytest.raises(ValueError):
        restrict_norm(L2_3, [1, 2, 3], [-2, -4, -6])
    with pytest.raises(ValueError):
        restrict_norm(L2_3, [1, 0, 0], [0, 0, 0])


@pytest.mark.parametrize("scale", [1e-170, 1e170])
def test_section_accepts_independent_basis_at_any_scale(scale):
    # the Gram terms of this basis underflow to 0 or overflow to inf
    sec = restrict_norm(LpNorm(3, 3), scale * np.array([1.0, 0.0, 0.3]),
                        scale * np.array([0.0, 1.0, 0.0]))
    assert sec.value([0.0, 2.0]) == pytest.approx(2.0 * scale)


def test_section_smoothness_hint():
    assert restrict_norm(L2_3, [1, 0, 0], [0, 1, 0]).known_smooth() is True
    assert restrict_norm(LINF_3, [1, 0, 0], [0, 1, 0]).known_smooth() is False


def test_section_of_polyhedral_norm_is_not_smooth():
    # this section of l_inf^3 has corners off any sampling grid, at atan(0.8)
    sec = restrict_norm(LINF_3, [1, 0.2, 0], [0, 1, 0])
    assert not is_smooth_space(sec)
    assert not is_smooth_point(sec, [1.0, 0.8])
    for ambient in (L1_3, PolyhedralNorm(HEX_VERTICES)):
        basis = np.eye(ambient.dim)[:2] + 0.1
        assert restrict_norm(ambient, *basis).known_smooth() is False


def test_section_gradient_is_the_ambient_gradient_in_coefficients():
    sec = restrict_norm(L3_4, [1, 0, -1, 0], [0, 2, 0, 1])
    rng = np.random.default_rng(46)
    for _ in range(10):
        x = rng.normal(size=2)
        g = sec.gradient(x)
        h = 1e-6
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            assert g[k] == pytest.approx((sec.value(x + e) - sec.value(x - e)) / (2 * h), abs=1e-6)
    assert restrict_norm(LINF_3, [1, 0, 0], [0, 1, 0]).gradient([1.0, 0.5]) is None


def test_section_of_smooth_norm_is_smooth_everywhere():
    """Every sphere point of a section of l3^3 is smooth, and f_cone at eps = 0
    works there: the derivatives come from the ambient gradient."""
    sec = restrict_norm(LpNorm(3, 3), [1.0, 0.2, 0.3], [0.1, 1.0, 0.4])
    n = 640
    for k in range(n):
        assert is_smooth_point(sec, sphere_point(sec, 2.0 * math.pi * k / n))
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = sec.unit(rng.normal(size=2))
        res = f_cone(sec, x, 0.0)
        assert one_sided_derivative(sec, x, res.pair.cone.v1, "plus") == pytest.approx(
            0.0, abs=1e-8)


def test_section_batch_matches_scalar():
    sec = restrict_norm(L3_4, [1, 0, -1, 0], [0, 2, 0, 1])
    rng = np.random.default_rng(42)
    pts = rng.normal(size=(10, 2))
    batch = sec.values(pts)
    for i, p in enumerate(pts):
        ambient_vec = p[0] * np.array([1, 0, -1, 0]) + p[1] * np.array([0, 2, 0, 1])
        assert batch[i] == pytest.approx(L3_4.value(ambient_vec), rel=1e-14)


def test_membership_trivial_anchors():
    assert f_membership(L2_3, [1, 0, 0], 0.3, [0, 1, 0])
    assert g_membership(L2_3, [1, 0, 0], 0.3, [0, 1, 0])
    assert not f_membership(L2_3, [1, 0, 0], 0.9, [1, 0, 0])
    assert f_membership(L2_3, [1, 0, 0], 0.0, [0, 0, 0])
    assert g_membership(L2_3, [1, 0, 0], 0.0, [0, 0, 0])


def test_membership_matches_brute_grid_in_3d():
    rng = np.random.default_rng(43)
    eps = 0.4
    bound = math.sqrt(1.0 - eps * eps)
    checked = 0
    for _ in range(25):
        x = rng.normal(size=3)
        y = rng.normal(size=3)
        nx = LINF_3.value(x)
        if nx < 1e-3 or LINF_3.value(y) < 1e-3:
            continue
        ref = brute_force_min(LINF_3, x / nx, y, grid_n=200_000)
        if abs(ref - bound) <= 1e-4:
            continue
        assert f_membership(LINF_3, x, eps, y) == (ref >= bound)
        checked += 1
    assert checked >= 20


def test_f_membership_agrees_with_section_cone():
    """Ambient membership equals cone membership of the coefficients in the
    induced plane norm, away from the boundary band."""
    rng = np.random.default_rng(44)
    for ambient in (L2_3, L3_4):
        for _ in range(6):
            x = rng.normal(size=ambient.dim)
            x = x / ambient.value(x)
            yp = rng.normal(size=ambient.dim)
            sec = restrict_norm(ambient, x, yp)
            pair = f_cone(sec, [1, 0], 0.5).pair
            for _ in range(12):
                a, b = rng.normal(size=2)
                y = a * x + b * yp
                coeff = np.array([a, b])
                # skip coefficient directions too close to a cone boundary
                margin = min(
                    ang(coeff, s * v)
                    for v in (pair.cone.v1, pair.cone.v2)
                    for s in (1.0, -1.0)
                )
                if margin <= 1e-4:
                    continue
                assert f_membership(ambient, x, 0.5, y) == pair.contains(coeff)


def test_g_membership_agrees_with_section_cone():
    rng = np.random.default_rng(45)
    for ambient in (L2_3, L3_4):
        for _ in range(6):
            x = rng.normal(size=ambient.dim)
            x = x / ambient.value(x)
            yp = rng.normal(size=ambient.dim)
            sec = restrict_norm(ambient, x, yp)
            if not is_smooth_point(sec, [1, 0]):
                continue
            pair = g_cone(sec, [1, 0], 0.5)
            for _ in range(12):
                a, b = rng.normal(size=2)
                y = a * x + b * yp
                coeff = np.array([a, b])
                margin = min(
                    ang(coeff, s * v)
                    for v in (pair.cone.v1, pair.cone.v2)
                    for s in (1.0, -1.0)
                )
                if margin <= 1e-4:
                    continue
                assert g_membership(ambient, x, 0.5, y) == pair.contains(coeff)


def test_membership_rejects_bad_eps():
    with pytest.raises(ValueError):
        f_membership(L2_3, [1, 0, 0], 1.2, [0, 1, 0])
    with pytest.raises(ValueError):
        g_membership(L2_3, [1, 0, 0], -0.5, [0, 1, 0])


def test_section_norm_usable_by_cone_machinery():
    """A section through a sup-norm edge behaves like the plane sup norm."""
    sec = SectionNorm(LINF_3, [1, 1, 0], [0, 0, 1])
    res = f_cone(sec, [1, 0], 0.0)
    assert sec.value(res.pair.cone.v1) == pytest.approx(1.0, abs=1e-9)
