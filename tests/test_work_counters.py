"""Work gates: how many Norm.values calls each construction makes.

The counts are deterministic, so they are gated where wall time never is.
A ceiling may only ever be lowered.
"""

import pytest

from bjcones import (
    LpNorm,
    PolyhedralNorm,
    SectionNorm,
    dist_to_line,
    eps_b_min,
    f_cone,
    find_bj_direction,
    find_x_for_cone,
    g_cone,
    orth_report,
)
from conftest import HEX_VERTICES, ValuesOnly


class Counting:
    """Mixin for a norm class, counting its values() calls and those of its
    dual norm; dual_calls counts the latter alone."""

    calls = 0
    dual_calls = 0

    def values(self, points):
        self.calls += 1
        return super().values(points)

    def dual(self):
        dual = super().dual()
        if "values" not in vars(dual):
            plain = dual.values

            def values(points):
                self.calls += 1
                self.dual_calls += 1
                return plain(points)

            dual.values = values
        return dual


class CountingLp(Counting, LpNorm):
    pass


class CountingPolyhedral(Counting, PolyhedralNorm):
    pass


class CountingSection(Counting, SectionNorm):
    """Counts its ambient norm's values() calls, which the section's own values()
    and the work it delegates to the ambient (chord, line_min) both make."""

    def __init__(self, ambient, basis_x, basis_y):
        super().__init__(ambient, basis_x, basis_y)
        plain = ambient.values

        def values(points):
            self.calls += 1
            return plain(points)

        ambient.values = values

    def values(self, points):
        return SectionNorm.values(self, points)


class CountingValuesOnly(Counting, ValuesOnly):
    pass


@pytest.fixture
def spec():
    return CountingLp(3, 2)


def counted(spec, fn, *args):
    spec.calls = spec.dual_calls = 0
    result = fn(spec, *args)
    return result, spec.calls


def test_f_cone_norm_calls(spec):
    _, calls = counted(spec, f_cone, spec.unit([0.3, 1.0]), 0.5)
    assert calls <= 13


def test_f_cone_eps_zero_norm_calls(spec):
    # the rays are the rotated support functionals: no search at all
    _, calls = counted(spec, f_cone, spec.unit([0.3, 1.0]), 0.0)
    assert calls <= 6


def test_g_cone_norm_calls(spec):
    _, calls = counted(spec, g_cone, spec.unit([0.3, 1.0]), 0.5)
    assert calls <= 11


def test_g_cone_values_only_norm_calls():
    # one halving derivative run serves both the smoothness gate and the functional
    norm = CountingValuesOnly(LpNorm(3, 2))
    _, calls = counted(norm, g_cone, norm.unit([0.3, 1.0]), 0.5)
    assert calls <= 34


def test_find_x_for_cone_norm_calls(spec):
    x = spec.unit([0.3, 1.0])
    cone = f_cone(spec, x, 0.5).pair
    (_, eps), calls = counted(spec, find_x_for_cone, cone)
    assert eps == pytest.approx(0.5, abs=1e-5)
    assert calls <= 17


def test_dist_to_line_norm_calls(spec):
    _, calls = counted(spec, dist_to_line, spec.unit([0.3, 1.0]), [1.0, -0.4])
    assert calls <= 8


@pytest.mark.parametrize("norm", [CountingLp(2, 2), CountingPolyhedral(HEX_VERTICES)],
                         ids=["l2", "hexagon"])
def test_dist_to_line_closed_form_chord_norm_calls(norm):
    # the line minimum's one call; the interval is a closed-form chord
    _, calls = counted(norm, dist_to_line, norm.unit([0.3, 1.0]), [1.0, -0.4])
    assert calls <= 1


def test_find_bj_direction_left_norm_calls(spec):
    # ||x||, one exact line minimum, the unit scaling and the dual's certificate
    _, calls = counted(spec, find_bj_direction, spec.unit([0.3, 1.0]), "left")
    assert calls <= 4


def test_orth_report_norm_calls(spec):
    _, calls = counted(spec, orth_report, spec.unit([0.3, 1.0]), [1.0, -0.4])
    assert calls <= 14


def test_eps_b_min_norm_calls(spec):
    _, calls = counted(spec, eps_b_min, spec.unit([0.3, 1.0]), [1.0, -0.4])
    assert calls <= 5


@pytest.mark.parametrize("norm, ceiling", [
    (CountingLp(2, 2), 6),
    (CountingPolyhedral(HEX_VERTICES), 6),
], ids=["l2", "hexagon"])
def test_f_cone_norm_calls_with_exact_kernel(norm, ceiling):
    _, calls = counted(norm, f_cone, norm.unit([0.3, 1.0]), 0.5)
    assert calls <= ceiling


def test_f_cone_polygon_chord_is_closed_form():
    # the hexagon's dual is the largest of g . v over its vertices, so the
    # dual chord is one product and never evaluates the dual norm
    norm = CountingPolyhedral(HEX_VERTICES)
    counted(norm, f_cone, norm.unit([0.3, 1.0]), 0.5)
    assert norm.dual_calls == 0


def test_section_cone_norm_calls():
    # a section of l3^3 has no exact line kernel; g_cone needs none, while
    # the converse solver's distance functionals still cost one golden-section
    # run, inside one call of the dual norm for both lines
    norm = CountingSection(LpNorm(3, 3), [1.0, 0.2, 0.3], [0.1, 1.0, 0.4])
    x = norm.unit([0.3, 1.0])
    _, calls = counted(norm, g_cone, x, 0.5)
    assert calls <= 11
    (_, eps), calls = counted(norm, find_x_for_cone, f_cone(norm, x, 0.5).pair)
    assert eps == pytest.approx(0.5, abs=1e-5)
    assert calls <= 472
