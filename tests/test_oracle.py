"""Brute-force scans and grids that arbitrate the constructive results."""

import io
import math

import numpy as np
import pytest

from bjcones import (
    LpNorm,
    brute_force_min,
    circular_components,
    dist_to_line,
    scan_ball_sphere,
    scan_f,
    scan_g,
    write_scan_csv,
)
from conftest import HEX_VERTICES, L1, L15, L2, L3, LINF, random_unit
from bjcones import PolyhedralNorm

HEXN = PolyhedralNorm(HEX_VERTICES)
ALL_NORMS = [L1, L15, L2, L3, LINF, HEXN]


def test_brute_min_anchors():
    assert brute_force_min(L2, [1, 0], [0, 1], grid_n=100_000) == pytest.approx(1.0, abs=1e-9)
    y60 = [math.cos(math.radians(60)), math.sin(math.radians(60))]
    assert brute_force_min(L2, [1, 0], y60, grid_n=1_000_000) == pytest.approx(
        math.sin(math.radians(60)), abs=1e-6
    )
    assert brute_force_min(LINF, [1, 1], [-1, 0], grid_n=100_000) == pytest.approx(
        1.0, abs=1e-9
    )


def test_brute_min_zero_x_and_errors():
    assert brute_force_min(L2, [0, 0], [1, 0]) == 0.0
    with pytest.raises(ValueError):
        brute_force_min(L2, [1, 0], [0, 0])
    with pytest.raises(ValueError):
        brute_force_min(L2, [1, 0], [0, 1], grid_n=2)


def test_brute_min_converges_from_above():
    """Coarser grids overestimate by at most their own step bound, never
    underestimate; strict pointwise monotonicity is not guaranteed because
    the grids are not nested."""
    rng = np.random.default_rng(50)
    grids = (1_000, 10_000, 100_000)
    for spec in ALL_NORMS:
        x = rng.normal(size=2)
        y = rng.normal(size=2)
        nx = spec.value(x)
        seq = [brute_force_min(spec, x, y, grid_n=g) for g in grids]
        ref = dist_to_line(spec, x, y).value
        for g, v in zip(grids, seq):
            assert v >= ref - 1e-9
            assert v - ref <= 4.0 * nx / g
        assert seq[-1] == pytest.approx(ref, abs=1e-5 * (1 + nx))


def test_scan_f_euclidean_member_fraction():
    scan = scan_f(L2, [1, 0], 0.6, n=3600)
    frac = float(np.mean(scan.members))
    expected = 1.0 - 2.0 * math.asin(0.8) / math.pi
    assert frac == pytest.approx(expected, abs=0.002)


def test_scan_f_eps_zero_only_orthogonal_directions():
    scan = scan_f(L2, [1, 0], 0.0, n=3600)
    hits = np.flatnonzero(scan.members)
    assert list(hits) == [900, 2700]


def test_scan_f_linf_corner_arcs():
    scan = scan_f(LINF, [1, 1], 0.0, n=3600)
    count, _ = circular_components(scan.members)
    assert count == 2
    step = 2.0 * math.pi / 3600
    for k in range(3600):
        a = scan.angles[k]
        # the orthogonality set is the closed arc from (0,1) to (-1,0) plus
        # its reflection; skip grid points within one step of the endpoints
        if min(abs(math.remainder(a - e, 2.0 * math.pi))
               for e in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)) <= step:
            continue
        in_arc = 0.5 * math.pi < a < math.pi or 1.5 * math.pi < a < 2.0 * math.pi
        assert scan.members[k] == in_arc


def test_scan_f_two_antipodal_components():
    rng = np.random.default_rng(51)
    for spec in ALL_NORMS:
        x = random_unit(spec, rng)
        for eps in (0.25, 0.6):
            scan = scan_f(spec, x, eps, n=3600)
            count, _ = circular_components(scan.members)
            assert count == 2, (spec, eps)
            assert np.allclose(scan.values, np.roll(scan.values, 1800), atol=1e-9)
            flips = int(np.sum(scan.members != np.roll(scan.members, 1800)))
            assert flips <= 2


def test_scan_g_euclidean_components_and_symmetry():
    scan = scan_g(L2, [1, 0], 0.6, n=3600)
    count, arcs = circular_components(scan.members)
    assert count == 2
    assert abs(len(arcs[0]) - len(arcs[1])) <= 2
    flips = int(np.sum(scan.members != np.roll(scan.members, 1800)))
    assert flips <= 2


def test_scan_g_matches_scan_f_for_euclidean():
    x = [math.cos(1.1), math.sin(1.1)]
    sf = scan_f(L2, x, 0.45, n=720)
    sg = scan_g(L2, x, 0.45, n=720)
    assert int(np.sum(sf.members != sg.members)) <= 4


def test_scan_validation():
    with pytest.raises(ValueError):
        scan_f(L2, [1, 0], 0.5, n=100)
    with pytest.raises(ValueError):
        scan_f(L2, [0, 0], 0.5)
    with pytest.raises(ValueError):
        scan_f(L2, [1, 0], 1.0)
    with pytest.raises(ValueError):
        scan_g(L2, [1, 0], -0.1)
    with pytest.raises(ValueError):
        scan_f(LpNorm(2, 3), [1, 0, 0], 0.5)
    with pytest.raises(ValueError):
        scan_ball_sphere(L2, [0, 1], -0.2)


def test_scan_fields_are_consistent():
    scan = scan_f(L1, [1, 0], 0.3, n=480)
    assert scan.n == 480
    assert len(scan.angles) == len(scan.members) == len(scan.values) == 480
    assert np.all(np.diff(scan.angles) > 0)


def test_ball_sphere_at_most_one_component():
    rng = np.random.default_rng(52)
    for spec in ALL_NORMS:
        for _ in range(5):
            z = rng.normal(size=2) * rng.uniform(0.2, 1.5)
            eps = rng.uniform(0.0, 1.4)
            scan = scan_ball_sphere(spec, z, eps, n=720)
            count, _ = circular_components(scan.members)
            assert count <= 1, (spec, z, eps)


def test_circular_components_anchors():
    count, arcs = circular_components([True, True, False, False, True])
    assert count == 1
    assert arcs == [[4, 0, 1]]
    count, arcs = circular_components([True, False, True, False])
    assert count == 2
    assert arcs == [[0], [2]]
    count, arcs = circular_components([True] * 5)
    assert count == 1
    assert arcs == [list(range(5))]
    count, arcs = circular_components([False] * 4)
    assert count == 0
    assert arcs == []
    with pytest.raises(ValueError):
        circular_components([])


def walked_components(m):
    """circular_components by walking from each run start, the loop it replaced."""
    n = len(m)
    if all(m):
        return 1, [list(range(n))]
    arcs = []
    for start in range(n):
        if m[start] and not m[start - 1]:
            arc, j = [], start
            while m[j % n]:
                arc.append(j % n)
                j += 1
            arcs.append(arc)
    return len(arcs), arcs


def test_circular_components_match_the_walk():
    for n in range(1, 11):
        for bits in range(2 ** n):
            m = [bool(bits >> i & 1) for i in range(n)]
            assert circular_components(m) == walked_components(m), m
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = np.repeat(rng.uniform(size=400) < rng.uniform(0.1, 0.9), rng.integers(1, 20))[:3600]
        assert circular_components(m) == walked_components(m)


def test_write_scan_csv_layout_and_determinism():
    buf1 = io.StringIO()
    write_scan_csv(L2, [1, 0], 0.6, 360, buf1)
    buf2 = io.StringIO()
    write_scan_csv(L2, [1, 0], 0.6, 360, buf2)
    assert buf1.getvalue() == buf2.getvalue()

    lines = buf1.getvalue().strip().split("\n")
    assert lines[0] == "angle_radians,unit_x,unit_y,inf_value,member_F,member_G"
    assert len(lines) == 361
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1.0)
    assert float(first[2]) == pytest.approx(0.0)
    assert float(first[3]) == pytest.approx(0.0, abs=1e-9)  # collinear direction
    assert first[4] == "0" and first[5] == "0"
    quarter = lines[1 + 90].split(",")  # angle pi/2: the orthogonal direction
    assert quarter[4] == "1" and quarter[5] == "1"
