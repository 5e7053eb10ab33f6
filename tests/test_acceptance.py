"""Top-level acceptance checks, one test per numbered criterion.

Each test prints a single "[nn] description: PASS/FAIL" line so the suite
doubles as a checklist.  Criteria with stated runtime budgets assert the
elapsed wall time as well.
"""

import math
import time

import numpy as np
import pytest

from bjcones import (
    ConePair,
    NoSolutionError,
    NormalCone2D,
    cones_equal,
    dist_to_line,
    eps_b_min,
    eps_d_min,
    f_cone,
    f_membership,
    find_bj_direction,
    find_x_for_cone,
    g_cone,
    g_membership,
    is_approx_orth_d,
    is_smooth_point,
    line_distances,
    restrict_norm,
    s_set,
    scan_ball_sphere,
    scan_g,
    scan_f,
    circular_components,
    LpNorm,
)
from conftest import HEX_VERTICES, L15, L2, L3, LINF, ang, circ_dist, random_hexagon, random_unit
from bjcones import PolyhedralNorm

HEXN = PolyhedralNorm(HEX_VERTICES)
NORMS5 = [L15, L2, L3, LINF, random_hexagon(np.random.default_rng(7))]
SMOOTH = [L15, L2, L3]

# the norms of criterion 5's converse round trips, in the order the seed-5
# stream draws their cones
ROUNDTRIP_NORMS = ((1.5, L15), (2.0, L2), (3.0, L3))


class report:
    """Prints the checklist line for a criterion; FAIL when the body raised."""

    def __init__(self, num, desc):
        self.line = f"[{num:02d}] {desc}"

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        print(f"{self.line}: {'FAIL' if exc_type else 'PASS'}")
        return False


def line_gap(u, v):
    a = ang(u, v)
    return min(a, math.pi - a)


def converse_round_trips(solve_ps):
    """Criterion 5's cones, 20 per p drawn from seed 5, with the (x, eps) that
    find_x_for_cone recovers for those whose p is in solve_ps.

    Every cone is drawn whatever solve_ps holds, so each p always gets the
    same cones.  Returns {p: [(spec, v1, v2, cone, x, eps)]}.
    """
    rng = np.random.default_rng(5)
    trips = {}
    for p, spec in ROUNDTRIP_NORMS:
        for _ in range(20):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            sep = rng.uniform(0.05, math.pi - 0.05)
            if p not in solve_ps:
                continue
            v1 = np.array([math.cos(phi), math.sin(phi)])
            v2 = np.array([math.cos(phi + sep), math.sin(phi + sep)])
            cone = NormalCone2D(spec.unit(v1), spec.unit(v2))
            x, eps = find_x_for_cone(spec, cone)
            trips.setdefault(p, []).append((spec, v1, v2, cone, x, eps))
    return trips


def test_criterion_01_euclidean_f_cone_anchor():
    with report(1, "euclidean distance-cone anchor (+-0.6, 0.8)"):
        t0 = time.perf_counter()
        res = f_cone(L2, [1, 0], 0.6)
        elapsed = time.perf_counter() - t0
        vs = [res.pair.cone.v1, res.pair.cone.v2]
        for target in ([0.6, 0.8], [-0.6, 0.8]):
            assert min(line_gap(v, target) for v in vs) <= 1e-6
        assert elapsed < 1.0


def test_criterion_02_inner_product_coincidence():
    with report(2, "both eps thresholds coincide in the euclidean plane"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = rng.normal(size=2)
            y = rng.normal(size=2)
            if min(np.linalg.norm(x), np.linalg.norm(y)) < 1e-3:
                continue
            assert abs(eps_d_min(L2, x, y) - eps_b_min(L2, x, y)) <= 1e-6
        assert time.perf_counter() - t0 < 10.0


def test_criterion_03_scan_agrees_with_cone_decomposition():
    with report(3, "3600-point scans match the cone decomposition"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(3)
        for spec in NORMS5:
            for _ in range(5):
                x = random_unit(spec, rng)
                for eps in (0.2, 0.5, 0.8):
                    scan = scan_f(spec, x, eps, n=3600)
                    pair = f_cone(spec, x, eps).pair
                    bound = math.sqrt(1.0 - eps * eps) * spec.value(x)
                    keep = np.abs(scan.values - bound) > 1e-4
                    dirs = np.stack([np.cos(scan.angles), np.sin(scan.angles)], axis=1)
                    bad = [
                        i for i in np.flatnonzero(keep)
                        if pair.contains(dirs[i]) != bool(scan.members[i])
                    ]
                    assert bad == []
                    assert keep.sum() > scan.n // 2
        assert time.perf_counter() - t0 < 60.0


def test_criterion_04_s_set_extremality():
    with report(4, "boundary witnesses meet the bound, arc interiors exceed it"):
        rng = np.random.default_rng(4)
        for spec in NORMS5:
            for eps in (0.35, 0.7):
                x = random_unit(spec, rng)
                bound = math.sqrt(1.0 - eps * eps)
                for p in s_set(spec, x, eps):
                    assert abs(dist_to_line(spec, x, p).value - bound) <= 1e-6
                cone = f_cone(spec, x, eps).pair.cone
                s = np.linspace(0.01, 0.99, 100)[:, None]
                chords = (1.0 - s) * cone.v1[None, :] + s * cone.v2[None, :]
                interior = chords / spec.values(chords)[:, None]
                vals = line_distances(spec, x, interior)
                assert (vals > bound + 1e-9).all()


def test_criterion_05_converse_round_trip():
    with report(5, "random cones round-trip through the converse solver"):
        t0 = time.perf_counter()
        trips = converse_round_trips([p for p, _ in ROUNDTRIP_NORMS])
        for solved in trips.values():
            for spec, v1, v2, cone, x, eps in solved:
                rebuilt = f_cone(spec, x, eps)
                assert cones_equal(rebuilt.pair, cone, tol=1e-5)
                for v in (v1, v2):
                    d = dist_to_line(spec, x, v).value
                    assert abs(eps - math.sqrt(max(0.0, 1.0 - d * d))) <= 1e-6
        assert time.perf_counter() - t0 < 60.0


def test_criterion_06_sup_norm_obstruction():
    with report(6, "sup-norm cone admits no generator and exposes the contradiction"):
        v1 = np.array([-0.5, 1.0])
        v2 = np.array([-1.0, 1.0])
        with pytest.raises(NoSolutionError):
            find_x_for_cone(LINF, NormalCone2D(v1, v2))
        assert eps_d_min(LINF, [1, 1], [-1, 0]) == pytest.approx(0.0, abs=1e-9)
        assert not ConePair(NormalCone2D(v1, v2)).contains([-1, 0])


def test_criterion_07_uniqueness():
    with report(7, "distinct (x, eps) give distinct cones; recovery is single-valued"):
        rng = np.random.default_rng(7)
        for spec in (L2, L3):
            for _ in range(25):
                th = rng.uniform(0.0, 2.0 * math.pi)
                gap = rng.uniform(0.03, math.pi / 2)
                x1 = spec.unit([math.cos(th), math.sin(th)])
                x2 = spec.unit([math.cos(th + gap), math.sin(th + gap)])
                e1, e2 = rng.uniform(0.05, 0.95, size=2)
                assert not cones_equal(f_cone(spec, x1, e1).pair, f_cone(spec, x2, e2).pair)
            for _ in range(25):
                th = rng.uniform(0.0, 2.0 * math.pi)
                x = spec.unit([math.cos(th), math.sin(th)])
                e1 = rng.uniform(0.05, 0.9)
                e2 = e1 + rng.uniform(0.02, 0.97 - e1)
                assert not cones_equal(f_cone(spec, x, e1).pair, f_cone(spec, x, e2).pair)

        trips = converse_round_trips([2.0, 3.0])
        assert len(trips[2.0]) == len(trips[3.0]) == 20
        for p in (2.0, 3.0):
            for spec, _, _, cone, x, eps in trips[p]:
                x2, eps2 = find_x_for_cone(spec, f_cone(spec, x, eps).pair)
                assert line_gap(x, x2) <= 1e-5
                assert abs(eps - eps2) <= 1e-5


def test_criterion_08_quadratic_set_structure():
    with report(8, "ball-sphere slices are arcs; quadratic scans split antipodally"):
        rng = np.random.default_rng(8)
        for i in range(100):
            spec = SMOOTH[i % len(SMOOTH)]
            z = random_unit(spec, rng) * rng.uniform(0.2, 1.5)
            eps = rng.uniform(0.0, 1.4)
            count, _ = circular_components(scan_ball_sphere(spec, z, eps, n=3600).members)
            assert count <= 1

        step = 2.0 * math.pi / 3600
        for spec in SMOOTH:
            for eps in (0.25, 0.6):
                for _ in range(2):
                    x = random_unit(spec, rng)
                    scan = scan_g(spec, x, eps, n=3600)
                    count, comps = circular_components(scan.members)
                    assert count == 2
                    half = np.roll(scan.members, 1800)
                    assert int((scan.members != half).sum()) <= 2
                    assert np.allclose(scan.values, np.roll(scan.values, 1800), atol=1e-9)

                    ends = [scan.angles[c[0]] for c in comps]
                    ends += [scan.angles[c[-1]] for c in comps]
                    cone = g_cone(spec, x, eps).cone
                    for v in (cone.v1, cone.v2):
                        phi = math.atan2(v[1], v[0])
                        gap = min(
                            circ_dist(sphi, e)
                            for e in ends
                            for sphi in (phi, math.remainder(phi + math.pi, 2.0 * math.pi))
                        )
                        assert gap <= step + 1e-9


def test_criterion_09_section_consistency():
    with report(9, "ambient membership matches the per-section cones in 3-D"):
        rng = np.random.default_rng(9)
        for spec in (LpNorm(2, 3), LpNorm(math.inf, 3)):
            checked_f = checked_g = 0
            for _ in range(50):
                x = rng.normal(size=3)
                y = rng.normal(size=3)
                if min(np.linalg.norm(x), np.linalg.norm(y)) < 1e-3:
                    continue
                eps = rng.uniform(0.1, 0.9)
                sec = restrict_norm(spec, x, y)
                xu = sec.unit([1.0, 0.0])

                if abs(eps_d_min(spec, x, y) - eps) > 1e-4:
                    direct = f_membership(spec, x, eps, y)
                    via_cone = f_cone(sec, xu, eps).pair.contains([0.0, 1.0])
                    assert direct == via_cone
                    checked_f += 1

                if is_smooth_point(sec, xu) and abs(eps_b_min(spec, x, y) - eps) > 1e-4:
                    direct = g_membership(spec, x, eps, y)
                    via_cone = g_cone(sec, xu, eps).contains([0.0, 1.0])
                    assert direct == via_cone
                    checked_g += 1
            assert checked_f >= 35
            assert checked_g >= 20


def test_criterion_10_perturbation_band():
    with report(10, "unit vectors near an orthogonal witness stay eps-orthogonal"):
        rng = np.random.default_rng(10)
        for spec in (L2, L3, LINF, HEXN):
            x = random_unit(spec, rng)
            y = find_bj_direction(spec, x)
            for eps in (0.3, 0.6):
                root = math.sqrt(1.0 - eps * eps)
                radius = (1.0 - root) / (1.0 + root)
                kept = 0
                for _ in range(5000):
                    if kept == 50:
                        break
                    w = y + rng.uniform(0.0, radius) * random_unit(spec, rng)
                    z = spec.unit(w)
                    if spec.value(z - y) <= radius:
                        assert is_approx_orth_d(spec, x, z, eps)
                        kept += 1
                assert kept == 50
