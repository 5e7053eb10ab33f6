"""The five workloads: seeded inputs, how each query is issued, and how its
answer is checked against the benchmark's own reference (reference.py).

Every workload is a sequence of rounds.  A round is a fixed mix of query
categories (operation x norm family x input kind) whose inputs are drawn from
``numpy.random.default_rng([seed, workload id, round])``, so a prefix of whole
rounds always has the same proportions and the same seed always gives the
same inputs.  The library receives only the generated inputs.
"""

import io
import json
import math
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import reference as ref

ROOT = Path(__file__).resolve().parent.parent

# the library's documented one-sided tolerance for its predicates
PRED_TOL = 1e-9

# tolerances fixed by the benchmark; each exceeds the reference's own error
TOL_D2 = 1e-7         # |(1 - eps_d^2) - d_ref^2|
TOL_B = 1e-5          # |eps_b - eps_b_ref|
TOL_VALUE = 1e-7      # scan values against reference minima
TOL_BOUNDARY = 1e-6   # boundary rays: |d_ref(x, v) - sqrt(1 - eps^2)|
TOL_SOLVE = 1e-5      # converse: angle to the known x and |eps - eps0|
BAND_D = 1e-7         # predicate answers are free within these bands
BAND_B = 1e-5
BAND_TAU = 1e-5
DIP_B = 1e-8          # a quadratic-type violation shallower than this is free
RAY_BAND = 1e-3       # sampled directions this close to a boundary ray are skipped
SAMPLE_DIRS = 48      # sampled directions per cone check
SPOT = 16             # spot-checked grid points per scan

# the section basis of the f_cone(eps = 0) defect report
DEFECT_BASIS = ([1.0, 0.2, 0.3], [0.1, 1.0, 0.4])
HEX_VERTICES = [[1, 0], [0.5, 1], [-0.5, 1], [-1, 0], [-0.5, -1], [0.5, -1]]
OBSTRUCTION = ([-0.5, 1.0], [-1.0, 1.0])   # l_inf cone no (x, eps) generates
ANCHOR_RAYS = ([0.6, 0.8], [-0.6, 0.8])     # f_cone(l2, (1, 0), 0.6)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0      # steps of the Kronecker sequences
SILVER = math.sqrt(2.0) - 1.0
DEFECT_PROBES = 20    # fixed inputs per known-defect probe

# Known defects of the library are kept out of the timed query mixes, so that
# no timed query fails, and are probed instead on fixed inputs after the
# timed loop of every run (Workload.known_defects); a run prints how many
# probes still reproduce them.  The three at the baseline:
# - orth_report(...).degenerate is true for independent x, y once |x| |y| is
#   below about 1e-154: the Gram determinant underflows to 0.  Scaled pairs
#   for orth_report therefore keep |x| |y| above 10**-MIN_REPORT_DECADES.
# - f_cone and s_set at eps = 0 on the section of l3^3 by DEFECT_BASIS raise
#   RuntimeError for some x.
# - is_smooth_point is false at about 1% of the sphere points of that section,
#   which is smooth, so g_cone raises ValueError there.
#   In the cones workload that section therefore gets f_cone and s_set at
#   eps > 0 only.
MIN_REPORT_DECADES = 140.0


class Query:
    """One library call: operation, norm family, positional inputs, check data."""

    __slots__ = ("qid", "op", "fam", "args", "info")

    def __init__(self, op, fam, args, **info):
        self.qid = -1
        self.op = op
        self.fam = fam
        self.args = args
        self.info = info


def random_hexagon(bj, rng):
    """A random origin-symmetric strictly convex hexagonal norm."""
    while True:
        th = np.sort(rng.uniform(0.15, math.pi - 0.15, size=3))
        if np.diff(th).min() < 0.25:
            continue
        r = rng.uniform(0.6, 1.4, size=3)
        top = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        try:
            return bj.PolyhedralNorm(np.vstack([top, -top]))
        except ValueError:
            continue


def random_vec(rng, dim):
    while True:
        v = rng.normal(size=dim)
        if np.linalg.norm(v) > 1e-3:
            return v


def unit_vec(norm, v):
    return v / norm.values(v[None, :])[0]


def line_gap(u, v):
    a = ref.angle_gap(u, v)
    return min(a, math.pi - a)


def is_anchor_cone(v1, v2):
    """Whether the cone pair (v1, v2) has the Euclidean anchor's rays (+-0.6, 0.8)."""
    return all(min(line_gap(v, t) for v in (v1, v2)) <= 1e-6 for t in ANCHOR_RAYS)


# ----- shared checks ----------------------------------------------------------

def _sample_agrees(norm, v1, v2, rng, measure, expected, ambiguous):
    """Sampled sphere directions away from the boundary rays: is membership in
    the cone pair (v1, v2) what the reference measure says it should be?"""
    angles = rng.uniform(0.0, 2.0 * math.pi) + 2.0 * math.pi * np.arange(SAMPLE_DIRS) / SAMPLE_DIRS
    rays = [math.atan2(v[1], v[0]) for v in (v1, v2, -v1, -v2)]
    near = np.zeros(SAMPLE_DIRS, dtype=bool)
    for b in rays:
        near |= ref.circ_dist(angles, b) < RAY_BAND
    dirs = ref.sphere_dirs(norm, angles)
    vals = measure(dirs)
    want = expected(vals)
    skip = near | ambiguous(vals)
    for k in np.flatnonzero(~skip):
        if ref.in_cone_pair(v1, v2, dirs[k]) != bool(want[k]):
            return False
    return True


def check_f_pair(norm, x, eps, v1, v2, rng):
    """The cone pair (v1, v2) is the distance-type set of (x, eps): boundary
    rays at the target distance and sampled membership as the reference says."""
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    xu = ref.unit_rows(norm, x)
    bound = math.sqrt(1.0 - eps * eps)
    d = ref.line_dist(norm, xu, np.stack([v1, v2]))
    if eps == 0.0:
        if np.any(d < 1.0 - TOL_BOUNDARY):
            return False
    elif np.any(np.abs(d - bound) > TOL_BOUNDARY):
        return False
    return _sample_agrees(
        norm, v1, v2, rng,
        lambda w: ref.line_dist(norm, xu, w),
        lambda vals: vals >= bound - PRED_TOL,
        lambda vals: np.abs(vals - bound) <= BAND_D)


def check_g_pair(norm, x, eps, v1, v2, rng):
    """The cone pair (v1, v2) is the quadratic-type set {y : eps_B(x, y) <= eps}."""
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    xu = ref.unit_rows(norm, x)
    b = ref.eps_b(norm, xu, np.stack([v1, v2]))
    if ref.angle_gap(v1, v2) <= 1e-8:
        if np.any(b > eps + TOL_B):
            return False
    elif np.any(np.abs(b - eps) > TOL_B):
        return False
    return _sample_agrees(
        norm, v1, v2, rng,
        lambda w: ref.eps_b(norm, xu, w),
        lambda vals: vals <= eps,
        lambda vals: np.abs(vals - eps) <= BAND_B)


def check_s_set(norm, x, eps, pts):
    if len(pts) not in (2, 4):
        return False
    xu = ref.unit_rows(norm, x)
    d = ref.line_dist(norm, xu, np.asarray(pts, dtype=float))
    if eps == 0.0:
        return bool(np.all(d >= 1.0 - TOL_BOUNDARY))
    return bool(np.all(np.abs(d - math.sqrt(1.0 - eps * eps)) <= TOL_BOUNDARY))


def check_solution(norm, x, eps, x0, eps0, v1, v2, rng):
    """A converse answer: the known generator, or one the reference confirms."""
    x = np.asarray(x, dtype=float)
    if x0 is not None and line_gap(x, x0) <= TOL_SOLVE and abs(eps - eps0) <= TOL_SOLVE:
        return True
    if not (0.0 <= eps < 1.0):
        return False
    return check_f_pair(norm, x, eps, v1, v2, rng)


def judge_bool(answer, expected, ambiguous):
    return ambiguous or bool(answer) == bool(expected)


class PairRefs:
    """Reference quantities for (x, y) pairs, computed in batches per norm."""

    def __init__(self, norm, xs, ys, eps, need_d, need_b, need_m, need_tau):
        n = len(xs)
        self.xu = np.stack([ref.unit_rows(norm, x)[0] for x in xs])
        self.yu = np.stack([ref.unit_rows(norm, y)[0] for y in ys])
        self.d = np.full(n, np.nan)
        self.b = np.full(n, np.nan)
        self.m = np.full(n, np.nan)
        self.tp = np.full(n, np.nan)
        self.tm = np.full(n, np.nan)
        for mask, fill in ((need_d, self._d), (need_b, self._b),
                           (need_tau, self._tau)):
            idx = np.flatnonzero(mask)
            if idx.size:
                fill(norm, idx)
        idx = np.flatnonzero(need_m)
        if idx.size:
            self.m[idx] = ref.min_b(norm, self.xu[idx], self.yu[idx], np.asarray(eps)[idx])

    def _d(self, norm, idx):
        self.d[idx] = ref.line_dist(norm, self.xu[idx], self.yu[idx])

    def _b(self, norm, idx):
        self.b[idx] = ref.eps_b(norm, self.xu[idx], self.yu[idx])

    def _tau(self, norm, idx):
        self.tp[idx] = ref.right_derivative(norm, self.xu[idx], self.yu[idx])
        self.tm[idx] = -ref.right_derivative(norm, self.xu[idx], -self.yu[idx])


def judge_report(rep, x, y, r, i):
    """An orth_report answer (or the CLI's printout of one) against the reference."""
    d, b, tp, tm = r.d[i], r.b[i], r.tp[i], r.tm[i]
    s2 = ref.gram_sin2(x, y)
    return all((
        abs((1.0 - rep["eps_d_min"] ** 2) - min(d, 1.0) ** 2) <= TOL_D2,
        abs(rep["eps_b_min"] - b) <= TOL_B,
        judge_bool(rep["bj"], d >= 1.0 - PRED_TOL, abs(d - 1.0) <= BAND_D),
        judge_bool(rep["in_plus"], tp >= -PRED_TOL, abs(tp) <= BAND_TAU),
        judge_bool(rep["in_minus"], tm <= PRED_TOL, abs(tm) <= BAND_TAU),
        judge_bool(rep["degenerate"], s2 <= 1e-12, 1e-13 < s2 < 1e-11),
    ))


def judge_d(holds, eps, d):
    bound = math.sqrt(1.0 - eps * eps)
    return judge_bool(holds, d >= bound - PRED_TOL, abs(d - bound) <= BAND_D)


def judge_b(holds, eps, b, m):
    return judge_bool(holds, b <= eps,
                      abs(b - eps) <= BAND_B or (b > eps and m > -DIP_B))


# ----- workloads --------------------------------------------------------------

class Workload:
    """Base class: per-workload inputs, issue and check."""

    name = ""
    wid = 0
    trace_rounds = 1   # whole rounds replayed by the traced run

    def __init__(self, bj, seed, workdir):
        self.bj = bj
        self.seed = int(seed) % 2 ** 63   # seed sequences take non-negative ints
        self.workdir = Path(workdir)
        self.norms = self.build_norms(self.rng(10 ** 6))

    def rng(self, *key):
        return np.random.default_rng([self.seed, self.wid, *key])

    def build_norms(self, rng):
        raise NotImplementedError

    def make_round(self, r):
        raise NotImplementedError

    def prepare(self, q):
        """Finish q's inputs right before it is issued (untimed)."""

    def issue(self, q):
        return getattr(self.bj, q.op)(self.norms[q.fam], *q.args)

    def issue_in_process(self, q):
        """Issue q inside this process, as the traced replay must."""
        return self.issue(q)

    def is_refusal(self, exc):
        """Whether an exception is the operation's documented refusal."""
        return False

    def status(self, value):
        """Outcome status of an answer that returned normally."""
        return "ok"

    def finish(self, value):
        """The answer in full, read outside any timed region."""
        return value

    def known_defects(self):
        """[(defect, probes that reproduce it, probes)] for this workload's
        operations, on fixed inputs; run untimed, never counted as failures."""
        return []

    def peak_rss_mb(self):
        """Peak resident memory of the process that ran the library."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def check(self, queries, outcomes):
        """One verdict per query: "ok", "wrong" or "error"."""
        verdicts = []
        for q, (status, value) in zip(queries, outcomes):
            if status == "error":
                verdicts.append("error")
            else:
                ok = self.check_one(q, status, value, np.random.default_rng([self.seed, q.qid]))
                verdicts.append("ok" if ok else "wrong")
        return verdicts

    def check_one(self, q, status, value, rng):
        raise NotImplementedError


def _two_d_norms(bj, rng):
    return {
        "l15": bj.LpNorm(1.5, 2),
        "l2": bj.LpNorm(2, 2),
        "l3": bj.LpNorm(3, 2),
        "linf": bj.LpNorm(math.inf, 2),
        "hex": random_hexagon(bj, rng),
    }


class Pairs(Workload):
    """orth_report, the two approximate predicates and the two least epsilons
    on (x, y) pairs: random, nearly collinear, and scaled by 1e-150 .. 1e150."""

    name = "pairs"
    wid = 1
    trace_rounds = 2
    OPS = ("orth_report", "is_approx_orth_d", "is_approx_orth_b", "eps_d_min", "eps_b_min")
    KINDS = ("random", "collinear", "scaled")
    EPS = (0.0, 0.3, 0.6, 0.9, 0.999)

    def build_norms(self, rng):
        bj = self.bj
        norms = {}
        for dim in (2, 3):
            for label, p in (("l15", 1.5), ("l2", 2), ("l3", 3), ("linf", math.inf)):
                norms[f"{label}_{dim}"] = bj.LpNorm(p, dim)
        norms["hex"] = random_hexagon(bj, rng)
        norms["sec_l3"] = bj.restrict_norm(bj.LpNorm(3, 3), random_vec(rng, 3), random_vec(rng, 3))
        norms["sec_linf"] = bj.restrict_norm(bj.LpNorm(math.inf, 3), random_vec(rng, 3),
                                             random_vec(rng, 3))
        return norms

    def make_round(self, r):
        rng = self.rng(r)
        out = []
        for f, fam in enumerate(self.norms):
            dim = self.norms[fam].dim
            for o, op in enumerate(self.OPS):
                kind = self.KINDS[(f + o + r) % 3]
                x = random_vec(rng, dim)
                y = random_vec(rng, dim)
                if kind == "collinear":
                    y = x * rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0) \
                        + 10.0 ** rng.uniform(-7.0, -3.0) * np.linalg.norm(x) * y / np.linalg.norm(y)
                elif kind == "scaled":
                    ex, ey = rng.uniform(-150.0, 150.0, size=2)
                    while op == "orth_report" and ex + ey < -MIN_REPORT_DECADES:
                        ex, ey = rng.uniform(-150.0, 150.0, size=2)
                    x = x * 10.0 ** ex
                    y = y * 10.0 ** ey
                eps = self.EPS[(f + 2 * o + r) % len(self.EPS)]
                args = (x, y, eps) if op.startswith("is_") else (x, y)
                out.append(Query(op, fam, args, kind=kind))
        return out

    def known_defects(self):
        norm = self.bj.LpNorm(2, 2)
        hits = 0
        for k in range(DEFECT_PROBES):
            th = 2.0 * math.pi * k / DEFECT_PROBES
            x = 1e-85 * np.array([math.cos(th), math.sin(th)])
            y = 1e-85 * np.array([-math.sin(th), math.cos(th)])
            hits += bool(self.bj.orth_report(norm, x, y).degenerate)
        return [("orth_report(l2, x, y).degenerate is true for orthogonal x, y "
                 "with |x| = |y| = 1e-85", hits, DEFECT_PROBES)]

    def check(self, queries, outcomes):
        verdicts = ["error"] * len(queries)
        for fam, norm in self.norms.items():
            idx = [i for i, q in enumerate(queries) if q.fam == fam and outcomes[i][0] != "error"]
            if not idx:
                continue
            qs = [queries[i] for i in idx]
            ops = np.array([q.op for q in qs])
            eps = np.array([q.args[2] if len(q.args) > 2 else 0.0 for q in qs])
            r = PairRefs(norm, [q.args[0] for q in qs], [q.args[1] for q in qs], eps,
                         need_d=np.isin(ops, ["orth_report", "is_approx_orth_d", "eps_d_min"]),
                         need_b=np.isin(ops, ["orth_report", "is_approx_orth_b", "eps_b_min"]),
                         need_m=ops == "is_approx_orth_b",
                         need_tau=ops == "orth_report")
            for j, (i, q) in enumerate(zip(idx, qs)):
                ok = self._judge(q, outcomes[i][1], r, j)
                verdicts[i] = "ok" if ok else "wrong"
        return verdicts

    def _judge(self, q, ans, r, j):
        if q.op == "orth_report":
            rep = {k: getattr(ans, k) for k in
                   ("bj", "in_plus", "in_minus", "eps_d_min", "eps_b_min", "degenerate")}
            return judge_report(rep, q.args[0], q.args[1], r, j)
        if q.op == "is_approx_orth_d":
            return judge_d(ans, q.args[2], r.d[j])
        if q.op == "is_approx_orth_b":
            return judge_b(ans, q.args[2], r.b[j], r.m[j])
        if q.op == "eps_d_min":
            return abs((1.0 - ans * ans) - min(r.d[j], 1.0) ** 2) <= TOL_D2
        return abs(ans - r.b[j]) <= TOL_B


class Cones(Workload):
    """f_cone, g_cone and s_set for every family and eps (the l3^3 section
    gets f_cone and s_set at eps > 0 only, see DEFECT_PROBES), plus the
    Euclidean anchor f_cone(l2, (1, 0), 0.6) = (+-0.6, 0.8) once per round."""

    name = "cones"
    wid = 2
    OPS = ("f_cone", "g_cone", "s_set")
    EPS = (0.0, 0.2, 0.5, 0.8, 0.99)

    def build_norms(self, rng):
        bj = self.bj
        norms = _two_d_norms(bj, rng)
        norms["sec_l3"] = bj.restrict_norm(bj.LpNorm(3, 3), *DEFECT_BASIS)
        norms["sec_linf"] = bj.restrict_norm(bj.LpNorm(math.inf, 3), *DEFECT_BASIS)
        return norms

    def make_round(self, r):
        rng = self.rng(r)
        out = []
        for f, fam in enumerate(self.norms):
            for e, eps in enumerate(self.EPS):
                op = self.OPS[(f + e + r) % 3]
                if fam == "sec_l3":   # known defects; see DEFECT_PROBES
                    if eps == 0.0:
                        continue
                    op = ("f_cone", "s_set")[(e + r) % 2]
                x = unit_vec(self.norms[fam], random_vec(rng, 2))
                out.append(Query(op, fam, (x, eps)))
        out.append(Query("f_cone", "l2", (np.array([1.0, 0.0]), 0.6), anchor=True))
        return out

    def known_defects(self):
        norm = self.norms["sec_l3"]
        rng = np.random.default_rng(0)   # the same probes for every seed
        hits = 0
        for _ in range(DEFECT_PROBES):
            try:
                self.bj.f_cone(norm, unit_vec(norm, random_vec(rng, 2)), 0.0)
            except RuntimeError:
                hits += 1
        found = [("f_cone(section of l3^3, x, 0) raises RuntimeError for random unit x",
                  hits, DEFECT_PROBES)]
        n = 32 * DEFECT_PROBES
        rough = sum(not self.bj.is_smooth_point(norm, self.bj.sphere_point(norm, 2.0 * math.pi * k / n))
                    for k in range(n))
        found.append(("is_smooth_point(section of l3^3, x) is false at evenly spaced sphere "
                      "points, where the section is smooth", rough, n))
        return found

    def check_one(self, q, status, ans, rng):
        norm = self.norms[q.fam]
        x, eps = q.args
        if q.info.get("anchor"):
            return is_anchor_cone(ans.pair.cone.v1, ans.pair.cone.v2)
        if q.op == "f_cone":
            return check_f_pair(norm, x, eps, ans.pair.cone.v1, ans.pair.cone.v2, rng)
        if q.op == "g_cone":
            return check_g_pair(norm, x, eps, ans.cone.v1, ans.cone.v2, rng)
        return check_s_set(norm, x, eps, ans)


class Converse(Workload):
    """find_x_for_cone on cones built by f_cone from a known (x0, eps0); one
    query in twelve is a refusal case (the l_inf obstruction, or a cone on a
    section of the polyhedral l_inf^3)."""

    name = "converse"
    wid = 3
    SOLVE = ("l15", "l2", "l3", "sec_l3")
    PER_ROUND = 11

    def build_norms(self, rng):
        bj = self.bj
        return {
            "l15": bj.LpNorm(1.5, 2),
            "l2": bj.LpNorm(2, 2),
            "l3": bj.LpNorm(3, 2),
            "linf": bj.LpNorm(math.inf, 2),
            "sec_l3": bj.restrict_norm(bj.LpNorm(3, 3), *DEFECT_BASIS),
            "sec_linf": bj.restrict_norm(bj.LpNorm(math.inf, 3), *DEFECT_BASIS),
        }

    def make_round(self, r):
        # x0 angles and eps0 follow Kronecker sequences from seeded offsets, so
        # every prefix of the stream covers both evenly and the latency mix
        # (which depends strongly on them) is the same from seed to seed
        rng = self.rng(r)
        u, v = self.rng(10 ** 6 + 1).uniform(size=2)
        out = []
        for k in range(self.PER_ROUND):
            j = r * self.PER_ROUND + k
            fam = self.SOLVE[j % len(self.SOLVE)]
            th = 2.0 * math.pi * ((u + j * GOLDEN) % 1.0)
            x0 = unit_vec(self.norms[fam], np.array([math.cos(th), math.sin(th)]))
            eps0 = 0.1 + 0.8 * ((v + j * SILVER) % 1.0)
            out.append(Query("find_x_for_cone", fam, None, x0=x0, eps0=eps0, refusal_ok=False))
        if r % 2 == 0:
            out.append(Query("find_x_for_cone", "linf", None, x0=None, eps0=None,
                             refusal_ok=True, anchor=True))
        else:
            x0 = unit_vec(self.norms["sec_linf"], random_vec(rng, 2))
            out.append(Query("find_x_for_cone", "sec_linf", None, x0=x0,
                             eps0=float(rng.uniform(0.1, 0.9)), refusal_ok=True))
        return out

    def prepare(self, q):
        if q.args is not None:
            return
        norm = self.norms[q.fam]
        if q.info["x0"] is None:
            cone = self.bj.NormalCone2D(*(unit_vec(norm, np.array(v)) for v in OBSTRUCTION))
        else:
            cone = self.bj.f_cone(norm, q.info["x0"], q.info["eps0"]).pair.cone
        q.args = (self.bj.ConePair(cone),)

    def is_refusal(self, exc):
        return isinstance(exc, self.bj.NoSolutionError)

    def check_one(self, q, status, ans, rng):
        if status == "refused":
            return q.info["refusal_ok"]
        norm = self.norms[q.fam]
        cone = q.args[0].cone
        x, eps = ans
        return check_solution(norm, x, eps, q.info["x0"], q.info["eps0"], cone.v1, cone.v2, rng)


class Scan(Workload):
    """The brute-force oracles at a resolution whose (n, 2) arrays fit in L2
    (n = 3600, 58 KB) and, for scan_ball_sphere and brute_force_min, at one
    whose arrays exceed an L2 of 2-4 MiB (n = 270000, 4.3 MB)."""

    name = "scan"
    wid = 4
    N_SMALL = 3600
    N_LARGE = 270_000

    def build_norms(self, rng):
        bj = self.bj
        return {
            "l2": bj.LpNorm(2, 2),
            "l3": bj.LpNorm(3, 2),
            "hex": random_hexagon(bj, rng),
            "sec_l3": bj.restrict_norm(bj.LpNorm(3, 3), *DEFECT_BASIS),
        }

    def _query(self, rng, op, fam, n):
        norm = self.norms[fam]
        if op == "scan_ball_sphere":
            z = unit_vec(norm, random_vec(rng, 2)) * rng.uniform(0.2, 1.5)
            return Query(op, fam, (z, float(rng.uniform(0.0, 1.4)), n))
        x = unit_vec(norm, random_vec(rng, 2))
        if op == "brute_force_min":
            return Query(op, fam, (x, random_vec(rng, 2), n))
        return Query(op, fam, (x, float(rng.uniform(0.1, 0.9)), n))

    def make_round(self, r):
        # scan_f and scan_g on every family, and the two cheap oracles on two
        # families each at the small and once at the large resolution.  A
        # scan_f or scan_g at the large resolution takes about 2.6 s, so six
        # of them would fill a 15 s run and set its throughput; the two cheap
        # oracles take 40-100 ms at that size.  The large scan_ball_sphere
        # stays the slowest query, so the tail (about p98) falls inside its
        # band and the median inside scan_f/scan_g's.
        rng = self.rng(r)
        fams = list(self.norms)
        out = [self._query(rng, op, fam, self.N_SMALL)
               for fam in fams for op in ("scan_f", "scan_g")]
        out += [self._query(rng, "scan_ball_sphere", fam, self.N_SMALL) for fam in fams[:2]]
        out += [self._query(rng, "brute_force_min", fam, self.N_SMALL) for fam in fams[2:]]
        out.append(self._query(rng, "scan_ball_sphere", "l3", self.N_LARGE))
        out.append(self._query(rng, "brute_force_min", "hex", self.N_LARGE))
        return out

    def check_one(self, q, status, ans, rng):
        norm = self.norms[q.fam]
        if q.op == "brute_force_min":
            x, y, n = q.args
            d = ref.line_dist(norm, x, y)[0]
            nx, ny = norm.values(np.stack([x, y]))
            spacing = 4.0 * nx / ny / (n - 1)
            return d - PRED_TOL <= ans <= d + ny * spacing + 1e-12
        n = q.args[2]
        if ans.n != n or len(ans.angles) != n or len(ans.members) != n or len(ans.values) != n:
            return False
        idx = np.sort(rng.choice(n, SPOT, replace=False))
        if np.any(np.abs(ans.angles[idx] - 2.0 * math.pi * idx / n) > 1e-12):
            return False
        dirs = ref.sphere_dirs(norm, ans.angles[idx])
        vals, members = ans.values[idx], ans.members[idx]
        if q.op == "scan_ball_sphere":
            z, eps, _ = q.args
            want = norm.values(dirs - z)
            if np.any(np.abs(vals - want) > 1e-12 * (1.0 + want)):
                return False
            return all(judge_bool(m, w <= eps + PRED_TOL, abs(w - eps) <= 1e-9)
                       for m, w in zip(members, want))
        x, eps, _ = q.args
        if q.op == "scan_f":
            d = ref.line_dist(norm, x, dirs)
            if np.any(np.abs(vals - d) > TOL_VALUE):
                return False
            return all(judge_d(m, eps, di) for m, di in zip(members, d))
        m_ref = ref.min_b(norm, x, dirs, eps)
        if np.any(np.abs(vals - m_ref) > TOL_VALUE):
            return False
        b = ref.eps_b(norm, x, dirs)
        return all(judge_b(m, eps, bi, mi) for m, bi, mi in zip(members, b, m_ref))


class CliResult:
    """Exit code, standard output and the contents of the files a run wrote."""

    __slots__ = ("code", "stdout", "stderr", "paths", "files")

    def __init__(self, code, stdout, stderr, paths):
        self.code, self.stdout, self.stderr, self.paths = code, stdout, stderr, paths
        self.files = None

    def digest_fields(self):
        return (self.code, self.stdout, sorted(self.files.items()))


# runs the CLI as `python -m bjcones.cli` does, then reports the process's own
# peak resident memory; getrusage in the parent would also count the parent's
# pages, which a child holds between fork and exec
_LAUNCH = """\
import runpy, sys
try:
    runpy.run_module("bjcones.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as fh:
        sys.stderr.write("".join(l for l in fh if l.startswith("VmHWM:")))
"""


def _vec(v):
    return ",".join(repr(float(c)) for c in v)


def _parse_lines(text):
    out = {}
    for line in text.splitlines():
        key, sep, val = line.partition(": ")
        if sep:
            out[key] = val
    return out


def _floats(text):
    return np.array([float(c) for c in text.split(",")])


class Cli(Workload):
    """Each subcommand of the bjcones CLI run as its own process on JSON norm
    files; anchors: cone-f on l2 at (1, 0), 0.6 and find-x on the l_inf
    obstruction (exit code 3)."""

    name = "cli"
    wid = 5
    FAMS = ("l2", "l3", "l15", "linf", "hex")
    SOLVE = ("l2", "l3", "l15", "obstruction")
    EPS = (0.0, 0.3, 0.6, 0.9)
    CMDS = ("check", "check-B", "report", "cone-f", "cone-g", "s-set", "find-x", "scan")

    def build_norms(self, rng):
        bj = self.bj
        docs = {
            "l2": {"type": "lp", "p": 2, "dim": 2},
            "l3": {"type": "lp", "p": 3, "dim": 2},
            "l15": {"type": "lp", "p": 1.5, "dim": 2},
            "linf": {"type": "lp", "p": "inf", "dim": 2},
            "hex": {"type": "polyhedral",
                    "vertices": random_hexagon(bj, rng).vertices.tolist()},
        }
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        norms = {}
        for fam, doc in docs.items():
            path = self.workdir / f"{fam}.json"
            path.write_text(json.dumps(doc))
            self.paths[fam] = str(path)
            norms[fam] = bj.norm_from_dict(doc)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.peak_kb = 0
        return norms

    def make_round(self, r):
        rng = self.rng(r)
        out = []
        for k, cmd in enumerate(self.CMDS):
            fam = self.FAMS[(k + r) % len(self.FAMS)]
            norm = self.norms[fam]
            eps = self.EPS[(k + r) % len(self.EPS)]
            x = unit_vec(norm, random_vec(rng, 2))
            y = random_vec(rng, 2)
            info = {}
            if cmd in ("check", "report"):
                argv = [cmd, "--x", _vec(x), "--y", _vec(y)]
            elif cmd == "check-B":
                argv = ["check", "--x", _vec(x), "--y", _vec(y), "--kind", "B", "--eps", repr(eps)]
            elif cmd == "cone-f":
                if r % 4 == 0:
                    fam, norm, x, eps, info = "l2", self.norms["l2"], np.array([1.0, 0.0]), 0.6, {
                        "anchor": True}
                argv = [cmd, "--x", _vec(x), "--eps", repr(eps), "--svg", "{out}.svg",
                        "--csv", "{out}.csv"]
            elif cmd in ("cone-g", "s-set"):
                argv = [cmd, "--x", _vec(x), "--eps", repr(eps)]
            elif cmd == "find-x":
                fam = self.SOLVE[r % len(self.SOLVE)]
                if fam == "obstruction":
                    fam, info = "linf", {"anchor": True, "x0": None, "eps0": None}
                else:
                    norm = self.norms[fam]
                    info = {"x0": unit_vec(norm, random_vec(rng, 2)),
                            "eps0": float(rng.uniform(0.1, 0.9))}
                argv = None
            else:
                eps = max(eps, 0.1)
                argv = [cmd, "--x", _vec(x), "--eps", repr(eps), "--n", "3600", "--out",
                        "{out}.scan.csv"]
            out.append(Query(cmd, fam, argv, x=x, y=y, eps=eps, **info))
        return out

    def prepare(self, q):
        if q.args is not None:
            return
        norm = self.norms[q.fam]
        if q.info["x0"] is None:
            v1, v2 = (np.array(v) for v in OBSTRUCTION)
        else:
            cone = self.bj.f_cone(norm, q.info["x0"], q.info["eps0"]).pair.cone
            v1, v2 = cone.v1, cone.v2
        q.info["v1"], q.info["v2"] = v1, v2
        q.args = ["find-x", "--v1", _vec(v1), "--v2", _vec(v2)]

    def _argv(self, q, tag):
        """Full argv for q, and the files it writes keyed by their suffix."""
        stem = str(self.workdir / f"{tag}-{q.qid}")
        argv = [a.replace("{out}", stem) for a in q.args]
        outs = {a[len(stem) + 1:]: a for a in argv if a.startswith(stem)}
        return argv[:1] + ["--norm", self.paths[q.fam]] + argv[1:], outs

    def issue(self, q):
        argv, outs = self._argv(q, "proc")
        proc = subprocess.run([sys.executable, "-c", _LAUNCH, *argv], cwd=ROOT,
                              env=self.env, capture_output=True, text=True, timeout=150)
        hwm = proc.stderr.rpartition("VmHWM:")[2].split()
        if hwm:
            self.peak_kb = max(self.peak_kb, int(hwm[0]))
        return CliResult(proc.returncode, proc.stdout, proc.stderr, outs)

    def peak_rss_mb(self):
        return self.peak_kb / 1024.0

    def issue_in_process(self, q):
        import bjcones.cli as cli
        argv, outs = self._argv(q, "inproc")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return CliResult(code, out.getvalue(), err.getvalue(), outs)

    def status(self, res):
        if res.code == 3:
            return "refused"
        return "ok" if res.code in (0, 2) else "error"

    def finish(self, res):
        """Read the written files into the result (outside any timed region)."""
        if res.files is None:
            res.files = {k: Path(p).read_text() for k, p in res.paths.items()}
        return res

    def check_one(self, q, status, res, rng):
        self.finish(res)
        norm = self.norms[q.fam]
        info = q.info
        x, y, eps = info["x"], info["y"], info["eps"]
        lines = _parse_lines(res.stdout)
        if q.op == "find-x":
            if res.code == 3:
                return info["x0"] is None
            if res.code != 0:
                return False
            return check_solution(norm, _floats(lines["x"]), float(lines["eps"]),
                                  info["x0"], info["eps0"], info["v1"], info["v2"], rng)
        if res.code not in (0, 2):
            return False
        if q.op in ("check", "check-B", "report"):
            rep = {k: lines[k] == "true" for k in ("bj", "in_plus", "in_minus", "degenerate")}
            rep["eps_d_min"] = float(lines["eps_d_min"])
            rep["eps_b_min"] = float(lines["eps_b_min"])
            r = PairRefs(norm, [x], [y], np.array([eps]), need_d=[True], need_b=[True],
                         need_m=[True], need_tau=[True])
            if not judge_report(rep, x, y, r, 0):
                return False
            if q.op == "report":
                return res.code == 0
            holds = lines["relation"].endswith("holds: true")
            if holds != (res.code == 0):
                return False
            if q.op == "check":
                return judge_bool(holds, r.d[0] >= 1.0 - PRED_TOL, abs(r.d[0] - 1.0) <= BAND_D)
            return judge_b(holds, eps, r.b[0], r.m[0])
        if res.code != 0:
            return False
        if q.op == "cone-f":
            v1, v2 = _floats(lines["v1"]), _floats(lines["v2"])
            if info.get("anchor"):
                ok = is_anchor_cone(v1, v2)
            else:
                ok = check_f_pair(norm, x, eps, v1, v2, rng)
            return ok and self._check_cone_files(norm, v1, v2, res.files)
        if q.op == "cone-g":
            return check_g_pair(norm, x, eps, _floats(lines["v1"]), _floats(lines["v2"]), rng)
        if q.op == "s-set":
            return check_s_set(norm, x, eps, [_floats(t) for t in res.stdout.split()])
        return self._check_scan_csv(norm, x, eps, res.files["scan.csv"], rng)

    @staticmethod
    def _check_cone_files(norm, v1, v2, files):
        svg = files.get("svg", "")
        if not (svg.startswith("<?xml") and "<polyline" in svg and svg.rstrip().endswith("</svg>")):
            return False
        rows = files.get("csv", "").splitlines()
        if len(rows) != 721 or rows[0] != "angle_radians,unit_x,unit_y,member":
            return False
        rays = [math.atan2(v[1], v[0]) for v in (v1, v2, -v1, -v2)]
        for k, row in enumerate(rows[1:]):
            a, ux, uy, member = row.split(",")
            a = float(a)
            if abs(a - 2.0 * math.pi * k / 720) > 1e-9:
                return False
            if min(ref.circ_dist(a, b) for b in rays) < RAY_BAND:
                continue
            if ref.in_cone_pair(v1, v2, np.array([float(ux), float(uy)])) != (member == "1"):
                return False
        return True

    @staticmethod
    def _check_scan_csv(norm, x, eps, text, rng):
        rows = text.splitlines()
        if len(rows) != 3601:
            return False
        pick = np.sort(rng.choice(3600, SPOT, replace=False))
        cols = np.array([[float(c) for c in rows[1 + k].split(",")] for k in pick])
        dirs = ref.sphere_dirs(norm, cols[:, 0])
        d = ref.line_dist(norm, x, dirs)
        if np.any(np.abs(cols[:, 3] - d) > TOL_VALUE):
            return False
        b = ref.eps_b(norm, x, dirs)
        m = ref.min_b(norm, x, dirs, eps)
        return all(judge_d(f == 1.0, eps, di) and judge_b(g == 1.0, eps, bi, mi)
                   for f, g, di, bi, mi in zip(cols[:, 4], cols[:, 5], d, b, m))


WORKLOADS = {w.name: w for w in (Pairs, Cones, Converse, Scan, Cli)}
