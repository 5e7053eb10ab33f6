"""One workload in one process: set up, run the closed loop, check, trace.

Started by run.py with the BLAS thread variables set to 1.  Prints one JSON
object on its last line of standard output.  With --setup-only it stops as
soon as the first query is ready to issue and reports that moment.
"""

import argparse
import dataclasses
import hashlib
import json
import multiprocessing
import os
import signal
import statistics
import struct
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402  (after the path set-up, part of set-up time)

import bjcones  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import DEFECT_BASIS, HEX_VERTICES, WORKLOADS  # noqa: E402

DIGEST_ROUNDS = 2     # rounds hashed for the same-seed / other-seed self-test
SWEEP_ROWS = (1, 64, 4096)
SWEEP_LOOPS = {1: 2000, 64: 1000, 4096: 40}
SWEEP_REPEATS = 5
IMPORT_REPEATS = 3
CAL_EVERY_S = 0.05    # query time between two speed samples


def _feed(h, obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, float):
        h.update(struct.pack("<d", obj))
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, dict):
        for k in sorted(obj):
            _feed(h, k)
            _feed(h, obj[k])
    elif hasattr(obj, "digest_fields"):
        _feed(h, obj.digest_fields())
    else:
        h.update(repr(obj).encode())


def digest(obj):
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def numbered_round(wl, r):
    """Round r of the workload's query stream, with stream-wide query ids
    (every round of a workload has the same length)."""
    qs = wl.make_round(r)
    for k, q in enumerate(qs):
        q.qid = r * len(qs) + k
    return qs


def call(wl, fn, q):
    try:
        value = fn(q)
    except Exception as exc:  # every failure of the library is counted, not raised
        if wl.is_refusal(exc):
            return "refused", f"{type(exc).__name__}: {exc}"
        return "error", f"{type(exc).__name__}: {exc}"
    return wl.status(value), value


class Tally:
    """Verdict counts of the checked queries and a breakdown of the failures."""

    def __init__(self):
        self.failed = self.wrong = 0
        self.kinds = Counter()
        self.anchors_ok = True

    def add(self, queries, outcomes, verdicts):
        for q, (status, value), v in zip(queries, outcomes, verdicts):
            if v == "ok":
                continue
            self.failed += 1
            self.wrong += v == "wrong"
            self.anchors_ok &= not q.info.get("anchor")
            detail = (value.split(" at ", 1)[0][:80] if status == "error"
                      else f"{status}, disagrees with the reference")
            self.kinds[f"{v} {q.op}/{q.fam}: {detail}"] += 1


_checker = None   # the workload, rebuilt inside the checker process


def _start_checker(name, seed, workdir):
    global _checker
    _checker = WORKLOADS[name](bjcones, seed, workdir)


def _check_round(queries, outcomes):
    return _checker.check(queries, outcomes)


def closed_loop(wl, first, seconds, keep_rounds, check):
    """One client: issue each query after the previous one returned, whole
    rounds at a time, until the summed latency reaches `seconds`.

    The vCPU's speed is sampled at the start and end of each round and after
    every CAL_EVERY_S of query time; the latencies are also returned at the
    reference speed those samples give (see speed.py).  Each round is
    handed to `check` as soon as it ends, outside the timed region, and its
    answers are dropped unless it is one of the first `keep_rounds`, so
    memory does not grow with the number of queries a run completes.
    """
    starts, lat, kept, tally = [], [], [], Tally()
    cal_t, cal = [], []

    def calibrate():
        cal_t.append(time.perf_counter())
        cal.append(speed.sample())

    busy, r = 0.0, 0
    while busy < seconds or r < keep_rounds:
        qs = first if r == 0 else numbered_round(wl, r)
        outs, since = [], 0.0
        calibrate()
        for q in qs:
            wl.prepare(q)
            t0 = time.perf_counter()
            out = call(wl, wl.issue, q)
            dt = time.perf_counter() - t0
            busy += dt
            since += dt
            outs.append(out)
            starts.append(t0)
            lat.append(dt)
            if since >= CAL_EVERY_S:
                calibrate()
                since = 0.0
        calibrate()
        tally.add(qs, outs, check(qs, outs))
        if r < keep_rounds:
            kept.append((qs, outs))
        r += 1
    return lat, speed.scale(starts, lat, cal_t, cal), tally, kept, r


def kernel_sweep(seed):
    """Microseconds per Norm.values call at batch sizes 1, 64 and 4096, at
    the reference speed."""
    norms = {
        "l2": bjcones.LpNorm(2, 2),
        "l3": bjcones.LpNorm(3, 2),
        "hex": bjcones.PolyhedralNorm(HEX_VERTICES),
        "sec3": bjcones.restrict_norm(bjcones.LpNorm(3, 3), *DEFECT_BASIS),
    }
    rng = np.random.default_rng([seed, 99])
    out = {}
    for label, norm in norms.items():
        for m in SWEEP_ROWS:
            pts = rng.normal(size=(m, 2))
            loops = SWEEP_LOOPS[m]
            per_call = []
            for _ in range(SWEEP_REPEATS):
                before = speed.sample()
                t0 = time.perf_counter()
                for _ in range(loops):
                    norm.values(pts)
                dt = time.perf_counter() - t0
                per_call.append(dt / loops / speed.slowdown(before, speed.sample()))
            out[f"norms.values.us_per_call.{label}.m{m}"] = statistics.median(per_call) * 1e6
    return out


def import_seconds():
    """Median time of `import bjcones.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import bjcones.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        runs.append(float(proc.stdout.strip()))
    return statistics.median(runs)


def layer_metrics(tracer, nq, slow):
    """Per-query counts and self times by layer, from the traced run's spans;
    self times are divided by the traced pass's slowdown `slow`."""
    a = tracer.arrays()
    names = np.array(tracer.names + [""])
    span = names[a["name"]]
    module = np.array([n.split(".", 1)[0] for n in tracer.names] + [""])[a["name"]]

    def mask(name):
        return span == name

    def calls(m):
        return float(np.count_nonzero(m)) / nq

    def self_ms(m):
        return float(a["self"][m].sum()) * 1e3 / nq / slow

    out = {}
    v = mask("norms.values")
    rows = a["rows"][v]
    out["norms.values.calls"] = calls(v)
    out["norms.values.calls_1row"] = float(np.count_nonzero(rows == 1)) / nq
    out["norms.values.rows"] = float(rows.sum()) / nq
    out["norms.values.rows_per_call"] = float(rows.sum()) / rows.size if rows.size else 0.0
    out["norms.values.self_ms"] = self_ms(v)
    for fn, kinds in (
        ("norms.one_sided_derivative", ("calls", "self_ms")),
        ("norms.sphere_point", ("calls",)),
        ("norms.is_smooth_space", ("self_ms",)),
        ("sections.values", ("self_ms",)),
        ("minimize.golden_section_min", ("calls", "self_ms")),
        ("minimize.dist_to_line", ("calls", "self_ms")),
        ("minimize.sup_b_ratio", ("calls", "self_ms")),
        ("minimize.line_distances", ("calls", "self_ms")),
        ("minimize.line_distances_from", ("calls", "self_ms")),
        ("minimize.min_b_values", ("self_ms",)),
        ("cones.find_bj_direction", ("calls", "self_ms")),
        ("cones.f_cone", ("calls", "self_ms")),
        ("cones.g_cone", ("self_ms",)),
        ("cones.s_set", ("self_ms",)),
        ("cones.find_x_for_cone", ("self_ms",)),
    ):
        m = mask(fn)
        for kind in kinds:
            out[f"{fn}.{kind}"] = calls(m) if kind == "calls" else self_ms(m)
    for mod in ("orthogonality", "oracle"):
        m = module == mod
        out[f"{mod}.calls"] = calls(m)
        out[f"{mod}.self_ms"] = self_ms(m)

    # f_cone calls made inside find_x_for_cone, per solve
    fx = mask("cones.find_x_for_cone")
    solves = int(np.count_nonzero(fx))
    inner = 0
    if solves:
        starts, ends = a["start"][fx], a["end"][fx]
        fs = a["start"][mask("cones.f_cone")]
        k = np.searchsorted(starts, fs, side="right") - 1
        inner = int(np.count_nonzero((k >= 0) & (fs < ends[np.maximum(k, 0)])))
    out["cones.find_x_for_cone.roundtrips_per_solve"] = inner / solves if solves else 0.0
    return out


def timed_pass(wl, issue, queries, tracer=None):
    """Issue queries once more; (outcomes, summed latency, slowdown over the
    pass)."""
    before = speed.sample()
    outs, busy = [], 0.0
    for q in queries:
        if tracer is not None:
            tracer.query = q.qid
        t0 = time.perf_counter()
        outs.append(call(wl, issue, q))
        busy += time.perf_counter() - t0
    return outs, busy, speed.slowdown(before, speed.sample())


def answer_digest(wl, outcome):
    status, value = outcome
    if status != "error":
        value = wl.finish(value)
    return status, digest(value)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through the finally blocks that stop the child processes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    wl = WORKLOADS[args.workload](bjcones, args.seed, args.workdir)
    first = numbered_round(wl, 0)
    wl.prepare(first[0])
    ready = time.monotonic()
    # the speed right after set-up; run.py sampled it right before the spawn
    ready_speed = speed.sample()
    if args.setup_only:
        print(json.dumps({"ready": ready, "ready_speed": ready_speed}))
        return 0

    result = {"ready": ready, "ready_speed": ready_speed, "numpy": np.__version__}
    mix = Counter(f"{q.op}/{q.fam}/{q.info.get('kind', '')}" for q in first)
    result["mix"] = sorted(mix.items())
    result["input_digest"] = digest([[(q.op, q.fam, q.args, q.info) for q in numbered_round(wl, r)]
                                     for r in range(DIGEST_ROUNDS)])
    if args.trace:
        result["sweep"] = kernel_sweep(wl.seed)
        result["import_s"] = import_seconds()

    # warm-up: one untimed, unrecorded query so lazy first-call costs are not timed
    call(wl, wl.issue, first[0])
    # answers are checked in a separate process, so the reference's memory
    # and garbage never count against the workload process
    pool = multiprocessing.get_context("spawn").Pool(
        1, initializer=_start_checker, initargs=(args.workload, wl.seed, args.workdir))
    try:
        pool.apply(len, ((),))   # the checker is up before any query is timed
        lat, scaled, tally, kept, rounds = closed_loop(
            wl, first, args.seconds, wl.trace_rounds if args.trace else 0,
            lambda qs, outs: pool.apply(_check_round, (qs, outs)))
    finally:
        pool.terminate()   # every task has returned, unless a signal ended the loop
        pool.join()
    result["rss_mb"] = wl.peak_rss_mb()
    # probed after the loop, untimed; they never count in `failed`
    result["defects"] = wl.known_defects()
    result.update(latencies=lat, scaled=scaled, rounds=rounds, failed=tally.failed, wrong=tally.wrong,
                  failures=sorted(tally.kinds.items()), anchors_ok=tally.anchors_ok)

    if args.trace:
        tq = [q for qs, _ in kept for q in qs]
        tout = [o for _, outs in kept for o in outs]
        n = len(tq)
        layers = {"cli.import_s": result.pop("import_s"), "cli.main_ms": 0.0,
                  "cli.process_overhead_ms": 0.0}
        # an untraced replay right before the traced one, so both see the same
        # warm caches; the trace overhead is the difference between the two
        _, base_s, base_slow = timed_pass(wl, wl.issue_in_process, tq)
        base_s /= base_slow
        if args.workload == "cli":
            layers["cli.main_ms"] = 1e3 * base_s / n
            layers["cli.process_overhead_ms"] = 1e3 * (sum(scaled[:n]) - base_s) / n
        tracer = Tracer()
        tracer.install(bjcones)
        try:
            traced, traced_s, traced_slow = timed_pass(wl, wl.issue_in_process, tq, tracer)
        finally:
            tracer.uninstall()
        layers.update(layer_metrics(tracer, n, traced_slow))
        layers.update(result.pop("sweep"))
        traced_s /= traced_slow
        layers["trace.overhead_frac"] = (traced_s - base_s) / base_s
        result["layers"] = layers
        result["trace_equal"] = all(answer_digest(wl, a) == answer_digest(wl, b)
                                    for a, b in zip(tout, traced))
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"spans-{args.workload}.npz")

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
