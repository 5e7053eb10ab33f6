"""bjcones benchmark runner.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (or all five with --workload all) in a child process with
the BLAS thread variables set to 1, as a closed loop with one client: each
query is issued only after the previous one returned.  Every answer is
checked against the benchmark's own reference.  With --trace 0 it reports the
end-to-end metrics, with --trace 1 the per-layer metrics of a separate traced
replay.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Set-up time is measured from the spawn of a workload process until its first
query is ready to issue; the workload is set up SETUP_SPAWNS extra times in
set-up-only processes and the median is reported.

Every process of a run is pinned to one CPU, and every timing is reported at
one reference speed of that CPU, measured alongside it (see speed.py).  The
raw timings are printed above the result line.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("pairs", "cones", "converse", "scan", "cli")
SETUP_SPAWNS = 7
TAIL_BEYOND = 10        # the tail percentile keeps at least this many samples above it
CHILD_TIMEOUT = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))


def load_spec():
    """Metric units by name, for each mode, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {mode: {m["name"]: m["unit"] for m in spec[key]}
             for mode, key in ((0, "end_to_end"), (1, "per_layer"))}
    return spec, units


def child_env():
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    return env


def pin_one_cpu():
    """Keep this process and every process it starts on one CPU, the one the
    speed samples measure."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError:
        pass


def spawn(args, env, timeout):
    """Run the workload process; (set-up seconds at the reference speed, raw
    set-up seconds, parsed last stdout line)."""
    cmd = [sys.executable, str(BENCH / "worker.py")] + args
    before = speed.sample()
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"workload process timed out after {timeout:.0f} s")
    except BaseException:
        proc.terminate()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])
    raw = res["ready"] - t0
    return raw / speed.slowdown(before, res["ready_speed"]), raw, res


def tail(lat):
    """Highest percentile with at least TAIL_BEYOND samples above it (the
    median when a run has too few samples for one)."""
    s = sorted(lat)
    n = len(s)
    k = max(n - TAIL_BEYOND - 1, (n - 1) // 2)
    return s[k], 100.0 * (k + 1) / n


def header(workload, seed, numpy_version):
    src = sorted((ROOT / "src").rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for p in src:
        data = p.read_bytes()
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    cpu, l2 = None, None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        l2 = Path("/sys/devices/system/cpu/cpu0/cache/index2/size").read_text().strip()
    except OSError:
        pass
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        parts = top.stdout.split()
        if top.returncode == 0 and len(parts) == 2 and Path(parts[0]).resolve() == ROOT:
            commit = parts[1]
    except OSError:
        pass
    why = {w["name"]: w["why"] for w in load_spec()[0]["workloads"]}.get(workload)
    return {
        "workload": workload, "seed": seed, "why": why,
        "nproc": NPROC, "cpu": cpu, "l2": l2,
        "python": platform.python_version(), "numpy": numpy_version,
        "threads": {v: "1" for v in THREAD_VARS},
        "git_commit": commit, "src_sha256": h.hexdigest()[:16], "src_lines": lines,
    }


def run_one(workload, seed, seconds, trace, units):
    env = child_env()
    workdir = ROOT / ".bench_out" / f"work-{os.getpid()}-{workload}"
    base = ["--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    setups, raw_setups = [], []
    try:
        for _ in range(SETUP_SPAWNS):
            setup, raw, _ = spawn(base + ["--setup-only"], env, 60.0)
            setups.append(setup)
            raw_setups.append(raw)
        setup, raw, res = spawn(base + ["--seconds", str(seconds), "--trace", str(trace)],
                                env, CHILD_TIMEOUT)
        setups.append(setup)
        raw_setups.append(raw)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat, raw_lat = res["scaled"], res["latencies"]
    n = len(lat)
    t_ms, t_pct = tail(lat)
    e2e = {
        "setup_s": statistics.median(setups),
        "query_p50_ms": statistics.median(lat) * 1e3,
        "query_tail_ms": t_ms * 1e3,
        "queries_per_s": n / sum(lat),
        "ok_frac": 1.0 - res["failed"] / n,
        "peak_rss_mb": res["rss_mb"],
    }
    raw = {
        "setup_s": statistics.median(raw_setups),
        "query_p50_ms": statistics.median(raw_lat) * 1e3,
        "query_tail_ms": tail(raw_lat)[0] * 1e3,
        "queries_per_s": n / sum(raw_lat),
    }
    info = {"fail_frac": res["failed"] / n, "wrong": res["wrong"],
            "tail_percentile": t_pct, "samples": n, "rounds": res["rounds"],
            "timed_s": sum(raw_lat), "anchors_ok": res["anchors_ok"],
            "input_digest": res["input_digest"], "mix": res["mix"],
            "failures": res["failures"], "defects": res["defects"], "raw": raw,
            "numpy": res["numpy"]}
    correct = bool(res["anchors_ok"])
    values = e2e
    if trace:
        values = res["layers"]
        info["trace_equal"] = res["trace_equal"]
        correct = correct and res["trace_equal"]
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    return {"correct": correct, "attempted": n, "failed": res["failed"],
            "metrics": metrics}, e2e, info


def report(workload, seed, result, e2e, info, trace):
    print(f"header: {json.dumps(header(workload, seed, info['numpy']))}")
    print(f"[{workload}] queries={info['samples']} rounds={info['rounds']} "
          f"timed={info['timed_s']:.2f}s failed={result['failed']} wrong={info['wrong']} "
          f"fail_frac={info['fail_frac']:.6f} anchors_ok={info['anchors_ok']}")
    for line, count in info["failures"]:
        print(f"  failure x{count}: {line}")
    for what, hits, probes in info["defects"]:
        print(f"  known defect, probed outside the timed loop: {hits} of {probes}: {what}")
    if trace:
        print(f"  traced answers bit-identical to untraced: {info['trace_equal']}")
        for k, m in result["metrics"].items():
            print(f"  {k:<48} {m['value']:>14.6g} {m['unit']}")
    else:
        for k, v in e2e.items():
            extra = ""
            if k == "query_tail_ms":
                extra = f"  (p{info['tail_percentile']:.1f}, n={info['samples']})"
            if k in info["raw"]:
                extra += f"  (raw {info['raw'][k]:.6g})"
            print(f"  {k:<48} {v:>14.6g} {result['metrics'][k]['unit']}{extra}")
        print(f"  {'fail_frac':<48} {info['fail_frac']:>14.6g} ratio")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json-info", action="store_true",
                    help="also print the run details (input digest, mix) as JSON")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bjcones" / "__init__.py").is_file():
        print(f"error: no bjcones sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        units = load_spec()[1]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    pin_one_cpu()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.workload == "all" else (args.trace,)
    for name in names:
        for trace in traces:
            try:
                result, e2e, info = run_one(name, args.seed, args.seconds, trace, units[trace])
            except (RuntimeError, ValueError, KeyError) as exc:
                print(f"error: {name}: {exc}", file=sys.stderr)
                return 1
            report(name, args.seed, result, e2e, info, trace)
            if args.json_info:
                print("info: " + json.dumps(info))
            print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
