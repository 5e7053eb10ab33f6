"""Self-test of the benchmark's determinism.

    python3 bench/selftest.py [--workload pairs] [--seed 1] [--other-seed 2]

Runs the traced mode three times: twice with one seed and once with another.
The same seed must give identical inputs (a hash of the first rounds' query
inputs) and identical per-layer counts; the other seed must give different
inputs with the same query mix, in the same proportions.  Exits 0 when all
hold.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def traced_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1", "--json-info"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600, check=True)
    lines = out.stdout.strip().splitlines()
    info = json.loads(next(x for x in lines if x.startswith("info: "))[len("info: "):])
    result = json.loads(lines[-1])
    counts = {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}
    return info, counts


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="pairs")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--other-seed", type=int, default=2)
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args(argv)

    a_info, a_counts = traced_run(args.workload, args.seed, args.seconds)
    b_info, b_counts = traced_run(args.workload, args.seed, args.seconds)
    c_info, _ = traced_run(args.workload, args.other_seed, args.seconds)
    checks = {
        "same seed, same inputs": a_info["input_digest"] == b_info["input_digest"],
        "same seed, same per-layer counts": a_counts == b_counts,
        "other seed, other inputs": a_info["input_digest"] != c_info["input_digest"],
        "other seed, same query mix": a_info["mix"] == c_info["mix"],
    }
    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    if a_counts != b_counts:
        for k in sorted(a_counts):
            if a_counts[k] != b_counts.get(k):
                print(f"      {k}: {a_counts[k]} != {b_counts.get(k)}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
