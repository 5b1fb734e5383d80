#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints each end-to-end metric's
spread against its bound, the way the acceptance driver judges it.

    python3 benchmark/sweep.py [--seeds 10] [--first-seed 1] [--workload W ...]
                               [--program PATH] [--json OUT]

For every workload of BENCHMARK.json it runs
`<command> --workload W --seed S --seconds <run_seconds> --trace 0` once per
seed, takes the last line of stdout, and reports per metric the median, the
distance between the first and third quartile (statistics.quantiles, n=4) as
a share of the median, and whether that spread is within the bound and within
a third of it. Run from the root of the repository. `--program` replaces the
command with an already built binary (plus `run`), which skips cargo's
freshness check on every run.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--program")
    ap.add_argument("--json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    command = [args.program, "run"] if args.program else spec["command"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    runs = {w: [] for w in workloads}
    bad = False
    # Seeds outermost, so that host drift hits every workload alike.
    for i in range(args.seeds):
        seed = args.first_seed + 100 * i
        for w in workloads:
            argv = command + ["--workload", w, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(line)
            ok = proc.returncode == 0 and result.get("correct") and result.get("failed") == 0
            bad |= not ok
            runs[w].append(result)
            print(f"seed {seed:>5} {w:<13} exit {proc.returncode} "
                  f"failed {result.get('failed')}/{result.get('attempted')} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result.get("metrics", {}).items()),
                  flush=True)

    print(f"\n{'workload':<13} {'metric':<15} {'median':>13} {'q1':>13} {'q3':>13} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs[w] if "metrics" in r]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            if m["name"] == "setup_s":
                verdict = "not judged"
            elif spread > m["bound"]:
                verdict = "TOO WIDE"
                bad = True
            elif spread > m["bound"] / 3:
                verdict = "over a third"
            else:
                verdict = "ok"
            print(f"{w:<13} {m['name']:<15} {med:>13.6g} {q1:>13.6g} {q3:>13.6g} "
                  f"{spread:>8.4f} {m['bound']:>6.3f}  {verdict}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
