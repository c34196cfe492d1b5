#!/usr/bin/env python3
"""Steadiness report: how much each end-to-end metric moves between runs.

    python3 perfbench/steady.py --runs 10 --sets 2 > perfbench/STEADINESS.md

Run it from the root of a checkout. For each of --sets sets it runs every
workload --runs times through run.py, each run with its own seed, and
prints per workload and metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the quartile spread and the
max-min spread as shares of the median, and the share by which the last
set's median is worse than the first's. Each share is compared with the
metric's bound in BENCHMARK.json, setup_s's too: a quartile spread reads
"ok" below a third of the bound, "wide" up to the bound and "SPREAD"
above it, and a median that worsens by more than the bound reads "DRIFT".
The script exits non-zero on any SPREAD or DRIFT. With --traced it also makes one
traced run per workload and prints its per-layer metrics. --raw saves
every run's metrics; --from-raw reports on saved runs without running.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    took = time.time() - t0
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.exit(f"steady.py: {' '.join(cmd)} exited {res.returncode}\n{res.stderr}")
    out = json.loads(lines[-1])
    out["tail_input"] = next((l.rsplit("input ", 1)[-1].rstrip(")") for l in lines
                              if l.startswith("latency_tail_ms") and "input " in l), None)
    if not out["correct"] or out["failed"]:
        sys.exit(f"steady.py: {workload} seed {seed}: {out['failed']} of {out['attempted']} ops failed")
    return out, took


def worse(metric, first, last):
    """Share by which last is worse than first, given the better direction."""
    if first == 0:
        return 0.0
    change = (last - first) / first
    return change if metric["better"] == "lower" else -change


def machine_drift(raw, workloads):
    """Print how far runs of different workloads made one after another
    move together. The workloads are interleaved, so a high correlation of
    their throughput deviations means the machine's own speed drifted over
    minutes, which no amount of work inside one run averages out."""
    series = {}
    for w in workloads:
        v = [r["metrics"]["throughput_ops_s"] for r in raw if r["workload"] == w]
        med = statistics.median(v)
        series[w] = [x / med for x in v]
    n = min(len(v) for v in series.values())
    if n < 3 or len(workloads) < 2:
        return
    print("## Machine drift\n")
    print("Correlation, over the interleaved cycles, of each workload's throughput "
          "as a share of its median:\n")
    print("| workload | workload | correlation |")
    print("|---|---|---|")
    for i, a in enumerate(workloads):
        for b in workloads[i + 1:]:
            x, y = series[a][:n], series[b][:n]
            mx, my = statistics.mean(x), statistics.mean(y)
            cov = sum((p - mx) * (q - my) for p, q in zip(x, y))
            var = (sum((p - mx) ** 2 for p in x) * sum((q - my) ** 2 for q in y)) ** 0.5
            print(f"| {a} | {b} | {cov / var if var else 0.0:.2f} |")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seed", type=int, default=100, help="first seed; every run gets its own")
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--raw", help="also write every run's metrics to this JSON file")
    ap.add_argument("--from-raw", help="report on the runs saved by --raw instead of running")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    if args.from_raw:
        with open(args.from_raw) as f:
            raw = json.load(f)
        args.sets = max(r["set"] for r in raw)
        args.runs = sum(1 for r in raw if r["set"] == 1 and r["workload"] == workloads[0])
        seed = max(r["seed"] for r in raw) + 1
    else:
        raw = []
        seed = args.seed
        for s in range(args.sets):
            for _ in range(args.runs):
                for w in workloads:
                    start = time.time()
                    out, t = run_once(w, seed, seconds, 0)
                    raw.append({"set": s + 1, "workload": w, "seed": seed, "start": start, "seconds": t,
                                "attempted": out["attempted"], "failed": out["failed"],
                                "tail_input": out["tail_input"],
                                "metrics": {k: v["value"] for k, v in out["metrics"].items()}})
                    seed += 1
                    if args.raw:
                        with open(args.raw, "w") as f:
                            json.dump(raw, f, indent=1)

    values = {}  # (set, workload, metric) -> [values]
    took = {w: [] for w in workloads}
    for r in raw:
        if r["workload"] not in took:
            continue
        took[r["workload"]].append(r["seconds"])
        for name, v in r["metrics"].items():
            values.setdefault((r["set"] - 1, r["workload"], name), []).append(v)

    print("# Steadiness report\n")
    first = min(r["seed"] for r in raw)
    print(f"{args.sets} sets of {args.runs} runs per workload, run_seconds={seconds}, "
          f"one seed per run starting at {first}, workloads interleaved.\n")
    failed = False
    for w in workloads:
        print(f"## {w}\n")
        runs = [r for r in raw if r["workload"] == w]
        tails = sorted({r.get("tail_input") for r in runs if r.get("tail_input")})
        print(f"Run time per run: median {statistics.median(took[w]):.1f} s, "
              f"max {max(took[w]):.1f} s. Ops failed: {sum(r.get('failed', 0) for r in runs)} "
              f"of {sum(r.get('attempted', 0) for r in runs)}. "
              f"Inputs the tail sample came from: {', '.join(tails) or 'not recorded'}.\n")
        print("| metric | bound | set | median | q1 | q3 | (q3-q1)/median | (max-min)/median | verdict |")
        print("|---|---|---|---|---|---|---|---|---|")
        for m in spec["end_to_end"]:
            medians = []
            for s in range(args.sets):
                v = values[(s, w, m["name"])]
                q1, _, q3 = statistics.quantiles(v, n=4)
                med = statistics.median(v)
                medians.append(med)
                iqr = (q3 - q1) / med if med else 0.0
                rng = (max(v) - min(v)) / med if med else 0.0
                verdict = "ok" if iqr < m["bound"] / 3 else "wide" if iqr <= m["bound"] else "SPREAD"
                failed |= verdict == "SPREAD"
                print(f"| {m['name']} | {m['bound']} | {s + 1} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                      f"| {iqr:.4f} | {rng:.4f} | {verdict} |")
            drift = worse(m, medians[0], medians[-1])
            ok = drift <= m["bound"]
            failed |= not ok
            print(f"| {m['name']} | {m['bound']} | last vs first | worse by {drift:+.4f} | | | | "
                  f"| {'ok' if ok else 'DRIFT'} |")
        print()

    machine_drift(raw, workloads)

    if args.traced:
        print("## Traced runs (per-layer metrics)\n")
        for w in workloads:
            out, t = run_once(w, seed, seconds, 1)
            seed += 1
            print(f"### {w} ({t:.1f} s)\n")
            print("| metric | value | unit |")
            print("|---|---|---|")
            for m in spec["per_layer"]:
                v = out["metrics"][m["name"]]
                print(f"| {m['name']} | {v['value']:.6g} | {v['unit']} |")
            print()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
