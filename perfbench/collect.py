#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

Run from the repository root:

    python3 perfbench/collect.py --seeds 10                 # every workload, --trace 0
    python3 perfbench/collect.py --workloads intel --seeds 5
    python3 perfbench/collect.py --seeds 10 --traced 3 --baseline perfbench/baseline.json
    python3 perfbench/collect.py --seeds 10 --first-seed 401 --compare perfbench/baseline.json

For each workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread ``(q3 - q1) / median`` next to the metric's bound from
``BENCHMARK.json``. ``--traced N`` adds N ``--trace 1`` runs per workload
for the per-layer medians. ``--baseline FILE`` writes everything, with the
git revision, host and core count, plus the end-to-end metric each layer
metric is expected to move. ``--compare FILE`` also prints how far each
median moved, in its worse direction, from the medians in FILE, as a
share of that median next to the bound.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

# Layer metric prefix -> the end-to-end metrics it should move. Every
# workload runs every path, so each target applies to every workload.
TARGETS = {
    "lang.": ["batch_cold_kps", "serve_cold_p50_ms"],
    "ir.": ["batch_cold_kps", "serve_cold_p50_ms"],
    "core.": ["batch_cold_kps", "serve_cold_p50_ms", "sim_speedup_geomean (must not move)"],
    "opt.": ["opt_kps", "opt_speedup_geomean (must not fall)"],
    "verify.": ["batch_cold_kps", "serve_cold_p50_ms"],
    "driver.encode_s": ["batch_cold_kps"],
    "driver.disk_write_s": ["batch_cold_kps"],
    "driver.entry_bytes": ["batch_cold_kps", "batch_warm_kps"],
    "driver.fingerprint_s": ["batch_warm_kps", "serve_warm_p50_ms"],
    "driver.cache_get_disk_s": ["batch_warm_kps"],
    "driver.disk_read_s": ["batch_warm_kps"],
    "driver.decode_s": ["batch_warm_kps"],
    "driver.cache_get_memory_s": ["serve_warm_p50_ms"],
    "driver.cache_hit_ratio": ["serve_warm_p50_ms"],
    "batch.": ["batch_cold_kps"],
    "vm.": ["vm_runs_per_s"],
    "serve.": ["serve_warm_p50_ms", "serve_cold_p50_ms", "serve_max_rps"],
    "trace.": [],
}


def targets_of(name):
    best = max((p for p in TARGETS if name.startswith(p)), key=len, default=None)
    return TARGETS.get(best, [])


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed operation(s)\n{proc.stderr}")
    return result


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def git_revision():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", type=int, default=0, help="--trace 1 runs per workload")
    ap.add_argument("--baseline", help="write the summary to this JSON file")
    ap.add_argument("--verbose", action="store_true", help="print every run's value")
    ap.add_argument("--compare", help="a --baseline file whose medians to compare against")
    args = ap.parse_args()
    before = None
    if args.compare:
        with open(args.compare) as f:
            before = json.load(f)["end_to_end"]

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layers = {m["name"]: m for m in bench["per_layer"]}

    out = {"revision": git_revision(), "host": platform.node(), "cpu": cpu_model(),
           "nproc": os.cpu_count(), "date": datetime.date.today().isoformat(),
           "run_seconds": bench["run_seconds"], "seeds": args.seeds,
           "end_to_end": {}, "per_layer": {}}
    worst = 0.0
    for w in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs.append(run_once(bench, w, seed, 0))
            print(f"{w} seed {seed}: ok", file=sys.stderr)
        out["end_to_end"][w] = {}
        print(f"\n{w}: {args.seeds} runs")
        print(f"  {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, meta in e2e.items():
            s = summarise([r["metrics"][name]["value"] for r in runs])
            s.update(unit=meta["unit"], better=meta["better"], bound=meta["bound"])
            out["end_to_end"][w][name] = s
            worst = max(worst, s["spread"] / meta["bound"])
            flag = "  <-- over bound/3" if s["spread"] > meta["bound"] / 3 else ""
            print(f"  {name:24s} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
                  f"{s['spread']:8.4f} {meta['bound']:6.2f}{flag}")
            if args.verbose:
                print("      " + " ".join(f"{r['metrics'][name]['value']:.4g}" for r in runs))
            if before and name in before.get(w, {}):
                old = before[w][name]["median"]
                sign = 1 if meta["better"] == "lower" else -1
                worse = sign * (s["median"] - old) / old if old else 0.0
                flag = "  <-- over bound" if worse > meta["bound"] else ""
                print(f"      vs {old:.5g}: worse by {worse:+.4f} (bound {meta['bound']}){flag}")
        if args.traced:
            traced = [run_once(bench, w, seed, 1)
                      for seed in range(args.first_seed, args.first_seed + args.traced)]
            out["per_layer"][w] = {}
            for name, meta in layers.items():
                values = [r["metrics"][name]["value"] for r in traced]
                s = summarise(values) if len(values) > 1 else {"median": values[0], "n": 1}
                s.update(unit=meta["unit"], better=meta["better"], moves=targets_of(name))
                out["per_layer"][w][name] = s
    print(f"\nworst spread / bound: {worst:.3f}")
    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump(out, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
