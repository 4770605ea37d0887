#!/usr/bin/env python3
"""Run the benchmark over several seeds and record a baseline.

Usage, from the repository root:

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each workload in BENCHMARK.json this makes ten untraced runs with seeds
0-9 and one traced run at seed 0.  For every end-to-end metric it reports the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread ``(q3 - q1) /
median`` next to the metric's bound.  The JSON it writes also records the
machine: core count, cache sizes, interpreter and library versions, and per
workload the projector's nonzeros and the computed bytes of one product.
Runs are sequential, one process at a time.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(10)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def caches():
    """Cache sizes of cpu0 as the kernel lists them, e.g. {"L2": "2048K"}."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        kind = (index / "type").read_text().strip()
        if kind == "Instruction":
            continue
        out[f"L{(index / 'level').read_text().strip()}"] = (index / "size").read_text().strip()
    return out


def size_bytes(text):
    """Bytes of a sysfs cache size such as "2048K"."""
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(text[:-1]) * scale[text[-1]] if text[-1] in scale else int(text)


def environment():
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "caches_per_cpu0": caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": "BLAS/OpenMP pinned to 1; run_experiment(threads=1)",
    }


def stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    result = {"environment": environment(), "run_seconds": seconds, "workloads": {}}
    for workload in bench["workloads"]:
        name = workload["name"]
        runs = []
        for seed in SEEDS:
            runs.append(run_once(name, seed, seconds, 0))
            print(f"{name} seed {seed} done", file=sys.stderr, flush=True)
        traced = run_once(name, SEEDS[0], seconds, 1)["metrics"]
        entry = {"end_to_end": {}, "per_layer_seed": SEEDS[0],
                 "per_layer": {k: v["value"] for k, v in traced.items()}}
        entry["nnz"] = traced["tomo.nnz"]["value"]
        entry["product_bytes_computed"] = traced["linalg.product_bytes"]["value"]
        l3 = result["environment"]["caches_per_cpu0"].get("L3")
        if l3:
            # a product that fits in L3 measures the caches, not DRAM bandwidth
            entry["product_fits_in_l3"] = entry["product_bytes_computed"] < size_bytes(l3)
        for metric in bench["end_to_end"]:
            s = stats([r["metrics"][metric["name"]]["value"] for r in runs])
            s["bound"] = metric["bound"]
            entry["end_to_end"][metric["name"]] = s
            flag = "" if s["spread"] <= metric["bound"] / 3 else "  <-- above bound/3"
            print(f"{name:16s} {metric['name']:18s} median {s['median']:.6g} "
                  f"spread {s['spread']:.3f} bound {metric['bound']}{flag}")
        result["workloads"][name] = entry
    args.out.write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
