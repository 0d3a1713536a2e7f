"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 --seconds 10
    python3 perfbench/collect.py --seeds 1-10 --seconds 10 --trace-seeds 1-2 --record

Runs ``run.py`` once per (workload, seed), one process at a time, and prints
for every metric the median, the quartiles (``statistics.quantiles`` with
n=4) and the spread, the quartile distance as a share of the median.  With
``--record`` it writes ``baseline.json``: those summaries for every
workload, plus the term count per batch of each seed, which ``run.py``
compares against on later runs with the same seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.workloads import WORKLOADS  # noqa: E402


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    tag = f"{workload}-seed{seed}-trace{trace}"
    with open(os.path.join(HERE, "out", f"result-{workload}-seed{seed}-trace{trace}.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    print(f"{tag}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} terms={record['terms_per_batch']}", flush=True)
    return result, record


def summarise(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values,
        }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace-seeds", type=seed_list, default=[])
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--record", action="store_true", help="write baseline.json")
    args = parser.parse_args()

    baseline = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        plain = [run_one(workload, seed, args.seconds, 0) for seed in args.seeds]
        traced = [run_one(workload, seed, args.seconds, 1) for seed in args.trace_seeds]
        entry = {
            "seeds": args.seeds,
            "attempted": sum(r["attempted"] for r, _ in plain),
            "failed": sum(r["failed"] for r, _ in plain),
            "end_to_end": summarise([r for r, _ in plain]),
            "terms_by_seed": {str(s): rec["terms_per_batch"] for s, (_, rec) in zip(args.seeds, plain)},
        }
        if traced:
            entry["trace_seeds"] = args.trace_seeds
            entry["per_layer"] = summarise([r for r, _ in traced])
        entry["env"] = plain[0][1]["env"]
        baseline["workloads"][workload] = entry
        print(f"== {workload}: {entry['attempted']} ops, {entry['failed']} failed")
        for kind in ("end_to_end", "per_layer"):
            for name, s in entry.get(kind, {}).items():
                print(f"  {name:34s} median {s['median']:.6g} {s['unit']:5s} spread {s['spread']:.3f}")
    path = os.path.join(HERE, "baseline.json" if args.record else os.path.join("out", "collect.json"))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1)
    print(f"wrote {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    main()
