"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py [--seeds 0-9] [--out FILE]

Runs `run.py` untraced, for `run_seconds` of BENCHMARK.json, once per
workload of BENCHMARK.json and seed, one run at a time, and prints for
every metric the median, the quartiles and their distance as a share of
the median (the spread), next to the metric's bound in BENCHMARK.json.
With --out it writes the same summary and every raw value as JSON: that
is how perfbench/baseline.json is made.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = bench["run_seconds"]
    summary = {"seeds": args.seeds, "seconds": seconds, "trace": 0,
               "environment": None, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        raw: dict = {}
        attempted = failed = 0
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            line = json.loads(out.stdout.strip().splitlines()[-1])
            attempted += line["attempted"]
            failed += line["failed"]
            for name, m in line["metrics"].items():
                raw.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
            if summary["environment"] is None:
                stem = f"{workload}-full-seed{seed}-trace0.json"
                with open(os.path.join(ROOT, ".bench_build", "results", stem)) as fh:
                    summary["environment"] = json.load(fh)["environment"]
            print(f"{workload} seed {seed}: correct={line['correct']} "
                  f"attempted={line['attempted']} failed={line['failed']}", flush=True)
        stats = {}
        for name, r in raw.items():
            s = summarise(r["values"])
            stats[name] = {"unit": r["unit"], **s, "values": r["values"]}
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if s["spread"] < bound / 3 else ("WITHIN BOUND" if s["spread"] <= bound else "OVER BOUND")
            print(f"  {workload:16s} {name:40s} median {s['median']:.6g} {r['unit']:8s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"bound {bound} {flag}", flush=True)
        summary["workloads"][workload] = {"attempted": attempted, "failed": failed,
                                          "metrics": stats}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
