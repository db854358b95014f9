"""Smoke check of the benchmark itself.

    python3 perfbench/smoke_check.py

Runs every workload at the tiny size, untraced and traced, and checks that
the last line carries exactly the metrics BENCHMARK.json names, each with
its unit, that each is also printed by name, and that the outputs match
their references.  Then it corrupts one reference per workload and checks
that the mismatch is counted in failed_ops_frac, and that the benchmark
refuses to run, printing no result, in a copy holding only BENCHMARK.json
and perfbench/.  Exits 0 when every check holds, 1 otherwise.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "smoke")

failures: list = []


def check(ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)
        print(f"FAIL {message}", flush=True)


def bench(root, workload, trace, references=None):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    if references:
        cmd += ["--references", references]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]]

    for workload in names:
        for trace in (0, 1):
            proc = bench(ROOT, workload, trace)
            tag = f"{workload} trace {trace}"
            check(proc.returncode == 0, f"{tag}: exit code {proc.returncode}: {proc.stderr[-500:]}")
            if proc.returncode != 0:
                continue
            lines, line = result_line(proc)
            check(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: keys {sorted(line)}")
            check(line["correct"] is True and line["failed"] == 0, f"{tag}: outputs failed their checks")
            check(isinstance(line["attempted"], int) and line["attempted"] >= 1, f"{tag}: attempted")
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            check(got == expected[trace], f"{tag}: metrics/units differ from BENCHMARK.json: "
                                          f"{sorted(set(got) ^ set(expected[trace]))}")
            for name, m in line["metrics"].items():
                value = m["value"]
                check(isinstance(value, (int, float)) and not isinstance(value, bool),
                      f"{tag}: {name} is not a number")
                printed = [ln.split() for ln in lines[:-1]]
                check([name, repr(value), m["unit"]] in printed, f"{tag}: {name} not printed with its unit")
            check(any(ln.split()[:1] == ["failed_ops_frac"] for ln in lines), f"{tag}: no failed_ops_frac")

    with open(os.path.join(HERE, "references.json")) as fh:
        refs = json.load(fh)
    bad = copy.deepcopy(refs)
    tiny = {w: bad["workloads"][w]["tiny"]["0"] for w in names}
    tiny["forkrate_export"][0]["blocks.csv"] = "0" * 64
    tiny["relay_fanout"][0] = "0" * 64
    tiny["race_grid"][0] += 1.0
    os.makedirs(WORK, exist_ok=True)
    corrupt = os.path.join(WORK, "references-corrupt.json")
    with open(corrupt, "w") as fh:
        json.dump(bad, fh)
    for workload in names:
        proc = bench(ROOT, workload, 0, corrupt)
        check(proc.returncode == 0, f"{workload} corrupted reference: exit code {proc.returncode}")
        if proc.returncode != 0:
            continue
        lines, line = result_line(proc)
        frac = [float(ln.split()[1]) for ln in lines if ln.split()[:1] == ["failed_ops_frac"]]
        check(line["correct"] is False and line["failed"] >= 1 and frac and frac[0] > 0,
              f"{workload}: corrupted reference not counted in failed_ops_frac")

    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench(bare, names[0], 0)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"without src/ the benchmark exited {proc.returncode} and printed {proc.stdout[-200:]!r}")
    shutil.rmtree(bare, ignore_errors=True)

    print("smoke check: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
