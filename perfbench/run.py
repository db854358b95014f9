"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--size full|tiny] [--references PATH]

Runs one workload (see perfbench/README.md) in its own fresh interpreter
against the blocktime source in `src/` of this checkout, checks its outputs,
prints every metric by name and unit, writes a result file under
`.bench_build/results/`, and prints as its last line the JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json,
with `--trace 1` the per-layer ones from a traced run.  `setup_s` is the
median over seven fresh interpreters, spread over the run, of the time from
process start to inputs ready.  Exits 2 without a result when `src/blocktime` is missing,
and 1 when the workload process fails or overruns its time limit.
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
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("forkrate_export", "relay_fanout", "race_grid")
SETUP_SAMPLES = 7      # fresh interpreters per run, the measured one included
TIME_LIMIT_S = 170.0   # whole run, set-up included


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = dirty = None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            sha = lines[1]
            status = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, env=env, timeout=10)
            dirty = bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "git_sha": sha,
        "git_dirty": dirty,
        "note": ("only the benchmark's own processes are measured; other load on the "
                 "machine is neither controlled nor recorded"),
    }


def spawn(args, extra, deadline):
    """Run workloads.py in a fresh interpreter; return (start time, last-line JSON)."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # no bytecode written into src/: every interpreter compiles blocktime
    # itself, whatever earlier runs left behind
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # NumPy asks for transparent huge pages on large arrays; whether the
    # kernel grants them depends on the rest of the machine, and granted
    # ones round resident memory up by 2 MB each.  Off, so that peak_rss_mb
    # does not move with the host.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--size", args.size] + extra
    if args.references:
        cmd += ["--references", args.references]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("workload process overran the time limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError("workload process printed no result")
    return start, json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="blocktime benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--references", default=None,
                    help="reference digests to check against (default: perfbench/references.json)")
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "blocktime", "__init__.py")):
        print(f"error: no blocktime source at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    results_dir = os.path.join(BUILD, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}")
    try:
        setup = []

        def sample_setup(n):
            for _ in range(n if args.trace == 0 else 0):
                start, r = spawn(args, ["--setup-only"], deadline)
                setup.append((r["ready"] - start, r["scale"]))

        # set-up samples before and after the measured process, so that
        # their median spans the run rather than one moment of it
        sample_setup(SETUP_SAMPLES // 2)
        extra = ["--spans-out", stem + ".spans.csv"] if args.trace else []
        start, child = spawn(args, extra, deadline)
        setup.append((child["ready"] - start, child["scale"]))
        sample_setup(SETUP_SAMPLES // 2)
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in child["metrics"].items()}
    if args.trace == 0:
        # reference seconds, like total_s: see CAL_REFERENCE_S in workloads.py
        scaled = statistics.median(s * scale for s, scale in setup)
        metrics = {"setup_s": {"value": scaled, "unit": "s"}, **metrics}
    attempted, failed = child["attempted"], child["failed"]
    extra = {name: {"value": v, "unit": unit} for name, (v, unit) in child["extra"].items()}
    extra["failed_ops_frac"] = {"value": failed / attempted if attempted else 1.0,
                                "unit": "fraction"}
    if setup:
        extra["setup_wall_s"] = {"value": statistics.median(s for s, _ in setup), "unit": "s"}
    line = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "config_sha256": child["config_sha256"], "reference_found": child["reference"],
        "environment": {**environment(), **child["versions"]},
        "setup_samples_s": [s for s, _ in setup],
        "setup_scales": [scale for _, scale in setup],
        "extra": extra, "problems": child["problems"], "calls": child.get("calls"),
        "pass_seconds_cpu_scale": child.get("pass_seconds"),
        "memory_kb": child["memory_kb"], "result": line,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace} "
          f"config sha256 {child['config_sha256'][:16]} "
          f"reference {'found' if child['reference'] else 'absent (structural checks only)'}")
    for name, m in {**metrics, **extra}.items():
        print(f"  {name:42s} {m['value']!r:>24} {m['unit']}")
    for problem in child["problems"]:
        print(f"  check failed: {problem}")
    print(f"  result file {os.path.relpath(stem + '.json', ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
