"""One benchmark workload in one fresh interpreter.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1
        [--size full|tiny] [--references PATH] [--setup-only]

`run.py` starts this program with `src/` on PYTHONPATH and reads the JSON
object on its last stdout line.  The workload drives blocktime through its
public API (`sim`, `chain`, `metrics`, `analytic`) as a single caller, in a
closed loop on one thread: each pass starts when the previous one and its
output check have finished.  Inputs come from the seed alone.

Timed passes run until `--seconds` would be exceeded.  With `--trace 1` the
first half of the time runs untraced and the second half traced, so the
trace overhead is measured in the same process.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from importlib import resources

import numpy as np

import blocktime
from blocktime import analytic, metrics, sim

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Run lengths.  "full" is what the benchmark measures; "tiny" is for the
# smoke check.  The forkrate pass takes 3-5 s and the relay pass about 1 s
# on a 2-core Xeon VM, so a 36 s run holds several passes to average over;
# the race trial count is two 65,536-trial batches per cell, so a cell
# has more than one batch to spread over processes.
SIZES = {
    "full": {"forkrate_blocks": 40_000, "relay_blocks": 4_100, "race_trials": 131_072},
    "tiny": {"forkrate_blocks": 2_000, "relay_blocks": 300, "race_trials": 4_096},
}

RELAY_NODES = 32
RELAY_MINERS = 8
RELAY_DELAY_RANGE = (0.2, 30.0)   # seconds, drawn log-uniformly per pair
RELAY_CLOCK_SPREAD = 300.0        # well inside the 7200 s future bound
NOMINAL_HASHRATE = analytic.DIFFICULTY_ONE_SCALE / 600.0

RACE_QS = (0.05, 0.1, 0.2, 0.3, 0.45)
RACE_KS = tuple(range(1, 9))
# Up to 40 cells are judged at once; a per-cell 3-sigma band would flag about
# one grid in ten by chance alone, 5 sigma about one in 50,000.  Cells whose
# expected success or failure count is under metrics.UNDERPOWERED_EVENTS are
# not judged against the closed form, as in the package's own reports: there
# a single success already lies tens of sigma out.  The exact reference and
# the repeat check still cover every cell.
RACE_Z_MAX = 5.0

# Host-speed calibration.  On a shared VM the whole machine runs up to ~1.6x
# slower for seconds to minutes at a time, and a fixed integer loop slows by
# about the same factor as the interpreter-bound workloads.  Timed around
# every pass, it turns each measured time into reference seconds:
#   reference seconds = measured seconds * CAL_REFERENCE_S / loop seconds,
# where CAL_REFERENCE_S is the loop's time on a 2-core Xeon VM at its fastest.
# The loop is benchmark code, so no change to blocktime can move it.
CAL_LOOP = 150_000
CAL_REPEATS = 3
CAL_REFERENCE_S = 0.015
# race_grid is vectorised NumPy over 16 MB slabs, and the host's slow
# stretches slow it less than they slow the interpreter.  Over 170 s on that
# VM, a batch of three race cells timed again and again spread (coefficient
# of variation) by 6.6% as measured, by 10% scaled by the integer loop and by
# 4.5% scaled by a small kernel of race_monte_carlo's own NumPy operations.
# So race_grid is scaled by that kernel; CAL_NUMPY_REFERENCE_S is its time
# when the integer loop takes CAL_REFERENCE_S.
CAL_NUMPY_SHAPE = (8192, 64)
CAL_NUMPY_ROUNDS = 4
CAL_NUMPY_REFERENCE_S = 0.0145

REFERENCES = os.path.join(HERE, "references.json")
OUT_ROOT = os.path.join(ROOT, ".bench_build")


def _clock() -> float:
    return time.perf_counter()


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def memory_status() -> dict:
    """Peak and current resident memory, split into anonymous and
    file-backed pages, from /proc/self/status; empty where that is absent.
    The split tells a change in the program's own memory from a change in
    how many pages of shared libraries the process has mapped."""
    keys = ("VmHWM", "VmRSS", "RssAnon", "RssFile")
    try:
        with open("/proc/self/status") as fh:
            return {k: int(v.split()[0]) for k, _, v in (ln.partition(":") for ln in fh)
                    if k in keys}
    except OSError:
        return {}


def calibrate() -> float:
    """Seconds of the fixed integer loop, fastest of a few repeats."""
    best = math.inf
    for _ in range(CAL_REPEATS):
        t0 = _clock()
        x = 0
        for i in range(CAL_LOOP):
            x = (x * 31 + i) & 0xFFFFFFFF
        best = min(best, _clock() - t0)
    return best


def calibrate_numpy() -> float:
    """Seconds of a fixed NumPy kernel made of race_monte_carlo's own
    operations (float32 draws, compare, int8 prefix sums, row minimum),
    fastest of a few repeats."""
    rng = np.random.default_rng(0)
    best = math.inf
    for _ in range(CAL_REPEATS):
        t0 = _clock()
        for _ in range(CAL_NUMPY_ROUNDS):
            down = rng.random(CAL_NUMPY_SHAPE, dtype=np.float32) < 0.3
            np.cumsum(1 - 2 * down.astype(np.int8), axis=1, dtype=np.int8).min(axis=1)
        best = min(best, _clock() - t0)
    return best


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _canonical_sha(obj) -> str:
    return _sha256(_dumps(obj).encode())


def _file_sha(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            h.update(chunk)
    return h.hexdigest()


def trace_digest(trace) -> str:
    """sha256 over every simulated output of a trace, floats at full
    precision: the canonical JSON of [blocks, tip events, fork episodes,
    difficulty history, rejections, final tips], fed to the hash one row at
    a time so that the check never holds a copy of the trace."""
    tables = (
        ([b.id, b.parent, b.height, b.miner, b.timestamp, b.difficulty, b.found_at]
         for b in trace.blocks),
        (list(e) for e in trace.tip_events),
        ([f.window_start, list(f.blocks), f.winner] for f in trace.fork_episodes),
        (list(d) for d in trace.difficulty_history),
        (list(r) for r in trace.rejections),
    )
    h = hashlib.sha256()
    for i, rows in enumerate(tables):
        h.update(b"[[" if i == 0 else b",[")
        for j, row in enumerate(rows):
            h.update((_dumps(row) if j == 0 else "," + _dumps(row)).encode())
        h.update(b"]")
    h.update(("," + _dumps(list(trace.final_tips)) + "]").encode())
    return h.hexdigest()


def sim_stats(trace) -> dict:
    return {
        "sim.blocks_created": len(trace.blocks) - 1,
        "sim.tip_events": len(trace.tip_events),
        "sim.fork_episodes": len(trace.fork_episodes),
        "sim.rejections": len(trace.rejections),
    }


def structural_ok(trace, stop_blocks: int) -> bool:
    """Quiescent agreement and a canonical chain at least as long as the stop."""
    return trace.agreement() and trace.canonical_height() >= stop_blocks


class Pass:
    """What one pass measured and produced.  `outputs` holds one value per
    operation; `ok` says whether each passed its structural check."""

    def __init__(self):
        self.seconds = 0.0
        self.cpu_seconds = 0.0
        self.scale = 1.0   # reference / calibration seconds around this pass
        self.rss_mb = 0.0  # ru_maxrss at the end of the timed region, before the checks
        self.parts: dict = {}
        self.outputs: list = []
        self.ok: list = []
        self.stats: dict = {}
        self.work = 0


class ForkrateExport:
    """The bundled forkrate scenario, exported in both formats plus reports."""

    name = "forkrate_export"
    calibration = (calibrate, CAL_REFERENCE_S)

    def __init__(self, seed: int, size: str):
        text = (resources.files("blocktime") / "scenarios" / "forkrate.json").read_text()
        d = json.loads(text)
        self.stop = SIZES[size]["forkrate_blocks"]
        d["stop"] = {"blocks": self.stop}
        d["seed"] = seed
        self.config_dict = d
        self.cfg = sim.SimConfig.from_dict(d)
        self.outdir = os.path.join(OUT_ROOT, "out", f"{self.name}-{os.getpid()}")

    def run_pass(self, first: bool) -> Pass:
        p = Pass()
        t0 = _clock()
        trace = sim.run(self.cfg)
        t1 = _clock()
        rss_run = _maxrss_mb()
        csv_paths = trace.write_csvs(self.outdir, "csv")
        t2 = _clock()
        json_paths = trace.write_csvs(self.outdir, "json")
        t3 = _clock()
        rss_export = _maxrss_mb()
        reports_path, expo = self._reports(trace)
        t4 = _clock()
        p.rss_mb = _maxrss_mb()
        p.seconds = t4 - t0
        p.parts = {"run": t1 - t0, "csv": t2 - t1, "json": t3 - t2, "reports": t4 - t3}
        p.work = len(trace.blocks) - 1
        files = {os.path.basename(path): _file_sha(path)
                 for path in csv_paths + json_paths + [reports_path]}
        files["exponentiality"] = _sha256(repr(expo).encode())
        p.outputs = [files]
        p.ok = [structural_ok(trace, self.stop)]
        p.stats = sim_stats(trace)
        if first:
            p.stats["sim.export_csv_bytes"] = sum(os.path.getsize(f) for f in csv_paths)
            p.stats["sim.export_json_bytes"] = sum(os.path.getsize(f) for f in json_paths)
            p.stats["sim.rss_after_run_mb"] = rss_run
            p.stats["sim.rss_after_export_mb"] = rss_export
        return p

    def _reports(self, trace):
        # the estimators `blocktime simulate --reports` runs, in its order
        reports = []
        if trace.config.delay.max_delay() > 0:
            reports.append(metrics.fork_rate(trace))
            reports.append(metrics.multi_discovery_window_rate(trace))
        deltas = trace.canonical_deltas()
        if deltas.size >= 2:
            reports.append(metrics.tail_frequency(deltas, 6360.0))
        expo = metrics.exponentiality_diagnostic(deltas) if deltas.size >= 100 else None
        path = os.path.join(self.outdir, "reports.csv")
        metrics.write_reports_csv(reports, path)
        return path, expo

    def close(self):
        shutil.rmtree(self.outdir, ignore_errors=True)


def relay_config(seed: int, stop_blocks: int) -> dict:
    """32 nodes, 8 of them mining; shares, per-pair delays and clock
    offsets drawn from the workload seed."""
    rng = np.random.default_rng((seed, 1))
    weights = rng.uniform(0.5, 1.5, RELAY_MINERS)
    shares = (weights / weights.sum()).tolist()
    offsets = rng.uniform(-RELAY_CLOCK_SPREAD, RELAY_CLOCK_SPREAD, RELAY_MINERS).tolist()
    lo, hi = RELAY_DELAY_RANGE
    delays = np.exp(rng.uniform(math.log(lo), math.log(hi), (RELAY_NODES, RELAY_NODES)))
    np.fill_diagonal(delays, 0.0)
    return {
        "miners": [{"id": i, "share": shares[i], "clock_offset": offsets[i]}
                   for i in range(RELAY_MINERS)],
        "nodes": RELAY_NODES,
        "delay": {"per_pair": delays.tolist()},
        "rules": {},
        "initial_difficulty": 1.0,
        "nominal_hashrate": NOMINAL_HASHRATE,
        "stop": {"blocks": stop_blocks},
        "seed": seed,
        "retarget_enabled": True,
    }


class RelayFanout:
    """Many relaying nodes: every block is validated and inserted 31 times."""

    name = "relay_fanout"
    calibration = (calibrate, CAL_REFERENCE_S)

    def __init__(self, seed: int, size: str):
        self.stop = SIZES[size]["relay_blocks"]
        self.config_dict = relay_config(seed, self.stop)
        self.cfg = sim.SimConfig.from_dict(self.config_dict)

    def run_pass(self, first: bool) -> Pass:
        p = Pass()
        t0 = _clock()
        trace = sim.run(self.cfg)
        t1 = _clock()
        p.rss_mb = _maxrss_mb()
        p.seconds = t1 - t0
        p.parts = {"run": t1 - t0}
        p.work = len(trace.blocks) - 1
        p.outputs = [trace_digest(trace)]
        p.ok = [structural_ok(trace, self.stop)]
        p.stats = sim_stats(trace)
        if first:
            p.stats["sim.rss_after_run_mb"] = p.rss_mb
        return p

    def close(self):
        pass


class RaceGrid:
    """The criterion-3 grid, one race_monte_carlo call per cell."""

    name = "race_grid"
    calibration = (calibrate_numpy, CAL_NUMPY_REFERENCE_S)

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.trials = SIZES[size]["race_trials"]
        self.cells = [(q, k) for q in RACE_QS for k in RACE_KS]
        self.closed = [analytic.catchup_probability(q, k) for q, k in self.cells]
        floor = metrics.UNDERPOWERED_EVENTS
        self.judged = [min(cf, 1.0 - cf) * self.trials >= floor for cf in self.closed]
        self.config_dict = {"qs": list(RACE_QS), "ks": list(RACE_KS),
                            "trials": self.trials, "seed": seed}

    def run_pass(self, first: bool) -> Pass:
        p = Pass()
        estimates, cell_s = [], []
        for q, k in self.cells:
            t0 = _clock()
            est = metrics.race_monte_carlo(q, k, self.trials, self.seed)
            cell_s.append(_clock() - t0)
            estimates.append(est)
        p.rss_mb = _maxrss_mb()
        p.seconds = sum(cell_s)
        p.parts = {"cells": cell_s}
        p.work = self.trials * len(self.cells)
        p.outputs = estimates
        n = self.trials
        z = [abs(est - cf) / math.sqrt(cf * (1.0 - cf) / n) if judged else 0.0
             for est, cf, judged in zip(estimates, self.closed, self.judged)]
        p.ok = [v <= RACE_Z_MAX for v in z]
        p.stats = {"race.worst_z": max(z)}
        return p

    def close(self):
        pass


WORKLOADS = {w.name: w for w in (ForkrateExport, RelayFanout, RaceGrid)}

# Per-layer metrics, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "chain.ChainStore.insert.calls": "count",
    "chain.ChainStore.insert.self_s": "s",
    "chain.validate_timestamp.calls": "count",
    "chain.validate_timestamp.self_s": "s",
    "chain.median_past_time.calls": "count",
    "chain.median_past_time.self_s": "s",
    "chain.ChainStore.fork_point.calls": "count",
    "chain.retarget.calls": "count",
    "chain.inserts_per_block": "ratio",
    "chain.mpt_per_block": "ratio",
    "sim.run.self_s": "s",
    "sim.useful_draw_ratio": "ratio",
    "analytic.theta_from_difficulty.calls": "count",
    "analytic.theta_from_difficulty.self_s": "s",
    "sim.blocks_created": "count",
    "sim.tip_events": "count",
    "sim.fork_episodes": "count",
    "sim.rejections": "count",
    "sim.export_csv_bytes": "bytes",
    "sim.export_json_bytes": "bytes",
    "sim.rss_after_run_mb": "MB",
    "sim.rss_after_export_mb": "MB",
    "sim.SimTrace.write_csvs.csv.self_s": "s",
    "sim.SimTrace.write_csvs.json.self_s": "s",
    "metrics.race_monte_carlo.calls": "count",
    "metrics.race_monte_carlo.self_s": "s",
    **{f"metrics.race_monte_carlo.q{q!r}.self_s": "s" for q in RACE_QS},
    "metrics.reports.self_s": "s",
    "tracer.call_cost_s": "s",
    "trace_overhead_frac": "fraction",
}

# Simulated statistics and first-pass export figures, 0 where not run.
SIM_STATS = (
    "sim.blocks_created", "sim.tip_events", "sim.fork_episodes", "sim.rejections",
    "sim.export_csv_bytes", "sim.export_json_bytes",
    "sim.rss_after_run_mb", "sim.rss_after_export_mb",
)

# Gated metrics this process measures; run.py adds setup_s.
END_TO_END_UNITS = {
    "total_s": "s",
    "peak_rss_mb": "MB",
}


def load_references(path: str, workload: str, size: str, seed: int):
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        refs = json.load(fh)
    return refs.get("workloads", {}).get(workload, {}).get(size, {}).get(str(seed))


class Checker:
    """Counts operations and failures: structural checks always, exact
    match against the recorded reference when the seed has one, and exact
    repeat of the first pass on every later pass."""

    def __init__(self, reference):
        self.reference = reference
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def check(self, p: Pass) -> None:
        if self.first is None:
            self.first = p.outputs
        for i, (out, ok) in enumerate(zip(p.outputs, p.ok)):
            self.attempted += 1
            why = None
            if not ok:
                why = "structural check failed"
            elif self.reference is not None and out != self.reference[i]:
                why = "differs from the recorded reference"
            elif out != self.first[i]:
                why = "differs from the first pass"
            if why:
                self.failed += 1
                if len(self.problems) < 10:
                    self.problems.append(f"op {i}: {why}")


def _median(values):
    return statistics.median(values) if values else 0.0


def run_phase(work, checker, seconds: float, min_passes: int, tr=None):
    """Closed loop of passes until the next one would overrun `seconds`.
    Returns the passes and, when traced, for each pass its aggregated spans,
    its span count and the wrapper's per-call cost measured after it, and
    the raw spans of the last pass."""
    passes, traced, spans = [], [], []
    start = _clock()
    kernel, reference = work.calibration
    cal_before = kernel()
    while True:
        cpu0 = time.process_time()
        p = work.run_pass(first=not passes and tr is None)
        p.cpu_seconds = time.process_time() - cpu0
        checker.check(p)
        passes.append(p)
        if tr is not None:
            spans = tr.take()
            cost = tracer.call_cost()
            traced.append((*tracer.aggregate(spans, cost), len(spans[0]), cost))
        gc.collect()
        cal_after = kernel()
        p.scale = reference / ((cal_before + cal_after) / 2)
        cal_before = cal_after
        elapsed = _clock() - start
        if len(passes) >= min_passes and elapsed + p.seconds > seconds:
            return passes, traced, spans


def end_to_end(work, passes) -> tuple[dict, dict]:
    """The gated metrics, and the workload-specific figures shown beside them."""
    # A mean, not a median: the host's speed shifts for seconds to minutes
    # at a time, and a mean weighs each stretch of the run by its length
    # where a median jumps with whichever phase holds half the passes.
    pass_s = [p.seconds for p in passes]
    # The peak of the first pass, as one `blocktime simulate` or one grid
    # would reach it in a fresh process.  Resident memory creeps up over
    # later passes in the same process, and in some runs but not others the
    # peak jumps by about 9 MB on the third or a later pass; that whole-run
    # peak is printed beside it.
    gated = {
        "total_s": statistics.fmean(p.seconds * p.scale for p in passes),
        "peak_rss_mb": passes[0].rss_mb,
    }
    extra = {"passes": (len(passes), "count"),
             "peak_rss_run_mb": (_maxrss_mb(), "MB"),
             "total_wall_s": (statistics.fmean(pass_s), "s"),
             "pass_p50_wall_s": (_median(pass_s), "s"),
             "host_speed": (statistics.fmean(p.scale for p in passes), "ratio")}
    if work.name == "race_grid":
        cells = [c for p in passes for c in p.parts["cells"]]
        q = statistics.quantiles(cells, n=4) if len(cells) > 1 else [cells[0]] * 3
        extra["race_trials_per_s"] = (_median([p.work / p.seconds for p in passes]), "1/s")
        extra["race_cell_p50_s"] = (q[1], "s")
        extra["race_cell_p75_s"] = (q[2], "s")
        extra["race_cell_samples"] = (len(cells), "count")
        extra["race_worst_z"] = (max(p.stats["race.worst_z"] for p in passes), "sigma")
    else:
        extra["sim_blocks_per_s"] = (_median([p.work / p.parts["run"] for p in passes]), "1/s")
    if work.name == "forkrate_export":
        for part, name in (("csv", "export_csv_s"), ("json", "export_json_s"),
                           ("reports", "reports_s")):
            extra[name] = (_median([p.parts[part] for p in passes]), "s")
    return gated, extra


def per_layer(work, untraced, traced_passes, traced) -> dict:
    """Per-layer metrics from the traced passes: counts from one pass (they
    must repeat exactly), self times as medians over passes."""
    calls, _, draws, _, _ = traced[0]

    def count(name):
        return calls.get(name, 0)

    def self_s(name):
        return _median([t[1].get(name, 0.0) for t in traced])

    stats = dict.fromkeys(SIM_STATS, 0)
    stats.update((k, v) for k, v in untraced[0].stats.items() if k in stats)
    blocks = stats["sim.blocks_created"]
    race_calls = sum(v for k, v in calls.items() if k.startswith("metrics.race_monte_carlo."))
    values = {
        "chain.ChainStore.insert.calls": count("chain.ChainStore.insert"),
        "chain.ChainStore.insert.self_s": self_s("chain.ChainStore.insert"),
        "chain.validate_timestamp.calls": count("chain.validate_timestamp"),
        "chain.validate_timestamp.self_s": self_s("chain.validate_timestamp"),
        "chain.median_past_time.calls": count("chain.median_past_time"),
        "chain.median_past_time.self_s": self_s("chain.median_past_time"),
        "chain.ChainStore.fork_point.calls": count("chain.ChainStore.fork_point"),
        "chain.retarget.calls": count("chain.retarget"),
        "chain.inserts_per_block": count("chain.ChainStore.insert") / blocks if blocks else 0.0,
        "chain.mpt_per_block": count("chain.median_past_time") / blocks if blocks else 0.0,
        "sim.run.self_s": self_s("sim.run"),
        "sim.useful_draw_ratio": blocks / draws if draws else 0.0,
        "analytic.theta_from_difficulty.calls": count("analytic.theta_from_difficulty"),
        "analytic.theta_from_difficulty.self_s": self_s("analytic.theta_from_difficulty"),
        "sim.SimTrace.write_csvs.csv.self_s": self_s("sim.SimTrace.write_csvs.csv"),
        "sim.SimTrace.write_csvs.json.self_s": self_s("sim.SimTrace.write_csvs.json"),
        "metrics.race_monte_carlo.calls": race_calls,
        "metrics.race_monte_carlo.self_s": sum(
            self_s(f"metrics.race_monte_carlo.q{q!r}") for q in RACE_QS),
        **{f"metrics.race_monte_carlo.q{q!r}.self_s": self_s(f"metrics.race_monte_carlo.q{q!r}")
           for q in RACE_QS},
        "metrics.reports.self_s": _median(
            [sum(t[1].get(n, 0.0) for n in tracer.REPORT_SPANS) for t in traced]),
        "tracer.call_cost_s": _median([sum(t[4]) for t in traced]),
        "trace_overhead_frac": (statistics.fmean(p.seconds * p.scale for p in traced_passes)
                                / statistics.fmean(p.seconds * p.scale for p in untraced) - 1.0),
    }
    values.update(stats)
    return {name: values[name] for name in LAYER_UNITS}


def residual(untraced, traced_passes, traced) -> float:
    """trace_overhead_frac with the measured wrapper cost of every span taken
    out of the traced passes: near 0 when `tracer.call_cost` accounts for
    the overhead."""
    net = statistics.fmean((p.seconds - t[3] * sum(t[4])) * p.scale
                           for p, t in zip(traced_passes, traced))
    return net / statistics.fmean(p.seconds * p.scale for p in untraced) - 1.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--references", default=REFERENCES)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None, help="CSV file for the last traced pass's spans")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    work = WORKLOADS[args.workload](args.seed, args.size)
    ready = time.monotonic()
    scale = CAL_REFERENCE_S / calibrate()
    if args.setup_only:
        print(json.dumps({"ready": ready, "scale": scale}))
        return 0

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(blocktime.__file__).startswith(src + os.sep):
        print(f"blocktime imported from {blocktime.__file__}, not from {src}", file=sys.stderr)
        return 2

    checker = Checker(load_references(args.references, work.name, args.size, args.seed))
    result = {
        "ready": ready,
        "scale": scale,
        "config_sha256": _canonical_sha(work.config_dict),
        "reference": checker.reference is not None,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "blocktime": blocktime.__version__},
    }
    try:
        if args.trace == 0:
            passes, _, _ = run_phase(work, checker, args.seconds, 1)
            gated, extra = end_to_end(work, passes)
            result["metrics"] = {k: [v, END_TO_END_UNITS[k]] for k, v in gated.items()}
            result["extra"] = {k: list(v) for k, v in extra.items()}
            result["pass_seconds"] = [[p.seconds, p.cpu_seconds, p.scale] for p in passes]
        else:
            untraced, _, _ = run_phase(work, checker, args.seconds / 2, 1)
            tr = tracer.Tracer()
            tr.install()
            try:
                traced_passes, traced, spans = run_phase(work, checker, args.seconds / 2, 2, tr)
            finally:
                tr.uninstall()
            counts = [t[0] for t in traced]
            if any(c != counts[0] for c in counts[1:]):
                checker.failed += 1
                checker.problems.append("traced call counts differ between passes")
            layer = per_layer(work, untraced, traced_passes, traced)
            result["metrics"] = {k: [v, LAYER_UNITS[k]] for k, v in layer.items()}
            result["extra"] = {"traced_passes": [len(traced_passes), "count"],
                               "untraced_passes": [len(untraced), "count"],
                               "spans_per_pass": [traced[0][3], "count"],
                               "trace_residual_frac": [residual(untraced, traced_passes, traced),
                                                       "fraction"]}
            result["calls"] = counts[0]
            if args.spans_out:
                tracer.write_spans(spans, args.spans_out)
    finally:
        work.close()
    result["memory_kb"] = memory_status()
    result["attempted"] = checker.attempted
    result["failed"] = checker.failed
    result["problems"] = checker.problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
