"""Batch command-line front end.

Subcommands:
  analytic       evaluate one closed-form quantity and print it
  simulate       run a scenario config, emit the four trace files
  race           Monte Carlo catch-up race vs the closed form
  entropy        emit the block-interval entropy curve
  retarget-demo  canned hash-rate-step scenario showing the feedback loop

Every command is a pure function of (arguments, config bytes, seed):
re-running reproduces output files byte for byte, and the seed behind any
number is printed next to it.  Exit codes: 0 success, 1 usage or config
error, 2 runtime failure.
"""

import argparse
import json
import math
import os
import sys
from importlib import resources

from . import analytic, metrics
from .analytic import DIFFICULTY_ONE_SCALE
from .chain import write_table
from .sim import ConfigError, SimConfig, run

OUTDIR_ENV = "BLOCKTIME_OUTDIR"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the contract here is 1
    def error(self, message):
        raise _UsageError(message)


def _default_outdir():
    return os.environ.get(OUTDIR_ENV, ".")


# ---- analytic ------------------------------------------------------------

def _need(args, names):
    vals = []
    for name in names:
        v = getattr(args, name)
        if v is None:
            raise _UsageError(f"{args.formula} requires --{name.replace('_', '-')}")
        vals.append(v)
    return vals


_FORMULAS = {
    "theta-target": (["target"], lambda t: analytic.theta_from_target(t)),
    "theta-difficulty": (["difficulty"], analytic.theta_from_difficulty),
    "arrival-rate": (["hashrate", "theta"], analytic.arrival_rate),
    "expected-trials": (["hashrate", "t"], analytic.expected_trials),
    "discovery-cdf": (["lam", "t"], analytic.discovery_cdf),
    "entropy": (["p"], analytic.bernoulli_entropy),
    "entropy-peak": (["lam"], analytic.entropy_peak_time),
    "tail": (["lam", "threshold"], analytic.interval_tail_probability),
    "fork": (["lam", "tau"], analytic.fork_probability),
    "catchup": (["q", "k"], analytic.catchup_probability),
    "hashrate": (["lam", "difficulty"], analytic.infer_hashrate),
}


def cmd_analytic(args) -> int:
    names, fn = _FORMULAS[args.formula]
    value = fn(*_need(args, names))
    if args.format == "json":
        print(json.dumps({"formula": args.formula, "value": value}))
    else:
        print(f"{value:.12g}")
    return 0


# ---- simulate ------------------------------------------------------------

def _resolve_config(path_or_name: str):
    if os.path.exists(path_or_name):
        return path_or_name
    bundled = resources.files("blocktime") / "scenarios" / f"{path_or_name}.json"
    if bundled.is_file():
        return str(bundled)
    raise ConfigError(f"config not found: {path_or_name} "
                      f"(not a file and not a bundled scenario)")


def cmd_simulate(args) -> int:
    cfg = SimConfig.from_json(_resolve_config(args.config))
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.validate()
    trace = run(cfg)
    written = trace.write_csvs(args.outdir, args.format)
    s = trace.summary()
    print(f"simulate: config={args.config} seed={s['seed']}")
    print(f"  blocks created:   {s['blocks_created']}")
    print(f"  canonical height: {s['canonical_height']}")
    print(f"  fork episodes:    {s['fork_episodes']}")
    print(f"  max reorg depth:  {s['max_reorg_depth']}")
    print(f"  final difficulty: {s['final_difficulty']:.12g}")
    print(f"  rejections:       {s['rejections']}")
    print(f"  agreement:        {s['agreement']}")
    for w in trace.warnings:
        print(f"  advisory: node {w.node} offset {w.offset:+.0f}s: {w.message}")
    if args.reports:
        written.append(_emit_reports(trace, args.outdir))
    for path in written:
        print(f"  wrote {path}")
    return 0


def _emit_reports(trace, outdir) -> str:
    """Confront the trace with the closed forms and write reports.csv."""
    reports = []
    if trace.config.delay.max_delay() > 0:
        reports.append(metrics.fork_rate(trace))
        try:
            reports.append(metrics.fork_episode_rate(trace))
        except ValueError:
            pass  # the trace lies outside the per-block form's derived setting
        reports.append(metrics.multi_discovery_window_rate(trace))
    deltas = trace.canonical_deltas()
    if deltas.size >= 2:
        reports.append(metrics.tail_frequency(deltas, 6360.0))
    for rep in reports:
        print(f"  {rep}")
    if deltas.size >= 100:
        print(f"  {metrics.exponentiality_diagnostic(deltas)}")
    path = os.path.join(outdir, "reports.csv")
    metrics.write_reports_csv(reports, path)
    return path


# ---- race ------------------------------------------------------------------

def cmd_race(args) -> int:
    if not 0 <= args.q < 1:
        raise _UsageError("--q must lie in [0, 1)")
    if args.k < 0:
        raise _UsageError("--k must be nonnegative")
    if args.trials < 1:
        raise _UsageError("--trials must be at least 1")
    if args.step_cap is not None and args.step_cap < 1:
        raise _UsageError("--step-cap must be at least 1")
    step_cap = metrics.default_step_cap(args.q, args.k) if args.step_cap is None else args.step_cap
    estimate = metrics.race_monte_carlo(args.q, args.k, args.trials, args.seed, step_cap)
    closed = analytic.catchup_probability(args.q, args.k)
    stderr = math.sqrt(closed * (1.0 - closed) / args.trials)
    z = (estimate - closed) / stderr if stderr > 0 else (0.0 if estimate == closed else math.inf)
    note = None
    if args.q >= 0.5:
        note = "q >= p: the attacker catches up almost surely; closed form is the limit 1"
    if args.format == "json":
        print(json.dumps({
            "q": args.q, "k": args.k, "trials": args.trials, "seed": args.seed,
            "step_cap": step_cap, "estimate": estimate, "closed_form": closed,
            "z": z, "note": note,
        }))
    else:
        print(f"race q={args.q:.12g} k={args.k} trials={args.trials} "
              f"seed={args.seed} step_cap={step_cap}")
        print(f"  estimate    = {estimate:.12g}")
        print(f"  closed form = {closed:.12g}")
        print(f"  z           = {z:+.3f}" if math.isfinite(z) else f"  z           = {z}")
        if note:
            print(f"  note: {note}")
    return 0


# ---- entropy ----------------------------------------------------------------

def cmd_entropy(args) -> int:
    if args.lam is None:
        args.lam = 1.0 / 600.0
    curve = metrics.entropy_trajectory(args.lam, args.step, args.horizon)
    os.makedirs(args.outdir, exist_ok=True)
    path = os.path.join(args.outdir, f"entropy.{args.format}")
    write_table(path, ("t", "p", "entropy_bits"), curve, args.format)
    peak = analytic.entropy_peak_time(args.lam)
    print(f"entropy curve: lambda={args.lam:.12g} step={args.step:.12g} "
          f"horizon={args.horizon:.12g} peak_t={peak:.12g}")
    print(f"  wrote {path}")
    return 0


# ---- retarget-demo ----------------------------------------------------------

def cmd_retarget_demo(args) -> int:
    interval = args.interval
    cfg = SimConfig.from_dict({
        "miners": [{"id": 0, "share": 1.0}],
        "nodes": 1,
        "delay": {"fixed": 0.0},
        "rules": {"retarget_interval": interval},
        "initial_difficulty": 1.0,
        "nominal_hashrate": DIFFICULTY_ONE_SCALE / 600.0,
        "stop": {"blocks": args.epochs * interval},
        "seed": args.seed,
        "retarget_enabled": True,
        "hashrate_steps": [[interval, args.factor]],
    })
    trace = run(cfg)
    written = trace.write_csvs(args.outdir, args.format)
    print(f"retarget-demo: seed={cfg.seed} interval={interval} epochs={args.epochs} "
          f"hashrate x{args.factor:.12g} at height {interval}")
    for h, d in trace.difficulty_history:
        print(f"  height {h:>8}: difficulty {d:.12g}")
    for path in written:
        print(f"  wrote {path}")
    return 0


# ---- wiring -------------------------------------------------------------------

def build_parser() -> _Parser:
    top = _Parser(prog="blocktime",
                  description="Block-timing analytics, simulation, and cross-checks.")
    sub = top.add_subparsers(dest="subcommand", required=True)

    pa = sub.add_parser("analytic", parents=[], help="evaluate a closed-form quantity")
    pa.add_argument("formula", choices=sorted(_FORMULAS))
    pa.add_argument("--target", type=lambda s: int(s, 0), default=None,
                    help="256-bit target threshold (decimal or 0x hex)")
    pa.add_argument("--difficulty", type=float, default=None)
    pa.add_argument("--hashrate", type=float, default=None, help="hashes per second")
    pa.add_argument("--theta", type=float, default=None, help="per-hash success probability")
    pa.add_argument("--lambda", dest="lam", type=float, default=None,
                    help="arrival rate, blocks per second")
    pa.add_argument("--t", type=float, default=None, help="elapsed seconds")
    pa.add_argument("--tau", type=float, default=None, help="propagation window, seconds")
    pa.add_argument("--threshold", type=float, default=None, help="interval threshold, seconds")
    pa.add_argument("--q", type=float, default=None, help="attacker hash-rate share")
    pa.add_argument("--k", type=int, default=None, help="confirmation depth")
    pa.add_argument("--p", type=float, default=None, help="success probability")
    pa.add_argument("--format", choices=("csv", "json"), default="csv")
    pa.set_defaults(func=cmd_analytic)

    ps = sub.add_parser("simulate", help="run a scenario config and emit trace files")
    ps.add_argument("--config", required=True,
                    help="path to a scenario JSON, or a bundled scenario name "
                         "(baseline, fig2, retarget, forkrate)")
    ps.add_argument("--outdir", default=None)
    ps.add_argument("--seed", type=int, default=None, help="override the config seed")
    ps.add_argument("--format", choices=("csv", "json"), default="csv")
    ps.add_argument("--reports", action="store_true",
                    help="also confront the trace with the closed forms (reports.csv)")
    ps.set_defaults(func=cmd_simulate)

    pr = sub.add_parser("race", help="Monte Carlo the catch-up race against the closed form")
    pr.add_argument("--q", type=float, required=True)
    pr.add_argument("--k", type=int, required=True)
    pr.add_argument("--trials", type=int, default=1_000_000)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--step-cap", type=int, default=None)
    pr.add_argument("--format", choices=("csv", "json"), default="csv")
    pr.set_defaults(func=cmd_race)

    pe = sub.add_parser("entropy", help="emit the discovery-entropy curve")
    pe.add_argument("--lambda", dest="lam", type=float, default=None,
                    help="arrival rate (default 1/600)")
    pe.add_argument("--step", type=float, default=1.0)
    pe.add_argument("--horizon", type=float, default=3600.0)
    pe.add_argument("--outdir", default=None)
    pe.add_argument("--format", choices=("csv", "json"), default="csv")
    pe.set_defaults(func=cmd_entropy)

    pd = sub.add_parser("retarget-demo",
                        help="single-miner scenario with a hash-rate step at the first boundary")
    pd.add_argument("--interval", type=int, default=2016)
    pd.add_argument("--epochs", type=int, default=3)
    pd.add_argument("--factor", type=float, default=2.0)
    pd.add_argument("--seed", type=int, default=0)
    pd.add_argument("--outdir", default=None)
    pd.add_argument("--format", choices=("csv", "json"), default="csv")
    pd.set_defaults(func=cmd_retarget_demo)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "outdir", "") is None:
            args.outdir = _default_outdir()
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # anything else is a fault of the run, not of its inputs
        print(f"runtime error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
