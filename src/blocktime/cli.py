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
import dataclasses
import json
import math
import os
import sys
from importlib import resources

from . import analytic, metrics
from .chain import TARGET_SPACING, ConsensusRules, finite_number, write_table
from .sim import CLOCK_ADVISORY, ConfigError, SimConfig, StopRule, run

OUTDIR_ENV = "BLOCKTIME_OUTDIR"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the contract here is 1
    def error(self, message):
        raise _UsageError(message)


# ---- analytic ------------------------------------------------------------

def _flag(name: str) -> str:
    return "--lambda" if name == "lam" else f"--{name.replace('_', '-')}"


def _need(args, names):
    vals = []
    for name in names:
        v = getattr(args, name)
        if v is None:
            raise _UsageError(f"{args.formula} requires {_flag(name)}")
        if isinstance(v, float):
            finite_number(v, _flag(name))
        vals.append(v)
    return vals


def _json_number(x):
    """`x`, or None when it is not finite: strict JSON has no NaN or Infinity."""
    return x if math.isfinite(x) else None


_FORMULAS = {
    "theta-target": (["target"], analytic.theta_from_target),
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
        print(json.dumps({"formula": args.formula, "value": _json_number(value)}))
    else:
        print(f"{value:.12g}")
    return 0


# ---- simulate ------------------------------------------------------------

def _bundled_scenario(name: str) -> str:
    path = resources.files("blocktime") / "scenarios" / f"{name}.json"
    if not path.is_file():
        raise ConfigError(f"config not found: {name} (not a file and not a bundled scenario)")
    return str(path)


def _resolve_config(path_or_name: str) -> str:
    # only a file is a path: a directory of the same name (an earlier run's
    # --outdir, say) never shadows the bundled scenario
    return path_or_name if os.path.isfile(path_or_name) else _bundled_scenario(path_or_name)


def cmd_simulate(args) -> int:
    cfg = SimConfig.from_json(_resolve_config(args.config))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    trace = run(cfg)
    written = trace.write_csvs(args.outdir, args.format)
    s = trace.summary()
    print(f"simulate: config={args.config} seed={s.pop('seed')}")
    for key, value in s.items():
        label = key.replace("_", " ") + ":"
        spec = ".12g" if isinstance(value, float) else ""
        print(f"  {label:<18}{value:{spec}}")
    for w in trace.warnings:
        print(f"  advisory: node {w.node} offset {w.offset:+.0f}s: {CLOCK_ADVISORY}")
    if args.reports:
        written.append(_emit_reports(trace, args.outdir, args.format))
    for path in written:
        print(f"  wrote {path}")
    return 0


def _emit_reports(trace, outdir, fmt) -> str:
    """Confront the trace with the closed forms and write reports.<fmt>."""
    reports = metrics.trace_reports(trace)
    for rep in reports:
        print(f"  {rep}")
    path = os.path.join(outdir, f"reports.{fmt}")
    metrics.write_reports(reports, path, fmt)
    return path


# ---- race ------------------------------------------------------------------

def cmd_race(args) -> int:
    # the race checks its own inputs, so it runs before anything is printed
    estimate = metrics.race_monte_carlo(args.q, args.k, args.trials, args.seed, args.step_cap)
    step_cap = metrics.default_step_cap(args.q, args.k) if args.step_cap is None else args.step_cap
    closed = analytic.catchup_probability(args.q, args.k)
    z = metrics.binomial_report("race", closed, estimate, args.trials).z
    note = None
    if args.q >= 0.5:
        note = "q >= p: the attacker catches up almost surely; closed form is the limit 1"
    if args.format == "json":
        print(json.dumps({
            "q": args.q, "k": args.k, "trials": args.trials, "seed": args.seed,
            "step_cap": step_cap, "estimate": estimate, "closed_form": closed,
            "z": _json_number(z), "note": note,
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
    for name in ("lam", "step", "horizon"):
        finite_number(getattr(args, name), _flag(name))
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

def retarget_demo_config(interval: int, epochs: int, factor: float, seed: int) -> SimConfig:
    """The retarget-demo network: the bundled retarget scenario retargeting
    every `interval` blocks, stopped after `epochs` windows, its hash rate
    times `factor` from height `interval`."""
    return dataclasses.replace(
        SimConfig.from_json(_bundled_scenario("retarget")),
        rules=ConsensusRules(retarget_interval=interval),
        stop=StopRule(blocks=epochs * interval),
        seed=seed, hashrate_steps=[[interval, factor]])


def cmd_retarget_demo(args) -> int:
    interval = args.interval
    cfg = retarget_demo_config(interval, args.epochs, args.factor, args.seed)
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
    # the flags several commands share, declared once
    fmt = _Parser(add_help=False)
    fmt.add_argument("--format", choices=("csv", "json"), default="csv")
    outdir = _Parser(add_help=False)
    outdir.add_argument("--outdir", default=os.environ.get(OUTDIR_ENV, "."))
    top = _Parser(prog="blocktime",
                  description="Block-timing analytics, simulation, and cross-checks.")
    sub = top.add_subparsers(dest="subcommand", required=True)

    pa = sub.add_parser("analytic", parents=[fmt], help="evaluate a closed-form quantity")
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
    pa.set_defaults(func=cmd_analytic)

    ps = sub.add_parser("simulate", parents=[fmt, outdir],
                        help="run a scenario config and emit trace files")
    ps.add_argument("--config", required=True,
                    help="path to a scenario JSON, or a bundled scenario name "
                         "(baseline, fig2, retarget, forkrate)")
    ps.add_argument("--seed", type=int, default=None, help="override the config seed")
    ps.add_argument("--reports", action="store_true",
                    help="also confront the trace with the closed forms (reports.<format>)")
    ps.set_defaults(func=cmd_simulate)

    pr = sub.add_parser("race", parents=[fmt],
                        help="Monte Carlo the catch-up race against the closed form")
    pr.add_argument("--q", type=float, required=True)
    pr.add_argument("--k", type=int, required=True)
    pr.add_argument("--trials", type=int, default=1_000_000)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--step-cap", type=int, default=None)
    pr.set_defaults(func=cmd_race)

    pe = sub.add_parser("entropy", parents=[fmt, outdir], help="emit the discovery-entropy curve")
    pe.add_argument("--lambda", dest="lam", type=float, default=1.0 / TARGET_SPACING,
                    help="arrival rate (default 1/600)")
    pe.add_argument("--step", type=float, default=1.0)
    pe.add_argument("--horizon", type=float, default=3600.0)
    pe.set_defaults(func=cmd_entropy)

    pd = sub.add_parser("retarget-demo", parents=[fmt, outdir],
                        help="single-miner scenario with a hash-rate step at the first boundary")
    pd.add_argument("--interval", type=int, default=2016)
    pd.add_argument("--epochs", type=int, default=3)
    pd.add_argument("--factor", type=float, default=2.0)
    pd.add_argument("--seed", type=int, default=0)
    pd.set_defaults(func=cmd_retarget_demo)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # anything else is a fault of the run, not of its inputs
        print(f"runtime error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
