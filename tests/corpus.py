"""The byte-identity corpus, the one pin of trace bytes: one sha256 per
config over everything a run produces.

`configs()` draws CONFIGS networks, config i from numpy's
`default_rng((2026, i))` and nothing else, so every process draws the same
configs whatever else runs: 1-3 miners, up to 5 nodes, fixed or per-pair
delays, skewed clocks (some past the clock advisory) and stamps (some past
the future bound), retargets every 4 or 8 blocks, an optional hash-rate
step, block or duration stops.  The bundled scenarios follow (BUNDLED),
then `blocktime retarget-demo --interval 64 --epochs 3`, then three inline
networks that reach paths the random part seldom does.  `digest(config)`
hashes every SimTrace field, `summary()` and the files `write_files`
writes in both formats.  tests/corpus_digests.json holds the digests of a
tree whose output bytes are known good (numpy 2.4.6); tests/test_corpus.py
recomputes them.  A change meant to move an output byte records them again,
and says in CHANGES.md which moved (the recorder prints their names) and why:

    PYTHONPATH=src python tests/corpus.py --record [PATH]

PATH defaults to tests/corpus_digests.json.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

from blocktime import cli, metrics
from blocktime.sim import SimConfig, run

DIGESTS = Path(__file__).with_name("corpus_digests.json")
CONFIGS = 400
H600 = 2**32 / 600  # hash rate putting difficulty-1 arrivals at 1/600 per second

# (bundled scenario, stop) pairs: each scenario at its own stop but forkrate,
# cut to 2,000 blocks (two miners on one fixed delay, so its reports hold
# the fork_episode_rate row)
BUNDLED = (("baseline", 1000), ("fig2", 4), ("forkrate", 2000), ("retarget", 6048))

# Per-pair delays; a fixed_skew miner 7260 s ahead, whose blocks node 0,
# 30 s away, rejects as "future"; retargets every 8 blocks across a
# hash-rate step, so boundary blocks land on competing branches.
INLINE_CONFIG = {
    "miners": [
        {"id": 0, "share": 0.45},
        {"id": 1, "share": 0.35, "clock_offset": -120.0},
        {"id": 2, "share": 0.2, "strategy": {"fixed_skew": 7260.0}},
    ],
    "nodes": 4,
    "delay": {"per_pair": [
        [0.0, 90.0, 20.0, 150.0],
        [60.0, 0.0, 200.0, 40.0],
        [30.0, 180.0, 0.0, 75.0],
        [120.0, 45.0, 10.0, 0.0],
    ]},
    "rules": {"retarget_interval": 8}, "initial_difficulty": 1.0,
    "nominal_hashrate": 2**32 / 600,
    "hashrate_steps": [[20, 3.0]],
    "stop": {"blocks": 64}, "seed": 2,
}

# Node 4 hears miner 0 only after 300 s but miner 1 within 5 s, so blocks
# built on miner 0's wait in its pending pool and one delivery releases a
# chain of them that forks into two siblings; a fixed_skew miner 7230 s
# ahead is rejected as "future" by node 3 (clock 60 s behind), which then
# parks that block's child for good.  Pins the release order.
RELEASE_CONFIG = {
    "miners": [
        {"id": 0, "share": 0.4},
        {"id": 1, "share": 0.3, "clock_offset": 90.0},
        {"id": 2, "share": 0.2, "strategy": {"fixed_skew": 7230.0}},
        {"id": 3, "share": 0.1, "clock_offset": -60.0},
    ],
    "nodes": 5,
    "delay": {"per_pair": [
        [0.0, 10.0, 40.0, 25.0, 300.0],
        [15.0, 0.0, 20.0, 35.0, 5.0],
        [50.0, 8.0, 0.0, 60.0, 30.0],
        [20.0, 45.0, 70.0, 0.0, 15.0],
        [100.0, 12.0, 80.0, 55.0, 0.0],
    ]},
    "rules": {"retarget_interval": 8}, "initial_difficulty": 1.0,
    "nominal_hashrate": 2**32 / 120,
    "stop": {"blocks": 48}, "seed": 8,
}

# Stops on a duration, not on blocks: per-pair delays up to 500 s, a node
# that does not mine, and a horizon that falls while blocks are still in
# flight, so the run drains deliveries after discoveries stop.
DURATION_CONFIG = {
    "miners": [
        {"id": 0, "share": 0.5},
        {"id": 1, "share": 0.3, "clock_offset": 30.0},
        {"id": 2, "share": 0.2},
    ],
    "nodes": 4,
    "delay": {"per_pair": [
        [0.0, 240.0, 60.0, 400.0],
        [90.0, 0.0, 300.0, 150.0],
        [200.0, 45.0, 0.0, 500.0],
        [80.0, 120.0, 30.0, 0.0],
    ]},
    "rules": {"retarget_interval": 8}, "initial_difficulty": 1.0,
    "nominal_hashrate": 2**32 / 300,
    "stop": {"duration": 12000.0}, "seed": 1,
}


def _draw(i: int) -> dict:
    """Config i of the random part, as a dict."""
    rng = np.random.default_rng((2026, i))

    def pick(options):
        return options[int(rng.integers(len(options)))]

    m = int(rng.integers(1, 4))
    n = int(rng.integers(m, 6))
    weights = [int(w) for w in rng.integers(1, 5, size=m)]
    miners = []
    for j, w in enumerate(weights):
        miner = {"id": j, "share": w / sum(weights),
                 "clock_offset": pick([0.0, -150.0, 90.0, -900.0])}
        if rng.integers(2):
            miner["strategy"] = {"fixed_skew": pick([-3000.0, 7150.0, 7300.0])}
        miners.append(miner)
    if rng.integers(2):
        delay = {"fixed": pick([0.0, 20.0, 200.0])}
    else:
        delay = {"per_pair": [[0.0 if a == b else pick([5.0, 60.0, 240.0]) for b in range(n)]
                              for a in range(n)]}
    if rng.integers(2):
        stop = {"blocks": int(rng.integers(5, 41))}
    else:
        stop = {"duration": float(rng.uniform(3000.0, 20000.0))}
    steps = [[int(rng.integers(2, 21)), pick([0.5, 3.0])]] if rng.integers(2) else []
    return {
        "miners": miners, "nodes": n, "delay": delay,
        "rules": {"retarget_interval": pick([4, 8])},
        "initial_difficulty": 1.0, "nominal_hashrate": H600, "stop": stop,
        "seed": int(rng.integers(2**32)), "retarget_enabled": bool(rng.integers(2)),
        "hashrate_steps": steps,
    }


def configs() -> dict[str, SimConfig]:
    """Every corpus config by name, in digest-file order."""
    out = {f"random-{i:03d}": SimConfig.from_dict(_draw(i)) for i in range(CONFIGS)}
    for name, blocks in BUNDLED:
        d = json.loads((resources.files("blocktime") / "scenarios" / f"{name}.json").read_text())
        out[f"{name}-{blocks}"] = SimConfig.from_dict({**d, "stop": {"blocks": blocks}})
    out["retarget-demo-64x3"] = cli.retarget_demo_config(64, 3, 2.0, 0)
    for name, d in (("inline", INLINE_CONFIG), ("release", RELEASE_CONFIG),
                    ("duration", DURATION_CONFIG)):
        out[f"golden-{name}"] = SimConfig.from_dict(d)
    return out


def write_files(trace, outdir: str, fmt: str) -> list[str]:
    """Write the trace's files and its reports table in `fmt` under `outdir`,
    as `blocktime simulate --reports` does; return their paths."""
    paths = trace.write_csvs(outdir, fmt)
    paths.append(os.path.join(outdir, f"reports.{fmt}"))
    metrics.write_reports(metrics.trace_reports(trace), paths[-1], fmt)
    return paths


def digest(config: SimConfig, scratch: str) -> str:
    """sha256 over one run of `config`: each SimTrace field's repr (tip
    events as their rows), `summary()`, and the bytes of every file
    `write_files` writes under `scratch` in CSV and JSON."""
    trace = run(config)
    h = hashlib.sha256()
    for f in dataclasses.fields(trace):
        value = getattr(trace, f.name)
        if f.name == "tip_events":
            value = list(value)
        h.update(f"{f.name}={value!r}\n".encode())
    h.update(repr(trace.summary()).encode())
    for fmt in ("csv", "json"):
        for path in write_files(trace, scratch, fmt):
            h.update(os.path.basename(path).encode() + b"\n")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def digests() -> dict[str, str]:
    """The digest of every corpus config, by name."""
    with tempfile.TemporaryDirectory() as scratch:
        return {name: digest(config, scratch) for name, config in configs().items()}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Record the corpus digests.")
    parser.add_argument("--record", metavar="PATH", nargs="?", const=str(DIGESTS),
                        required=True, help=f"write the digests to PATH (default {DIGESTS})")
    path = Path(parser.parse_args(argv).record)
    old = json.loads(path.read_text()) if path.exists() else {}
    new = digests()
    path.write_text(json.dumps(new, indent=1) + "\n")
    moved = [name for name in {**old, **new} if old.get(name) != new.get(name)]
    print(f"{len(moved)} of {len(new)} digests moved{':' if moved else ''}", *moved, sep="\n  ")


if __name__ == "__main__":
    main()
