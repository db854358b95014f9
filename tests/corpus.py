"""The byte-identity corpus: one sha256 per small config over everything a
run produces.

`configs()` draws CONFIGS networks, config i from numpy's
`default_rng((2026, i))` and nothing else, so every process draws the same
configs whatever else runs: 1-3 miners, up to 5 nodes, fixed or per-pair
delays, skewed clocks (some past the clock advisory) and stamps (some past
the future bound), retargets every 4 or 8 blocks, an optional hash-rate
step, block or duration stops.  The bundled scenarios follow, each at a
reduced stop, and then the three inline networks of tests/test_golden.py,
whose orphan releases (several parked children of one parent) the random
part seldom reaches.  `digest(config)` hashes every SimTrace field, `summary()`,
the files `write_csvs` writes in both formats and the reports table in both
formats.  tests/corpus_digests.json holds the digests of a tree whose
output bytes are known good (numpy 2.4.6); tests/test_corpus.py recomputes
them.  A change meant to move an output byte records them again and says
why in CHANGES.md:

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

from blocktime import metrics
from blocktime.sim import SimConfig, run
from test_golden import DURATION_CONFIG, INLINE_CONFIG, RELEASE_CONFIG

DIGESTS = Path(__file__).with_name("corpus_digests.json")
CONFIGS = 400
H600 = 2**32 / 600  # hash rate putting difficulty-1 arrivals at 1/600 per second

# (bundled scenario, stop) pairs: each scenario cut short enough to run in
# a few milliseconds, retarget past its first 2016-block window
BUNDLED = (("baseline", 300), ("fig2", 4), ("forkrate", 600), ("retarget", 2100))


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
    for name, d in (("inline", INLINE_CONFIG), ("release", RELEASE_CONFIG),
                    ("duration", DURATION_CONFIG)):
        out[f"golden-{name}"] = SimConfig.from_dict(d)
    return out


def digest(config: SimConfig, scratch: str) -> str:
    """sha256 over one run of `config`: each SimTrace field's repr (tip
    events as their rows), `summary()`, and the bytes of every file the
    trace and its reports write in CSV and JSON, written under `scratch`."""
    trace = run(config)
    h = hashlib.sha256()
    for f in dataclasses.fields(trace):
        value = getattr(trace, f.name)
        if f.name == "tip_events":
            value = list(value)
        h.update(f"{f.name}={value!r}\n".encode())
    h.update(repr(trace.summary()).encode())
    reports = metrics.trace_reports(trace)
    for fmt in ("csv", "json"):
        paths = trace.write_csvs(scratch, fmt)
        paths.append(os.path.join(scratch, f"reports.{fmt}"))
        metrics.write_reports(reports, paths[-1], fmt)
        for path in paths:
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
    path = parser.parse_args(argv).record
    Path(path).write_text(json.dumps(digests(), indent=1) + "\n")


if __name__ == "__main__":
    main()
