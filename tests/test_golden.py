"""Golden values that are not trace files, edited here by hand when a
change is meant to move one (CHANGES.md says why): the sha256 of the
entropy curve the CLI writes at its defaults, the stdout of a simulate run
with a clock advisory, and the exact floats race_monte_carlo returns for a
set of (q, k, trials, seed, step_cap).  Trace bytes are pinned by the
corpus alone (tests/corpus.py).

The race pins cover step caps that are not multiples of 8 or 64, q >= 0.5,
trial counts that are not multiples of the batch size and the near-critical
q = 0.45; they were recorded with the int8 prefix-sum kernel that preceded
the packed tables.
"""

import hashlib
import json

import pytest

from blocktime.cli import main
from blocktime.metrics import race_monte_carlo

# name: (argv without --outdir, {file name: sha256}) of the entropy curve
GOLDEN = {
    "entropy-csv": (["entropy"], {
        "entropy.csv": "85c952b789892ebf5fe1abcb7edd7df372f52a91a21a2c082f178f77e2793fa4"}),
    "entropy-json": (["entropy", "--format", "json"], {
        "entropy.json": "fc872ccc823be824dad00a21da4b9e8cc41874f52c399a808f63e44855a4bd8e"}),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes(name, tmp_path, capsys):
    argv, digests = GOLDEN[name]
    out = tmp_path / "out"
    assert main(argv + ["--outdir", str(out)]) == 0
    capsys.readouterr()
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == digests


# A miner whose clock is 900 s behind gets the ten-minute advisory; the
# --seed flag overrides the config's seed and --reports prints the
# comparisons.  The outdir is not part of the pin.
ADVISORY_CONFIG = {
    "miners": [
        {"id": 0, "share": 0.6, "clock_offset": -900.0},
        {"id": 1, "share": 0.4, "clock_offset": 45.0},
    ],
    "nodes": 3,
    "delay": {"fixed": 120.0},
    "rules": {"retarget_interval": 16},
    "initial_difficulty": 1.0,
    "nominal_hashrate": 2**32 / 600,
    "stop": {"blocks": 60},
    "seed": 4,
}

ADVISORY_STDOUT = """\
simulate: config=<config> seed=9
  blocks created:   64
  canonical height: 60
  fork episodes:    4
  max reorg depth:  1
  final difficulty: 1.00172946881
  rejections:       0
  agreement:        True
  advisory: node 0 offset -900s: local clock differs from network time by more than 10 minutes
  fork_rate: analytic=0.0175231 empirical=0.0666667 n=60 stderr=0.0169 z=+2.90  \
[under-powered: expected events 1.05 < 10]
  multi_discovery_window_rate: analytic=0.0175231 empirical=0.0223642 n=313 stderr=0.00742 \
z=+0.65  [under-powered: expected events 5.48 < 10]
  tail_frequency: analytic=3.88018e-05 empirical=0 n=60 stderr=0.000804 z=-0.05  \
[under-powered: expected events 0.00 < 10]
  wrote <outdir>/blocks.csv
  wrote <outdir>/tip_changes.csv
  wrote <outdir>/forks.csv
  wrote <outdir>/difficulty.csv
  wrote <outdir>/reports.csv
"""


def test_advisory_stdout(tmp_path, capsys):
    config = tmp_path / "advisory.json"
    config.write_text(json.dumps(ADVISORY_CONFIG))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--seed", "9", "--reports",
                 "--outdir", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.replace(str(out), "<outdir>").replace(str(config), "<config>") == ADVISORY_STDOUT


# (q, k, trials, seed, step_cap): the exact estimate
RACE_PINS = {
    (0.3, 4, 65_537, 1, 101): 0.034041838961197494,
    (0.3, 6, 70_001, 2, 151): 0.0067570463279096014,
    (0.6, 3, 65_537, 3, 101): 0.9917603796328791,
    (0.6, 3, 65_537, 9, 5): 0.3734379053054,
    (0.6, 12, 70_001, 8, 61): 0.6325909629862431,
    (0.6, 12, 131_072, 10, 101): 0.8786773681640625,
    (0.45, 8, 70_001, 5, None): 0.2004971357552035,
    (0.45, 8, 65_536, 22, None): 0.2014007568359375,
    (0.1, 1, 1_000, 6, 13): 0.112,
    (0.2, 2, 200_000, 7, None): 0.063455,
}


@pytest.mark.parametrize("call", sorted(RACE_PINS, key=repr), ids=repr)
def test_race_estimate(call):
    assert race_monte_carlo(*call) == RACE_PINS[call]
