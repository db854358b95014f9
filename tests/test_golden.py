"""Golden bytes: the sha256 of every file the CLI writes for the bundled
fig2, baseline and retarget scenarios (CSV and JSON, plus reports.csv for
each), for the forkrate scenario cut to 2,000 blocks with reports, for a
short retarget-demo and for the entropy curve at its defaults; the same
for three small inline networks that reach paths no bundled scenario does
(one of them stops on a duration); the stdout of a simulate run with a
clock advisory; and the exact floats race_monte_carlo returns for a set
of (q, k, trials, seed, step_cap).

Criterion 9 only compares two runs of the same code; these digests pin the
output of an earlier commit, so a refactor that changes any output byte
fails here.  When a change is meant to alter an output, record the new
digests and say in CHANGES.md why they moved.  The race pins cover step
caps that are not multiples of 8 or 64, q >= 0.5, trial counts that are
not multiples of the batch size and the near-critical q = 0.45; they were
recorded with the int8 prefix-sum kernel that preceded the packed tables.
"""

import hashlib
import itertools
import json
from collections import Counter
from importlib import resources

import pytest

from blocktime import sim
from blocktime.chain import validate_timestamp
from blocktime.cli import main
from blocktime.metrics import race_monte_carlo
from blocktime.sim import SimConfig, run

# The forkrate scenario cut to 2,000 blocks: two miners, one fixed delay,
# retargeting off, so its reports hold the fork_episode_rate row.
FORKRATE_2000 = {
    **json.loads((resources.files("blocktime") / "scenarios" / "forkrate.json").read_text()),
    "stop": {"blocks": 2000},
}

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
    "rules": {"retarget_interval": 8},
    "initial_difficulty": 1.0,
    "nominal_hashrate": 2**32 / 600,
    "hashrate_steps": [[20, 3.0]],
    "stop": {"blocks": 64},
    "seed": 2,
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
    "rules": {"retarget_interval": 8},
    "initial_difficulty": 1.0,
    "nominal_hashrate": 2**32 / 120,
    "stop": {"blocks": 48},
    "seed": 8,
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
    "rules": {"retarget_interval": 8},
    "initial_difficulty": 1.0,
    "nominal_hashrate": 2**32 / 300,
    "stop": {"duration": 12000.0},
    "seed": 1,
}

# name: (argv without --outdir, {file name: sha256}); a dict in argv is a
# config, written to a file whose path takes its place
GOLDEN = {
    "fig2-csv": (
        ["simulate", "--config", "fig2"],
        {
            "blocks.csv": "e87625650aeec30e19e61365b4282607b8d419b90fbf9634f9fb0734d29aeee8",
            "difficulty.csv": "a1b5238176f568ed8d9938937365fae4a8bdf9fad4b0600e8b24a2f022e9874e",
            "forks.csv": "145faf69100a1162491fb3f7fdca720dcb5a3050beb9302e7742a79ee05fa321",
            "tip_changes.csv": "68f65efdf00a75a21569e65e0313fae5edf3dcb2695b6ea5f63da2c749f8288b",
        },
    ),
    # per-pair delays: the fork_rate row carries its heterogeneous-delay warning
    "fig2-reports": (
        ["simulate", "--config", "fig2", "--reports"],
        {
            "blocks.csv": "e87625650aeec30e19e61365b4282607b8d419b90fbf9634f9fb0734d29aeee8",
            "difficulty.csv": "a1b5238176f568ed8d9938937365fae4a8bdf9fad4b0600e8b24a2f022e9874e",
            "forks.csv": "145faf69100a1162491fb3f7fdca720dcb5a3050beb9302e7742a79ee05fa321",
            "reports.csv": "f66bc5412f1321b2fc8906f08df64281ef7c420b7a7388bce3d17cac757202c8",
            "tip_changes.csv": "68f65efdf00a75a21569e65e0313fae5edf3dcb2695b6ea5f63da2c749f8288b",
        },
    ),
    "fig2-json": (
        ["simulate", "--config", "fig2", "--format", "json"],
        {
            "blocks.json": "a643536b95bcaa27554483fd858dba0b1b2a2202e0542f4c8cd7dc8b94eb6c2a",
            "difficulty.json": "20590ab7eb4a192791587008d6303ede1c45487044f0ea8cd1ebabf4b4cf0c31",
            "forks.json": "717fa25664828a82b7932ff0261959a8c8ab14e934264123a402faf118e6c8ea",
            "tip_changes.json": "d683b5fca24dcf6d49b4a065940e97cb3d1705fec6aa6977e65b5ecb984c3ae7",
        },
    ),
    "baseline-csv": (
        ["simulate", "--config", "baseline", "--reports"],
        {
            "blocks.csv": "db3010723e4dc07b0672d3ac16ebfae73af7f812747473fc5b24b7e994195d64",
            "difficulty.csv": "a1b5238176f568ed8d9938937365fae4a8bdf9fad4b0600e8b24a2f022e9874e",
            "forks.csv": "852fb5ff4758ce0f68e738611ebd7756b9bc5786e5bfd0ebe029a6d7608661b2",
            "reports.csv": "c07681ba490252a68e0327f230a793a763475c025b30ab78d4d411ae3484a602",
            "tip_changes.csv": "84107ec7e3c1cd912e30c7b9a010135faf6a0ce174dc19717bc858ab0e85ae1f",
        },
    ),
    "baseline-json": (
        ["simulate", "--config", "baseline", "--format", "json"],
        {
            "blocks.json": "63ac6ec277701f013c2fd70dcb474b1104c63f0261fadda3d3b2fc3b6108ff42",
            "difficulty.json": "20590ab7eb4a192791587008d6303ede1c45487044f0ea8cd1ebabf4b4cf0c31",
            "forks.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
            "tip_changes.json": "184f26c7da5ce6febe08d390465212b23fd39cdfdf9ee59feac383a32bcff069",
        },
    ),
    "retarget-csv": (
        ["simulate", "--config", "retarget"],
        {
            "blocks.csv": "48a24e971cd86891f1ef8447dba1d4d1b88962fff2928d72b4dbf2eb5a3c88a4",
            "difficulty.csv": "25ffdbcd61558a252bcae8fc3287af3407f5abbc97b76473404761106d7ac7e2",
            "forks.csv": "852fb5ff4758ce0f68e738611ebd7756b9bc5786e5bfd0ebe029a6d7608661b2",
            "tip_changes.csv": "a73907c544726a097095eeb211702d0e5dd11c350cc4598f6a064201442f6ee1",
        },
    ),
    # zero delay: the tail row alone
    "retarget-reports": (
        ["simulate", "--config", "retarget", "--reports"],
        {
            "blocks.csv": "48a24e971cd86891f1ef8447dba1d4d1b88962fff2928d72b4dbf2eb5a3c88a4",
            "difficulty.csv": "25ffdbcd61558a252bcae8fc3287af3407f5abbc97b76473404761106d7ac7e2",
            "forks.csv": "852fb5ff4758ce0f68e738611ebd7756b9bc5786e5bfd0ebe029a6d7608661b2",
            "reports.csv": "41f6763858d471a8462a5413210dd2fab8f90abde4c8f1a0b9653588b9b07b81",
            "tip_changes.csv": "a73907c544726a097095eeb211702d0e5dd11c350cc4598f6a064201442f6ee1",
        },
    ),
    "retarget-json": (
        ["simulate", "--config", "retarget", "--format", "json"],
        {
            "blocks.json": "fdb6bdaeb08e41e791f2f88463984f9a28ec85ba34c73c13631b41bf14a87c2d",
            "difficulty.json": "af2a8e0ba39a588d921d4e754d1296b661f0984e341ece03f2d1a6e43be1e2bd",
            "forks.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
            "tip_changes.json": "190e5ec15c01e60daa14e5335dd69a11f4c2e8053658173f0456c8dea19078a4",
        },
    ),
    # two miners on one fixed delay: the fork_episode_rate row
    "forkrate-2000-reports": (
        ["simulate", "--config", FORKRATE_2000, "--reports"],
        {
            "blocks.csv": "f40ae15f88c5fcb8c918149ec3ecae72c25e97eee4ddef213c3ebd06d48f8bab",
            "difficulty.csv": "a1b5238176f568ed8d9938937365fae4a8bdf9fad4b0600e8b24a2f022e9874e",
            "forks.csv": "b0f36680b6f5090271a93a63bd634152b5de8dd7ea5ab6f1b63b1246ffb57a65",
            "reports.csv": "464463e1da4fd68ce43174d0f2710e7858178924d09a69a65f10d82a489ff8fb",
            "tip_changes.csv": "c09895fcf689ad662c8fe07996a5ac42bb6d8610c9dee86b1addb5b1fd11b180",
        },
    ),
    "retarget-demo-csv": (
        ["retarget-demo", "--interval", "64", "--epochs", "3"],
        {
            "blocks.csv": "629e210f16810141ef75eb31320c3d1f103004165d27e67a957d6704bea44384",
            "difficulty.csv": "321c1de1639dd442544ba387e9329aac53b353102d0adb56592cd0d0c4c5057d",
            "forks.csv": "852fb5ff4758ce0f68e738611ebd7756b9bc5786e5bfd0ebe029a6d7608661b2",
            "tip_changes.csv": "e91c8549c4349e8b2f776920346be7b501565cf4d3597217996cd853d8e81c53",
        },
    ),
    "retarget-demo-json": (
        ["retarget-demo", "--interval", "64", "--epochs", "3", "--format", "json"],
        {
            "blocks.json": "afd1abf3b6e3d464fae1c9a6d2aae5d63a931c66623cc6a2d9bb90eb09acdf57",
            "difficulty.json": "966131d99737f7ae7ce787d97b62b4d586b50b6d2a67f6dcb58c99a39b6c5b2c",
            "forks.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
            "tip_changes.json": "e08bea668c6fb017d66cd0ad6385f256dd2ec66b50b85dafd2ee8ec806c096e4",
        },
    ),
    "entropy-csv": (
        ["entropy"],
        {
            "entropy.csv": "85c952b789892ebf5fe1abcb7edd7df372f52a91a21a2c082f178f77e2793fa4",
        },
    ),
    "entropy-json": (
        ["entropy", "--format", "json"],
        {
            "entropy.json": "fc872ccc823be824dad00a21da4b9e8cc41874f52c399a808f63e44855a4bd8e",
        },
    ),
    "inline-csv": (
        ["simulate", "--config", INLINE_CONFIG],
        {
            "blocks.csv": "54bfcea0a5c455563d84a1126c234676ae445d2c893857c2abed178f71f7c01f",
            "difficulty.csv": "f013fef78ab59c58c788362fd7ca3c6464a0478c68d8725e58bcc70b9bc04bf6",
            "forks.csv": "d8cba6fe0bd0c0f62c0e1e826c9ae19d2a263abd3b9eedd75dfd4b543a1ccab5",
            "tip_changes.csv": "50d9dec5e353c65e931501c0633f280a337ff2aad5d2769072fa78c7976bdbac",
        },
    ),
    "inline-json": (
        ["simulate", "--config", INLINE_CONFIG, "--format", "json"],
        {
            "blocks.json": "f4ca41f31026cf061ade78f59dba0fb2b584d2fed34f6fd82cb82dc28dae720e",
            "difficulty.json": "c0e8b4190400dea1d49ace3d23b3ba70b98a1f6145fb87436d873fff1fa27d00",
            "forks.json": "8e38f3bc917662d20e0fdabf0213d8eace63e22ccbcbf5ef299683f1cdd0851c",
            "tip_changes.json": "a8b2fb6b55a301796780d84e7b3cffab1ba98c3e1897781932468a7c2316fdec",
        },
    ),
    "release-csv": (
        ["simulate", "--config", RELEASE_CONFIG],
        {
            "blocks.csv": "438b00cba371f4dcb3f3b0b59709fc069de2457818e5bfd5aa02ab375d553cef",
            "difficulty.csv": "29777c27a5004b8a54b01f51977f4c1dd9ef329d6cbc30f57d43cea639624ae1",
            "forks.csv": "3febf25bd2bbb3e3870ff98c10b0d0e71536f52ac28a3a83bbafd1b22a589833",
            "tip_changes.csv": "8635a3ac1dfd1e134b893e09edcd558d5e9c5596d93be0ebc204b23ae8249acf",
        },
    ),
    "release-json": (
        ["simulate", "--config", RELEASE_CONFIG, "--format", "json"],
        {
            "blocks.json": "6bcfa385a990f8c89ed8a37c3ee539b1cf47cb2fcb706a44d56cbafab81c45ae",
            "difficulty.json": "dcf1d7ba4156fca76e1e01cef59f3f0e6aa7601e730b8d127a57432e2a6cfa05",
            "forks.json": "7c4f3b2aceb1ae9afd379ab4362269241f55ed23583361d9e87a5725350b9885",
            "tip_changes.json": "947d44841646a4378f8d4664e513381dc72dfc908bd9f6101a4141aaa209f21f",
        },
    ),
    "duration-csv": (
        ["simulate", "--config", DURATION_CONFIG],
        {
            "blocks.csv": "e01663405db2e8355c60d46833b52135114f4a7caa487bfc12518c401fb98634",
            "difficulty.csv": "91fcad927493920d6d0a029d1edccd3d60b131ac428b9569fc3152ab189eea20",
            "forks.csv": "cda8718895167653eb2962656093e198132e710a471c4a239a663f00d03cae2f",
            "tip_changes.csv": "0f61a7bc0f8e62ae5ae9e10f2b28b264962b0267dc08ec5318d548d44f1f5075",
        },
    ),
    "duration-json": (
        ["simulate", "--config", DURATION_CONFIG, "--format", "json"],
        {
            "blocks.json": "a9182b430ae2f89fed0341fdfdf9db58ebecae70f0b166cc034c96693351b4da",
            "difficulty.json": "c429bbc2813815b2c527c63925de897d9923746f877d19be418bb9ab2260100a",
            "forks.json": "598d0899041dacec9855775cfbb27fd3c8be5cd4e452270ec7c4cddd9ade32e6",
            "tip_changes.json": "7971ddbbc9162752480bf9418278df5ae4bec71e5659b86142ab9992e0f1c7ec",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes(name, tmp_path, capsys):
    argv, digests = GOLDEN[name]
    config = tmp_path / "config.json"
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            config.write_text(json.dumps(arg))
            argv = argv[:i] + [str(config)] + argv[i + 1:]
    out = tmp_path / "out"
    assert main(argv + ["--outdir", str(out)]) == 0
    capsys.readouterr()
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == digests


def test_inline_config_reaches_its_paths():
    trace = run(SimConfig.from_dict(INLINE_CONFIG))
    assert {r.reason for r in trace.rejections} == {"future"}
    boundary = Counter(b.height for b in trace.blocks if b.height and b.height % 8 == 0)
    assert max(boundary.values()) >= 2  # rival boundary blocks at one height
    assert len(trace.difficulty_history) - 1 == sum(boundary.values())


def test_release_config_reaches_its_paths(monkeypatch):
    # every validation of one delivery sees the same local clock, so a run
    # of equal clocks is one delivered block plus the parked ones it released
    validated = []

    def logged(block, store, local_clock):
        validated.append((local_clock, block))
        return validate_timestamp(block, store, local_clock)

    monkeypatch.setattr(sim, "validate_timestamp", logged)
    trace = run(SimConfig.from_dict(RELEASE_CONFIG))
    released = [[b for _, b in group][1:]
                for _, group in itertools.groupby(validated, key=lambda v: v[0])]
    assert max(map(len, released)) >= 2
    assert any(len({b.parent for b in r}) < len(r) for r in released)  # siblings
    rejected = {(r.node, r.block) for r in trace.rejections}
    assert {reason for *_, reason in trace.rejections} == {"future"}
    # a block never reaches its own miner's node by delivery, so a child of a
    # block node n rejected was delivered to n and parked there
    assert any((n, b.parent) in rejected for b in trace.blocks
               for n in range(RELEASE_CONFIG["nodes"])
               if n != b.miner)


def test_duration_config_reaches_its_paths(monkeypatch):
    # every handler call in pop order, as (kind, event time)
    handled = []
    found, deliver = sim._Engine.handle_found, sim._Engine.handle_deliver

    def logged_found(self, now, *args):
        handled.append(("found", now))
        return found(self, now, *args)

    def logged_deliver(self, now, *args):
        handled.append(("deliver", now))
        return deliver(self, now, *args)

    monkeypatch.setattr(sim._Engine, "handle_found", logged_found)
    monkeypatch.setattr(sim._Engine, "handle_deliver", logged_deliver)
    trace = run(SimConfig.from_dict(DURATION_CONFIG))
    horizon = DURATION_CONFIG["stop"]["duration"]
    past = [i for i, (kind, now) in enumerate(handled) if kind == "found" and now > horizon]
    assert past  # a discovery popped past the horizon ...
    assert any(kind == "deliver" for kind, _ in handled[past[0]:])  # ... and deliveries ran on
    assert max(b.found_at for b in trace.blocks) <= horizon
    assert any(e.time > horizon for e in trace.tip_events)


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
