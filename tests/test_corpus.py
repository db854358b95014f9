"""The byte-identity gate: every corpus config (tests/corpus.py) still
produces the bytes tests/corpus_digests.json pins, the CLI writes the files
the corpus hashes, and the inline networks reach the paths they are for."""

import itertools
import json
from collections import Counter
from pathlib import Path

import pytest

import corpus
from blocktime import sim
from blocktime.chain import validate_timestamp
from blocktime.cli import main
from blocktime.sim import SimConfig, run

CONFIGS = corpus.configs()


def test_corpus_digests_unchanged():
    recorded = json.loads(corpus.DIGESTS.read_text())
    now = corpus.digests()
    assert list(now) == list(recorded)
    moved = [name for name in now if now[name] != recorded[name]]
    assert not moved, f"{len(moved)} of {len(now)} corpus digests moved: {moved[:10]}"


# The CLI writes the files the corpus hashes, so the digests pin them too, on
# each branch on which `main` writes trace files: simulate by bundled name
# and by config file, with and without --reports, and retarget-demo, as
# (argv without --format and --outdir, the corpus config it runs).
BRANCHES = {
    "name": (["simulate", "--config", "fig2"], "fig2-4"),
    "name-reports": (["simulate", "--config", "fig2", "--reports"], "fig2-4"),
    "file": (["simulate", "--config", "inline.json"], "golden-inline"),
    "file-reports": (["simulate", "--config", "inline.json", "--reports"], "golden-inline"),
    "retarget-demo": (["retarget-demo", "--interval", "64", "--epochs", "3"], "retarget-demo-64x3"),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("branch", sorted(BRANCHES))
def test_cli_writes_the_corpus_files(branch, fmt, tmp_path, monkeypatch):
    argv, name = BRANCHES[branch]
    monkeypatch.chdir(tmp_path)
    Path("inline.json").write_text(json.dumps(corpus.INLINE_CONFIG))
    assert main(argv + ["--format", fmt, "--outdir", "cli"]) == 0
    paths = [Path(p) for p in corpus.write_files(run(CONFIGS[name]), "lib", fmt)]
    if "--reports" not in argv:
        paths.pop()  # the reports table comes last
    want = {p.name: p.read_bytes() for p in paths}
    assert {p.name: p.read_bytes() for p in Path("cli").iterdir()} == want


def test_inline_config_reaches_its_paths():
    trace = run(SimConfig.from_dict(corpus.INLINE_CONFIG))
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
    trace = run(SimConfig.from_dict(corpus.RELEASE_CONFIG))
    released = [[b for _, b in group][1:]
                for _, group in itertools.groupby(validated, key=lambda v: v[0])]
    assert max(map(len, released)) >= 2
    assert any(len({b.parent for b in r}) < len(r) for r in released)  # siblings
    rejected = {(r.node, r.block) for r in trace.rejections}
    assert {reason for *_, reason in trace.rejections} == {"future"}
    # a block never reaches its own miner's node by delivery, so a child of a
    # block node n rejected was delivered to n and parked there
    assert any((n, b.parent) in rejected for b in trace.blocks
               for n in range(corpus.RELEASE_CONFIG["nodes"])
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
    trace = run(SimConfig.from_dict(corpus.DURATION_CONFIG))
    horizon = corpus.DURATION_CONFIG["stop"]["duration"]
    past = [i for i, (kind, now) in enumerate(handled) if kind == "found" and now > horizon]
    assert past  # a discovery popped past the horizon ...
    assert any(kind == "deliver" for kind, _ in handled[past[0]:])  # ... and deliveries ran on
    assert max(b.found_at for b in trace.blocks) <= horizon
    assert any(e.time > horizon for e in trace.tip_events)
