"""Tests for the discrete-event simulator."""

import copy
import csv
import dataclasses
import functools
import gc
import json
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from blocktime import sim
from blocktime.chain import BLOCK_CSV_FIELDS, Block, ChainStore, block_row, make_genesis, retarget
from blocktime.sim import (CLOCK_WARN_OFFSET, ConfigError, DelayModel, ForkEpisode, MinerSpec,
                           SimConfig, SimTrace, StopRule, TipEvents, run)
from corpus import H600, INLINE_CONFIG


def cfg(**overrides):
    base = {
        "miners": [{"id": 0, "share": 1.0}],
        "nodes": 1,
        "delay": {"fixed": 0.0},
        "initial_difficulty": 1.0,
        "nominal_hashrate": H600,
        "stop": {"blocks": 200},
        "seed": 0,
        "retarget_enabled": False,
    }
    base.update(overrides)
    return SimConfig.from_dict(base)


HUGE = 10**400  # a JSON integer beyond the float range
UNPRINTABLE = 10**5000  # past Python's int-to-str digit limit: its repr raises


def nested(depth):
    """A list nested `depth` deep; repr raises RecursionError on a deep one."""
    value = []
    for _ in range(depth):
        value = [value]
    return value


def config_file(directory, config) -> str:
    """Write `config` (raw bytes, or a document as JSON) to directory/config.json;
    return its path."""
    path = directory / "config.json"
    path.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
    return str(path)


baseline = functools.partial(corpus.scenario, "baseline")
DEEP = b'{"miners": ' + b"[" * 100_000  # past the decoder's depth
FINITE = "{} must be a finite number, got an integer beyond the float range"
STEP_REFUSAL = "hashrate steps need positive height and factor"
SLOW = ("hash rate too low: node 0's miner, at its slowest rate of {} blocks/s, can take past "
        "2**53 s to find {} block(s)")

# Every refused config, by id: (config, the ConfigError message).  A config is
# a document for SimConfig.from_dict (mostly the bundled baseline with
# overrides) or raw file bytes for SimConfig.from_json.  An id `group/name`
# puts a row in a group, whose test below pins its message; test_refusal_messages
# pins the rows with no group.  test_cli.py runs each row through
# `blocktime simulate --config`, which prints that message.
REFUSED = {
    # numbers that are not whole, finite or numbers at all
    "seed-fractional": (baseline(seed=1.7), "seed must be an integer, got 1.7"),
    "stop.blocks-fractional": (baseline(stop={"blocks": 2.5}),
                               "stop.blocks must be an integer, got 2.5"),
    "rules.retarget_interval-fractional": (baseline(rules={"retarget_interval": 2.5}),
                                           "retarget_interval must be an integer, got 2.5"),
    "nominal_hashrate-inf": (baseline(nominal_hashrate=math.inf),
                             "nominal_hashrate must be a finite number, got inf"),
    "delay.fixed-nan": (baseline(delay={"fixed": math.nan}),
                        "delay must be a finite number, got nan"),
    "seed-boolean": (baseline(seed=True), "seed must be a number, got True"),
    "seed/negative": (baseline(seed=-1), "seed must be a 64-bit unsigned integer"),
    "seed/past-64-bits": (baseline(seed=2**64), "seed must be a 64-bit unsigned integer"),
    # JSON integers beyond the float range, for each number read as a float
    "huge/share": (baseline(miners=[{"id": 0, "share": HUGE}]), FINITE.format("share")),
    "huge/clock_offset": (baseline(miners=[{"id": 0, "share": 1.0, "clock_offset": HUGE}]),
                          FINITE.format("clock_offset")),
    "huge/skew": (baseline(miners=[{"id": 0, "share": 1.0, "strategy": {"fixed_skew": HUGE}}]),
                  FINITE.format("skew")),
    "huge/delay.fixed": (baseline(delay={"fixed": HUGE}), FINITE.format("delay")),
    "huge/per_pair": (baseline(nodes=2, delay={"per_pair": [[0.0, HUGE], [1.0, 0.0]]}),
                      FINITE.format("delay")),
    "huge/initial_difficulty": (baseline(initial_difficulty=HUGE),
                                FINITE.format("initial_difficulty")),
    "huge/nominal_hashrate": (baseline(nominal_hashrate=HUGE), FINITE.format("nominal_hashrate")),
    "huge/stop.duration": (baseline(stop={"duration": HUGE}), FINITE.format("stop.duration")),
    "huge/hashrate step factor": (baseline(hashrate_steps=[[10, HUGE]]),
                                  FINITE.format("hashrate step factor")),
    # the node count, which a tip event stores as int32
    "nodes-1e308": (baseline(nodes=1e308),
                    "nodes must be at most 2**31: a tip event stores its node as int32"),
    "nodes-past-int32": (baseline(nodes=2**31 + 1),
                         "nodes must be at most 2**31: a tip event stores its node as int32"),
    # the section checks
    "share-above-one": (baseline(miners=[{"id": 0, "share": 1.5}]),
                        "miner 0: share must be in (0, 1]"),
    "duplicate-miner-ids": (baseline(miners=[{"id": 3, "share": 0.5}, {"id": 3, "share": 0.5}],
                                     nodes=2), "miner ids must be unique"),
    "matrix-size": (baseline(nodes=3, delay={"per_pair": [[0.0, 1.0], [1.0, 0.0]]}),
                    "per-pair delay matrix size must match node count"),
    "delay/unknown-key": (baseline(delay={"fixed": 1.0, "gossip": 2.0}),
                          "unknown delay keys: ['gossip']"),
    "delay/neither-key": (baseline(delay={}), "delay must be {'fixed': tau} or {'per_pair': "
                          "matrix}, got DelayModel(fixed=None, per_pair=None)"),
    "delay/both-keys": (baseline(delay={"fixed": 1.0, "per_pair": [[0.0]]}),
                        "delay must be {'fixed': tau} or {'per_pair': matrix}, got "
                        "DelayModel(fixed=1.0, per_pair=[[0.0]])"),
    "delay/negative": (baseline(delay={"fixed": -1.0}), "delay must be nonnegative"),
    "delay/empty-matrix": (baseline(delay={"per_pair": []}),
                           "per-pair delay matrix must be square and nonempty"),
    "rules-interval-zero": (baseline(rules={"retarget_interval": 0}),
                            "retarget_interval must be at least 1, got 0"),
    "rules-bogus": (baseline(rules={"bogus": 1}), "unknown consensus rule keys: ['bogus']"),
    "rules-mpt-window": (baseline(rules={"mpt_window": 11}),
                         "unknown consensus rule keys: ['mpt_window']"),
    "zero-duration": (baseline(stop={"duration": 0}), "stop duration must be positive"),
    "zero-hashrate": (baseline(nominal_hashrate=0.0), "nominal hash rate must be positive"),
    "step-height": (baseline(hashrate_steps=[[0, 2.0]]), STEP_REFUSAL),
    "step-factor": (baseline(hashrate_steps=[[10, -1.0]]), STEP_REFUSAL),
    "initial_difficulty-1e308": (baseline(initial_difficulty=1e308), "initial difficulty: "
                                 "difficulty 1e+308 gives theta 0.0 outside (0, 1]"),
    # the rate rule: each of these overflowed the clock or took the
    # difficulty out of theta's domain mid-run before it
    "rate/crash-at-50": (baseline(nominal_hashrate=1e-298, seed=0, stop={"blocks": 50}),
                         SLOW.format(2.328306436538696e-308, 50)),
    "rate/float-stamps-at-5": (baseline(nominal_hashrate=1e-298, seed=0, stop={"blocks": 5}),
                               SLOW.format(2.328306436538696e-308, 5)),
    "rate/high-difficulty": (baseline(nominal_hashrate=1e-300, initial_difficulty=1e10,
                                      stop={"blocks": 3}), SLOW.format(2.3285e-320, 3)),
    "rate/tiny-step": (baseline(hashrate_steps=[[2, 1e-320]], stop={"blocks": 5}),
                       SLOW.format(1.5e-323, 5)),
    "rate/retarget-drift": (baseline(nominal_hashrate=1e-280, retarget_enabled=True,
                                     rules={"retarget_interval": 2}, stop={"blocks": 40}),
                            "retargets can take the difficulty out of range: difficulty "
                            "9.094947017729282e-13 gives theta 256.0 outside (0, 1]"),
    "rate/lagging-clock": (baseline(miners=[{"id": 0, "share": 1.0,
                                             "strategy": {"fixed_skew": -1e16}}],
                                    retarget_enabled=True, rules={"retarget_interval": 2},
                                    stop={"blocks": 50}),
                           SLOW.format(1.4802973661668755e-18, 50)),
    # shapes: a config, section or entry that is not a JSON object, an
    # array that is not one, unknown or missing keys
    "object/null": (None, "a config must be a JSON object, got None"),
    "object/number": (5, "a config must be a JSON object, got 5"),
    "object/list": (["miners"], "a config must be a JSON object, got ['miners']"),
    "object/empty-list": ([], "a config must be a JSON object, got []"),
    "object/string": ("miners", "a config must be a JSON object, got 'miners'"),
    "missing-delay-no-miners": ({"miners": []}, "missing config key: delay"),
    "missing-delay": ({"miners": [{"id": 0, "share": 1.0}]}, "missing config key: delay"),
    "miner/number": (baseline(miners=[5]), "a miner must be a JSON object, got 5"),
    "miner/unknown-key": (baseline(miners=[{"id": 0, "share": 1.0, "clock_ofset": -5000}]),
                          "unknown miner keys: ['clock_ofset']"),
    "miner/skew-key": (baseline(miners=[{"id": 0, "share": 1.0, "skew": 10.0}]),
                       "unknown miner keys: ['skew']"),
    **{f"strategy/{name}": (baseline(miners=[{"id": 0, "share": 1.0, "strategy": name}]),
                            f"strategy must be 'honest' or {{'fixed_skew': s}}, got {name!r}")
       for name in ("greedy", "fixed_skew")},  # the bare name gives no skew
    **{f"retarget_enabled/{value}": (baseline(retarget_enabled=value),
                                     f"retarget_enabled must be true or false, got {value!r}")
       for value in ("false", 0, None)},
    **{f"section/{key}-{kind}": (baseline(**{key: value}),
                                 f"{key} must be a JSON object, got {value!r}")
       for key in ("rules", "delay", "stop")
       for kind, value in (("number", 5), ("null", None), ("list", ["retarget_interval"]))},
    "miners-number": (baseline(miners=5), "miners must be a JSON array, got 5"),
    "steps-number": (baseline(hashrate_steps=5), "hashrate_steps must be a JSON array, got 5"),
    "step-triple": (baseline(hashrate_steps=[[1, 2, 3]]),
                    "hashrate_steps entry must be a JSON array of 2, got [1, 2, 3]"),
    "per-pair-number": (baseline(delay={"per_pair": 5}), "per_pair must be a JSON array, got 5"),
    "per-pair-row-number": (baseline(delay={"per_pair": [5]}),
                            "per_pair row must be a JSON array, got 5"),
    # file contents that do not decode to a JSON document
    "file/not-json": (b"{not json", "config is not valid JSON: Expecting property name "
                      "enclosed in double quotes: line 1 column 2 (char 1)"),
    "file/not-utf8": (b"\xff" + json.dumps(baseline()).encode(),
                      "config is not UTF-8: byte 0xff at offset 0"),
    "file/deep-open": (DEEP, "config nests arrays or objects too deeply to decode"),
    "file/deep-closed": (DEEP + b"]" * 100_000 + b"}",
                         "config nests arrays or objects too deeply to decode"),
    "file/long-integer-literal": (
        json.dumps(baseline()).replace('"seed": 1', '"seed": 1' + "0" * 5000).encode(),
        "config holds an integer literal of more than 4300 digits"),
}


def refusals(group=""):
    """REFUSED's rows with ids `group/<name>`, by name; by default, those with no group."""
    return {key.rpartition("/")[2]: row for key, row in REFUSED.items()
            if key.rpartition("/")[0] == group}


def pins(group=""):
    """Parametrize a test by the (config, message) rows of `group`."""
    rows = refusals(group)
    return pytest.mark.parametrize("config, message", rows.values(), ids=rows)


def assert_refused(config, message, directory):
    """from_dict refuses a document, or from_json a file of bytes, with `message`."""
    with pytest.raises(ConfigError) as refused:
        if isinstance(config, bytes):
            SimConfig.from_json(config_file(directory, config))
        else:
            SimConfig.from_dict(config)
    assert str(refused.value) == message


class TestConfigValidation:
    def test_shares_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            cfg(miners=[{"id": 0, "share": 0.6}, {"id": 1, "share": 0.6}])

    def test_at_least_one_miner(self):
        with pytest.raises(ConfigError):
            cfg(miners=[])

    def test_nodes_cover_miners(self):
        with pytest.raises(ConfigError):
            cfg(miners=[{"id": 0, "share": 0.5}, {"id": 1, "share": 0.5}], nodes=1)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            cfg(bogus=True)
        # keys of mixed types do not compare with each other; both are named
        with pytest.raises(ConfigError, match=r"^unknown config keys: \['x', 1\]$"):
            SimConfig.from_dict({"miners": [], 1: 2, "x": 3})

    def test_delay_matrix_shape(self):
        with pytest.raises(ConfigError):
            cfg(delay={"per_pair": [[0.0, 1.0]]})
        with pytest.raises(ConfigError):
            cfg(delay={"per_pair": [[0.0, -1.0], [1.0, 0.0]]},
                miners=[{"id": 0, "share": 0.5}, {"id": 1, "share": 0.5}], nodes=2)

    def test_stop_rule(self):
        with pytest.raises(ConfigError):
            StopRule(blocks=10, duration=1.0)
        with pytest.raises(ConfigError):
            StopRule()
        with pytest.raises(ConfigError):
            cfg(stop={"blocks": 0})

    @pytest.mark.parametrize("difficulty", [0.0, 1e-12, 1e308])
    def test_initial_difficulty_gives_theta_in_unit_interval(self, difficulty):
        with pytest.raises(ConfigError):
            cfg(initial_difficulty=difficulty)

    @pytest.mark.parametrize("key, value", [
        ("miners", [{"id": 0, "share": True}]),
        ("nodes", True),
        ("seed", True),
        ("delay", {"fixed": False}),
        ("initial_difficulty", True),
        ("seed", "7"),
        ("nominal_hashrate", "7158278.8"),
        ("initial_difficulty", "1"),
        ("nodes", [2]),
    ], ids=["share", "nodes", "seed", "delay", "initial_difficulty", "seed-string",
            "nominal_hashrate-string", "initial_difficulty-string", "nodes-list"])
    def test_booleans_are_not_numbers(self, key, value):
        # nor are strings, which float() and int() would parse
        name = {"miners": "share"}.get(key, key)
        with pytest.raises(ConfigError, match=f"{name} must be a number"):
            cfg(**{key: value})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", [
        "nominal_hashrate", "clock_offset", "skew", "tau", "matrix", "duration", "step factor",
    ])
    def test_validate_rejects_non_finite(self, field, bad):
        # a section built in code gets the checks from_dict applies to JSON
        base = cfg(miners=[{"id": 0, "share": 1.0}], nodes=2)
        build = {
            "nominal_hashrate": lambda: dataclasses.replace(base, nominal_hashrate=bad),
            "clock_offset": lambda: MinerSpec(0, 1.0, clock_offset=bad),
            "skew": lambda: MinerSpec(0, 1.0, skew=bad),
            "tau": lambda: DelayModel(fixed=bad),
            "matrix": lambda: DelayModel(per_pair=[[0.0, 1.0], [bad, 0.0]]),
            "duration": lambda: StopRule(duration=bad),
            "step factor": lambda: dataclasses.replace(base, hashrate_steps=[(10, bad)]),
        }[field]
        with pytest.raises(ConfigError, match="finite"):
            build()

    @pytest.mark.parametrize("build, error", [
        (lambda c: DelayModel(fixed=-500.0), ConfigError),
        (lambda c: DelayModel(per_pair=[[0.0, -1.0], [1.0, 0.0]]), ConfigError),
        (lambda c: DelayModel(per_pair=[[0.0, 1.0], [1.0]]), ConfigError),
        (lambda c: DelayModel(fixed=1.0, per_pair=[[0.0]]), ConfigError),
        (lambda c: DelayModel(), ConfigError),
        (lambda c: dataclasses.replace(c, nodes=2.5), ConfigError),
        (lambda c: dataclasses.replace(c, seed="7"), ConfigError),
        (lambda c: setattr(c.stop, "blocks", 0), dataclasses.FrozenInstanceError),
        (lambda c: setattr(c.rules, "retarget_interval", 0), dataclasses.FrozenInstanceError),
        (lambda c: setattr(c.miners[0], "share", 0.3), dataclasses.FrozenInstanceError),
    ], ids=["negative-tau", "negative-matrix", "ragged-matrix", "both-keys", "neither-key",
            "fractional-nodes", "string-seed", "stop-blocks", "retarget-interval", "share"])
    def test_no_invalid_config_exists(self, build, error):
        # built in code or changed after the fact, an invalid config cannot
        # reach run: every section checks itself when built and is frozen
        with pytest.raises(error):
            build(cfg())

    @pytest.mark.parametrize("overrides", [
        {"miners": UNPRINTABLE},
        {"miners": [{"id": 0, "share": 1.0, "strategy": UNPRINTABLE}]},
        {"miners": [{"id": UNPRINTABLE, "share": 1.5}]},
        {"stop": UNPRINTABLE},
        {"delay": {"fixed": 1.0, "per_pair": [[UNPRINTABLE]]}},
        {"retarget_enabled": UNPRINTABLE},
        {"hashrate_steps": [[UNPRINTABLE]]},
        {"delay": nested(100_000)},
    ], ids=["miners", "strategy", "miner-id", "stop", "delay", "retarget_enabled",
            "hashrate-step", "delay-nested-deep"])
    def test_unprintable_values_are_config_errors(self, overrides):
        # the message names the value's type instead of failing to print it
        with pytest.raises(ConfigError, match="<(int|list|DelayModel) too large to print>"):
            cfg(**overrides)

    @pins()
    def test_refusal_messages(self, config, message, tmp_path):
        assert_refused(config, message, tmp_path)

    @pins("huge")
    def test_huge_integers_are_not_finite(self, config, message, tmp_path):
        assert_refused(config, message, tmp_path)

    @pins("delay")
    def test_delay_messages(self, config, message, tmp_path):
        assert_refused(config, message, tmp_path)

    @pins("retarget_enabled")
    def test_retarget_enabled_must_be_boolean(self, config, message, tmp_path):
        assert_refused(config, message, tmp_path)

    def test_seed_range(self, tmp_path):
        for row in refusals("seed").values():
            assert_refused(*row, tmp_path)

    def test_config_must_be_an_object(self, tmp_path):
        for row in refusals("object").values():
            assert_refused(*row, tmp_path)

    @pytest.mark.parametrize("kind", ["number", "null", "list"], ids=["5", "None", "value2"])
    def test_sections_must_be_objects(self, kind, tmp_path):
        for key in ("rules", "delay", "stop"):
            assert_refused(*refusals("section")[f"{key}-{kind}"], tmp_path)

    def test_miner_entries(self, tmp_path):
        for row in refusals("miner").values():
            assert_refused(*row, tmp_path)

    def test_bad_strategy(self, tmp_path):
        for row in refusals("strategy").values():
            assert_refused(*row, tmp_path)

    def test_delay_model_helpers(self):
        assert DelayModel(fixed=3.0).max_delay() == 3.0
        m = DelayModel(per_pair=[[0.0, 2.0], [5.0, 0.0]])
        assert m.delay(1, 0) == 5.0
        assert m.max_delay() == 5.0


# a valid config that sets every key, with a fixed skew and a per-pair matrix
FUZZ_BASE = {
    "miners": [{"id": 0, "share": 0.25, "clock_offset": -90.0},
               {"id": 1, "share": 0.75, "strategy": {"fixed_skew": 30.0}}],
    "nodes": 2,
    "delay": {"per_pair": [[0.0, 5.0], [7.0, 0.0]]},
    "rules": {"retarget_interval": 8},
    "initial_difficulty": 1.0,
    "nominal_hashrate": H600,
    "stop": {"blocks": 20},
    "seed": 3,
    "retarget_enabled": True,
    "hashrate_steps": [[4, 2.0]],
}
FUZZ_ATOMS = st.sampled_from([
    None, True, False, "", "x", "honest", math.nan, math.inf, -math.inf, HUGE, -HUGE, 2**64,
    UNPRINTABLE, 0, -1, 0.5, 2.5, 1e308, [], [[]], [[0.0, 1.0], [2.0]], [1, 2, 3], {}, {"fixed": 1.0, "x": 2},
    {"fixed_skew": "x"}, [{"id": 0}],
]).map(copy.deepcopy)  # a later mutation must not edit the shared atom


def _paths(doc, path=()):
    """Every path into a JSON document, the root included."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


@settings(max_examples=300)
@given(st.data())
def test_from_dict_builds_a_config_or_raises_config_error(data):
    """A mutated config -- keys dropped, unknown keys added, values
    swapped for atoms of every JSON type and shape -- either builds or is
    refused with ConfigError, and nothing else.  Configs are only built,
    never run: a valid one may ask for up to 2**31 nodes."""
    doc = copy.deepcopy(FUZZ_BASE)
    for _ in range(data.draw(st.integers(1, 4))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = data.draw(FUZZ_ATOMS)
            continue
        *head, last = path
        parent = doc
        for key in head:
            parent = parent[key]
        action = data.draw(st.sampled_from(["replace", "drop", "add"]))
        if action == "replace":
            parent[last] = data.draw(FUZZ_ATOMS)
        elif action == "drop":
            del parent[last]
        elif isinstance(parent, dict):
            parent["unknown"] = data.draw(FUZZ_ATOMS)
        else:
            parent.append(data.draw(FUZZ_ATOMS))
    try:
        config = SimConfig.from_dict(doc)
    except ConfigError:
        return
    assert isinstance(config, SimConfig)


@pins("rate")
def test_rate_rule_refuses(config, message, tmp_path):
    assert_refused(config, message, tmp_path)


class TestSingleMiner:
    def test_linear_growth_no_forks(self):
        tr = run(cfg(stop={"blocks": 1000}))
        assert tr.canonical_height() == 1000
        assert len(tr.blocks) == 1001
        assert tr.fork_episodes == []
        assert tr.max_reorg_depth() == 0
        assert tr.agreement()

    def test_deltas_are_the_sampled_exponentials(self):
        tr = run(cfg(stop={"blocks": 2000}))
        deltas = tr.canonical_deltas()
        assert deltas.min() > 0
        assert deltas.mean() == pytest.approx(600, rel=0.1)

    def test_honest_timestamps_follow_local_clock(self):
        tr = run(cfg(miners=[{"id": 0, "share": 1.0, "clock_offset": 30.0}]))
        for b in tr.blocks[1:10]:
            assert b.timestamp == math.floor(b.found_at + 30.0)

    def test_timestamp_clamped_to_median_plus_one(self):
        # local clock far behind the chain: stamps pin to median + 1
        tr = run(cfg(miners=[{"id": 0, "share": 1.0, "clock_offset": -5000.0}],
                     stop={"blocks": 5}, seed=1))
        assert tr.blocks[1].timestamp == 1  # genesis median 0, clock negative
        assert len(tr.warnings) == 1  # ten-minute clock advisory

    def test_no_advisory_for_small_offsets(self):
        tr = run(cfg(miners=[{"id": 0, "share": 1.0, "clock_offset": 500.0}],
                     stop={"blocks": 5}))
        assert tr.warnings == []


class TestDeterminism:
    def test_identical_traces(self):
        a = run(SimConfig.from_dict(baseline()))
        b = run(SimConfig.from_dict(baseline()))
        assert a.blocks == b.blocks
        assert a.tip_events == b.tip_events
        assert a.fork_episodes == b.fork_episodes
        assert a.final_tips == b.final_tips

    def test_identical_files(self, tmp_path):
        c = cfg(miners=[{"id": 0, "share": 0.5}, {"id": 1, "share": 0.5}],
                nodes=2, delay={"fixed": 60.0}, stop={"blocks": 1500}, seed=99)
        run(c).write_csvs(tmp_path / "a")
        run(c).write_csvs(tmp_path / "b")
        for name in ("blocks", "tip_changes", "forks", "difficulty"):
            fa = (tmp_path / "a" / f"{name}.csv").read_bytes()
            fb = (tmp_path / "b" / f"{name}.csv").read_bytes()
            assert fa == fb

    def test_different_seeds_differ(self):
        a = run(cfg(seed=1, stop={"blocks": 50}))
        b = run(cfg(seed=2, stop={"blocks": 50}))
        assert a.blocks != b.blocks


class TestPropagationAndForks:
    def test_zero_delay_never_forks(self):
        tr = run(cfg(miners=[{"id": 0, "share": 0.5}, {"id": 1, "share": 0.5}],
                     nodes=2, stop={"blocks": 3000}, seed=5))
        assert tr.fork_episodes == []
        assert tr.agreement()

    def test_fork_window_bound(self):
        tr = run(cfg(miners=[{"id": 0, "share": 0.5}, {"id": 1, "share": 0.5}],
                     nodes=2, delay={"fixed": 60.0}, stop={"blocks": 20000}, seed=12))
        assert tr.fork_episodes
        for ep in tr.fork_episodes:
            spread = (max(tr.blocks[b].found_at for b in ep.blocks)
                      - min(tr.blocks[b].found_at for b in ep.blocks))
            assert spread <= 60.0 + 1e-9

    def test_episode_winners_on_canonical_chain(self):
        tr = run(cfg(miners=[{"id": 0, "share": 0.5}, {"id": 1, "share": 0.5}],
                     nodes=2, delay={"fixed": 60.0}, stop={"blocks": 20000}, seed=12))
        canonical = set(tr.canonical_path())
        for ep in tr.fork_episodes:
            if ep.winner is not None:
                assert ep.winner in canonical
                assert ep.winner in ep.blocks

    def test_quiescent_agreement(self):
        tr = run(cfg(miners=[{"id": 0, "share": 0.5}, {"id": 1, "share": 0.5}],
                     nodes=2, delay={"fixed": 60.0}, stop={"blocks": 5000}, seed=3))
        assert tr.agreement()

    def test_proportional_wins_at_zero_delay(self):
        shares = [0.5, 0.3, 0.2]
        n = 20000
        tr = run(cfg(miners=[{"id": i, "share": s} for i, s in enumerate(shares)],
                     nodes=3, stop={"blocks": n}, seed=8))
        # canonical blocks per miner, genesis excluded
        counts = Counter(tr.blocks[bid].miner for bid in tr.canonical_path()[1:])
        total = sum(counts.values())
        for i, s in enumerate(shares):
            sigma = math.sqrt(s * (1 - s) / total)
            assert abs(counts[i] / total - s) <= 3 * sigma

    def test_orphan_pool_reorders_deliveries(self):
        # triangle routing: node 2 hears the child over a 1 s link before the
        # parent arrives over a 100 s link; both insert when the parent lands
        tr = run(cfg(
            miners=[{"id": 0, "share": 0.5}, {"id": 1, "share": 0.5}],
            nodes=3,
            delay={"per_pair": [[0.0, 1.0, 100.0], [1.0, 0.0, 1.0], [100.0, 1.0, 0.0]]},
            nominal_hashrate=0.05 * 2**32,
            stop={"blocks": 3},
            seed=11,
        ))
        b1, b2 = tr.blocks[1], tr.blocks[2]
        assert b2.parent == b1.id
        assert b2.found_at + 1.0 < b1.found_at + 100.0  # child beats parent to node 2
        ev2 = [e for e in tr.tip_events if e.node == 2]
        assert ev2[0].time == ev2[1].time  # cascade insert at the parent's arrival
        assert tr.agreement()
        assert not tr.rejections


def kids_of(blocks) -> dict[int, list[int]]:
    """Child ids per parent id, in id order, parents in first-child order."""
    children: dict[int, list[int]] = {}
    for b in blocks[1:]:
        children.setdefault(b.parent, []).append(b.id)
    return children


def assert_fork_table(trace):
    """The trace's fork table is the one its definition gives: one episode
    per parent with two or more children, kids stable-sorted by discovery,
    episodes stable-sorted by window start (ties in first-child id order),
    the first canonical kid wins."""
    blocks = trace.blocks
    canonical = set(trace.canonical_path())
    episodes = []
    for kids in kids_of(blocks).values():
        if len(kids) >= 2:
            kids = sorted(kids, key=lambda i: blocks[i].found_at)
            winner = next((k for k in kids if k in canonical), None)
            episodes.append(ForkEpisode(blocks[kids[0]].found_at, tuple(kids), winner))
    episodes.sort(key=lambda e: e.window_start)
    assert trace.fork_episodes == episodes
    assert all(list(e.blocks) == sorted(set(e.blocks)) for e in episodes)
    assert all(a.window_start <= b.window_start for a, b in zip(episodes, episodes[1:]))


def recorded_fields(trace) -> dict:
    """The fields a run records, from which a SimTrace is built."""
    return {f.name: getattr(trace, f.name) for f in dataclasses.fields(SimTrace) if f.init}


@pytest.fixture(scope="module")
def forkrate_2k():
    """A forkrate-like trace: two even miners 60 s apart, 2,000 blocks."""
    return run(SimConfig.from_dict(corpus.scenario("forkrate", stop={"blocks": 2000})))


class TestForkTable:
    @staticmethod
    def hand_made(parents, final_tip):
        """A trace of the given parent ids (genesis first), block i found at
        10 i seconds, with node 0 ending on `final_tip`."""
        blocks = [make_genesis(1.0)]
        for i, p in enumerate(parents[1:], 1):
            parent = blocks[p]
            blocks.append(Block(i, p, parent.height + 1, 0, 10 * i, 1.0,
                                parent.cumulative_work + 1.0, 10.0 * i))
        return SimTrace(config=cfg(), blocks=blocks, tip_events=TipEvents(),
                        difficulty_history=[(0, 1.0)], rejections=[], final_tips=[final_tip])

    @pytest.mark.parametrize("parents, final_tip, episodes, csv_text", [
        # a fork of genesis
        ([None, 0, 0, 1], 3, [(10.0, (1, 2), 1)], "10.0,1|2,1\n"),
        # two interleaved forks: parent 2 has kids 3 and 6, parent 3 kids 4
        # and 5; ordered by first kid, 2's comes first (by second kid, 3's would)
        ([None, 0, 1, 2, 3, 3, 2], 4, [(30.0, (3, 6), 3), (40.0, (4, 5), 4)],
         "30.0,3|6,3\n40.0,4|5,4\n"),
        # a three-way fork
        ([None, 0, 1, 1, 1, 3], 5, [(20.0, (2, 3, 4), 3)], "20.0,2|3|4,3\n"),
        # the canonical kid is not the first kid
        ([None, 0, 1, 1, 3], 4, [(20.0, (2, 3), 3)], "20.0,2|3,3\n"),
        # node 0 ends at height 1, below the second fork's kids: that fork
        # has no winner, and the canonical path has no entry at their height
        ([None, 0, 0, 1, 1], 2, [(10.0, (1, 2), 2), (30.0, (3, 4), None)],
         "10.0,1|2,2\n30.0,3|4,\n"),
    ])
    def test_edge_cases(self, parents, final_tip, episodes, csv_text, tmp_path):
        trace = self.hand_made(parents, final_tip)
        assert trace.fork_episodes == [ForkEpisode(*e) for e in episodes]
        assert_fork_table(trace)
        trace.write_csvs(tmp_path)
        assert (tmp_path / "forks.csv").read_bytes() == (
            "window_start,blocks,winner\n" + csv_text).encode()

    def test_long_traces(self, forkrate_2k, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from workloads import relay_config

        relay = run(SimConfig.from_dict(relay_config(0, 300)))
        for trace in (relay, forkrate_2k):
            assert trace.fork_episodes
            assert_fork_table(trace)


def test_tip_events_row_view(forkrate_2k, tmp_path):
    """Tip events read as rows, as the benchmark's trace digest reads them:
    len() counts the exported rows, and each row is (time, node, new_tip,
    reorg_depth) typed float, int, int, int, by position and by name."""
    events = forkrate_2k.tip_events
    forkrate_2k.write_csvs(tmp_path)
    forkrate_2k.write_csvs(tmp_path, "json")
    with open(tmp_path / "tip_changes.csv", newline="") as fh:
        header, *csv_rows = csv.reader(fh)
    assert header == list(sim.TipEvent._fields)
    assert len(events) == len(csv_rows) > 2000
    rows = [list(e) for e in events]
    decoded = [list(r.values()) for r in json.loads((tmp_path / "tip_changes.json").read_text())]
    assert rows == decoded
    for row in (*rows, *decoded):
        assert list(map(type, row)) == [float, int, int, int]
    assert [[e.time, e.node, e.new_tip, e.reorg_depth] for e in events] == rows
    assert max(r[3] for r in rows) == forkrate_2k.max_reorg_depth() >= 1


class TestMemoryPerBlock:
    """A run keeps every block, so what it needs per block sets its peak."""

    def test_fork_table_transient(self, forkrate_2k):
        # only forks get a kid list: about 30 B per block above the start,
        # where a kid list per parent and a canonical set took about 190
        fields = recorded_fields(forkrate_2k)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            rebuilt = SimTrace(**fields)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rebuilt == forkrate_2k
        assert (peak - start) / len(forkrate_2k.blocks) < 64

    def test_tip_events_are_columns(self):
        # four typed columns hold 24.5 B an event (the arrays' slack
        # included); a list of TipEvent tuples holds 144 here, with the
        # fresh float and int each tuple keeps alive
        n = 100_000
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            events = TipEvents()
            for i in range(n):
                events.append(i * 0.5 + 0.25, i % 32, 10**6 + i, i % 3)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(events) == n
        assert (held - start) / n <= 32

    def test_relay_run_peak(self):
        # perfbench's relay_fanout shape (32 nodes, 8 mining, per-pair
        # delays) cut to about 1,000 blocks: the peak is about 1,150 B a
        # block, 768 of them the 32 nodes' tip events; with an id set per
        # node and the median cache in a dict it was about 2,180
        rng = np.random.default_rng(1)
        weights = rng.uniform(0.5, 1.5, 8)
        offsets = rng.uniform(-300.0, 300.0, 8)
        delays = np.exp(rng.uniform(math.log(0.2), math.log(30.0), (32, 32)))
        np.fill_diagonal(delays, 0.0)
        config = cfg(miners=[{"id": i, "share": s, "clock_offset": o} for i, (s, o)
                             in enumerate(zip((weights / weights.sum()).tolist(), offsets.tolist()))],
                     nodes=32, delay={"per_pair": delays.tolist()}, stop={"blocks": 1000},
                     seed=1, retarget_enabled=True)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            trace = run(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace.blocks) > 1000
        assert (peak - start) / (len(trace.blocks) - 1) < 1600

    def test_block_is_slotted(self):
        block = make_genesis(1.0)
        assert not hasattr(block, "__dict__")
        moved = dataclasses.replace(block, found_at=5.0)
        assert moved == Block(0, None, 0, -1, 0, 1.0, 1.0, 5.0) != block
        assert dataclasses.replace(moved, found_at=0.0) == block
        with pytest.raises(dataclasses.FrozenInstanceError):
            block.found_at = 5.0


class TestTimestampSkew:
    def skew_cfg(self, skew, seed=3):
        return cfg(
            miners=[
                {"id": 0, "share": 0.5},
                {"id": 1, "share": 0.5, "strategy": {"fixed_skew": skew}},
            ],
            nodes=2, delay={"fixed": 1.0}, stop={"blocks": 60}, seed=seed,
        )

    def test_skew_within_bound_creates_negative_deltas(self):
        tr = run(self.skew_cfg(7000.0))
        assert tr.rejections == []
        path = tr.canonical_path()
        deltas = [tr.blocks[b].timestamp - tr.blocks[tr.blocks[b].parent].timestamp
                  for b in path[1:]]
        assert min(deltas) < -6000
        assert tr.agreement()

    def test_skew_beyond_bound_rejected_as_future(self):
        tr = run(self.skew_cfg(8000.0))
        assert tr.rejections
        assert {r.reason for r in tr.rejections} == {"future"}
        rejected = {r.block for r in tr.rejections}
        honest_store_blocks = set(tr.canonical_path())
        assert rejected.isdisjoint(honest_store_blocks)


class TestRetargeting:
    def test_disabled_history_constant(self):
        tr = run(cfg(stop={"blocks": 3000}, retarget_enabled=False))
        assert tr.difficulty_history == [(0, 1.0)]

    def test_steady_state_drift_small(self):
        tr = run(cfg(stop={"blocks": 4032}, retarget_enabled=True, seed=0))
        hist = dict(tr.difficulty_history)
        assert set(hist) == {0, 2016, 4032}
        assert abs(hist[2016] - 1.0) < 0.05
        assert abs(hist[4032] - 1.0) < 0.05

    def test_hashrate_step_doubles_difficulty(self):
        tr = run(SimConfig.from_dict(corpus.scenario("retarget")))
        hist = dict(tr.difficulty_history)
        assert hist[4032] == pytest.approx(2.0, rel=0.10)
        epoch3 = tr.canonical_deltas()[4032:6048]
        assert epoch3.mean() == pytest.approx(600.0, rel=0.05)

    def test_difficulty_applies_to_next_window(self):
        tr = run(cfg(stop={"blocks": 2100}, retarget_enabled=True, seed=0))
        d_new = dict(tr.difficulty_history)[2016]
        path = tr.canonical_path()
        assert tr.blocks[path[2016]].difficulty == 1.0
        assert tr.blocks[path[2017]].difficulty == d_new


class TestStopRules:
    def test_block_count_reached(self):
        tr = run(cfg(stop={"blocks": 123}))
        assert tr.canonical_height() >= 123

    def test_duration(self):
        tr = run(cfg(stop={"duration": 50_000.0}, seed=2))
        assert all(b.found_at <= 50_000.0 for b in tr.blocks[1:])
        assert tr.canonical_height() > 0
        assert tr.agreement()


class TestGarbageCollectorPause:
    """`run` pauses the cyclic collector while events run and leaves it as
    it found it, also when the run fails."""

    @pytest.fixture(autouse=True)
    def keep_gc_state(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored(self, enabled, monkeypatch):
        during = []
        deliver = sim._Engine.handle_deliver

        def spy(self, *args):
            during.append(gc.isenabled())
            return deliver(self, *args)

        monkeypatch.setattr(sim._Engine, "handle_deliver", spy)
        (gc.enable if enabled else gc.disable)()
        run(cfg(miners=[{"id": 0, "share": 0.5}, {"id": 1, "share": 0.5}], nodes=2,
                delay={"fixed": 30.0}, stop={"blocks": 20}))
        assert during and not any(during)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored_when_the_run_raises(self, enabled, monkeypatch):
        def broken(self, *args):
            raise RuntimeError("handler fault")

        monkeypatch.setattr(sim._Engine, "handle_found", broken)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(RuntimeError, match="handler fault"):
            run(cfg())
        assert gc.isenabled() is enabled

    def test_run_makes_no_cycles(self):
        # the premise of the pause: a collection right after a run frees
        # nothing, so none during it could have either
        config = SimConfig.from_dict(INLINE_CONFIG)
        gc.collect()
        trace = run(config)
        assert gc.collect() == 0
        assert trace.rejections  # the config reaches its rejection path


class TestScenariosAndExports:
    def test_bundled_scenarios_load(self):
        for name, _ in corpus.BUNDLED:
            c = SimConfig.from_json(corpus.scenario_file(name))
            assert c == SimConfig.from_dict(corpus.scenario(name))

    def test_fig2_replay(self):
        tr = run(SimConfig.from_dict(corpus.scenario("fig2")))
        assert len(tr.fork_episodes) == 1
        ep = tr.fork_episodes[0]
        assert len(ep.blocks) == 2 and ep.winner is not None
        reorgs = [e for e in tr.tip_events if e.reorg_depth >= 1]
        assert len(reorgs) == 1
        assert reorgs[0].reorg_depth == 1
        assert reorgs[0].node == 2
        assert tr.agreement()
        assert tr.canonical_height() == 4

    @pytest.mark.parametrize("name", ["baseline", "fig2"])
    def test_csv_and_json_exports_agree(self, tmp_path, name):
        """Each JSON record holds the cells of its CSV row, keyed by the
        header and spelled the CSV way: None empty, a float by repr, an int
        by str, a string as it is."""
        tr = run(SimConfig.from_dict(corpus.scenario(name)))
        tr.write_csvs(tmp_path, "csv")
        tr.write_csvs(tmp_path, "json")
        spell = lambda v: "" if v is None else repr(v) if type(v) is float else str(v)
        for table in ("blocks", "tip_changes", "forks", "difficulty"):
            with open(tmp_path / f"{table}.csv", newline="") as fh:
                header, *rows = csv.reader(fh)
            with open(tmp_path / f"{table}.json") as fh:
                records = json.load(fh)
            assert all(list(r) == header for r in records)
            assert [[spell(v) for v in r.values()] for r in records] == rows

    def test_config_file_errors(self, tmp_path):
        for row in refusals("file").values():
            assert_refused(*row, tmp_path)


def test_tip_history_blocks_all_known():
    tr = run(cfg(miners=[{"id": 0, "share": 0.5}, {"id": 1, "share": 0.5}],
                 nodes=2, delay={"fixed": 60.0}, stop={"blocks": 2000}, seed=4))
    ids = {b.id for b in tr.blocks}
    assert all(e.new_tip in ids for e in tr.tip_events)
    for ep in tr.fork_episodes:
        assert set(ep.blocks) <= ids


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1))
def test_trace_structure(index):
    """The trace of corpus config `index` (`corpus._draw`, at indices past
    the corpus too) is consistent with the block DAG it records: tip
    events, fork episodes, retargets and the final agreement all follow
    from `trace.blocks` and the consensus rules."""
    config = SimConfig.from_dict(corpus._draw(index))
    engine = sim._Engine(config)
    trace = engine.run()
    blocks = trace.blocks
    store = ChainStore(blocks[0])
    for b in blocks[1:]:
        store.insert(b)

    # ids are given in discovery order; the exported work of each block is
    # its parent's plus its own difficulty
    assert [b.id for b in blocks] == list(range(len(blocks)))
    assert all(a.found_at <= b.found_at for a, b in zip(blocks, blocks[1:]))
    column = BLOCK_CSV_FIELDS.index("cumulative_work")
    work = [block_row(b)[column] for b in blocks]
    assert work[0] == blocks[0].difficulty
    assert all(work[b.id] == work[b.parent] + b.difficulty for b in blocks[1:])

    # replaying each node's tip events reaches its final tip; every move is
    # to strictly more work and reports old tip height - fork point height
    tips = [0] * config.nodes
    for e in trace.tip_events:
        old = tips[e.node]
        assert work[e.new_tip] > work[old]
        assert e.reorg_depth == blocks[old].height - blocks[store.fork_point(old, e.new_tip)].height
        tips[e.node] = e.new_tip
    assert tips == trace.final_tips

    # node 0's chain runs from genesis to its final tip, each block the
    # parent's child, and every canonical reader matches a walk of parents
    chain = trace.canonical
    assert chain[0] is blocks[0] and chain[-1] is blocks[trace.final_tips[0]]
    assert all(b.parent == a.id for a, b in zip(chain, chain[1:]))
    walk = [trace.final_tips[0]]
    while blocks[walk[-1]].parent is not None:
        walk.append(blocks[walk[-1]].parent)
    walk.reverse()
    assert trace.canonical_path() == walk
    assert trace.canonical_height() == blocks[walk[-1]].height == len(walk) - 1
    found = [blocks[b].found_at for b in walk]
    assert trace.canonical_deltas().tolist() == [b - a for a, b in zip(found, found[1:])]

    # one episode per parent with two or more children
    assert_fork_table(trace)

    # one advisory per node whose clock strays, in node order; and the fork
    # episodes and advisories follow from the six recorded fields alone
    assert trace.warnings == [
        (i, node.clock_offset) for i, node in enumerate(engine.nodes)
        if abs(node.clock_offset) > CLOCK_WARN_OFFSET]
    assert SimTrace(**recorded_fields(trace)) == trace

    # each node is left with exactly the descendants of the blocks it
    # rejected parked for good, and its known, rejected and parked ids
    # partition every block id
    children = kids_of(blocks)
    for i, node in enumerate(engine.nodes):
        rejected = {r.block for r in trace.rejections if r.node == i}
        stranded = {b.id for parked in node.pending.values() for b in parked}
        descendants, frontier = set(), list(rejected)
        while frontier:
            kids = children.get(frontier.pop(), [])
            descendants.update(kids)
            frontier += kids
        assert stranded == descendants
        assert set(node.known) <= {0, 1}
        known = {bid for bid, byte in enumerate(node.known) if byte}
        assert known | rejected | stranded == set(range(len(blocks)))
        assert len(known) + len(rejected) + len(stranded) == len(blocks)

    # one retarget per stored boundary block, in id order, and each child
    # mines at the difficulty its parent prescribes
    interval = config.rules.retarget_interval
    history = [(0, config.initial_difficulty)]
    next_diff: dict[int, float] = {}
    for b in blocks[1:]:
        parent = blocks[b.parent]
        assert b.difficulty == next_diff.get(parent.id, parent.difficulty)
        if config.retarget_enabled and b.height % interval == 0:
            first = b
            for _ in range(interval):
                first = blocks[first.parent]
            next_diff[b.id] = retarget(b.difficulty, first.timestamp, b.timestamp, interval)
            history.append((b.height, next_diff[b.id]))
    assert trace.difficulty_history == history

    # with no rejection every node ends up knowing every block, so every
    # final tip has the most work, and the nodes agree unless that most
    # work is tied between blocks (each node keeps the one it saw first)
    if not trace.rejections:
        best = max(work)
        assert all(work[t] == best for t in trace.final_tips)
        if work.count(best) == 1:
            assert trace.agreement()


# floats from the smallest subnormal to the largest finite value, the
# edges among them
SCALES = st.one_of(st.sampled_from([5e-324, 2.0**-32, 1.0, H600, 1.7976931348623157e308]),
                   st.floats(-330.0, 308.0).map(lambda e: 10.0**e))


@st.composite
def edge_configs(draw):
    """Config dicts across the accepted domain, edges included: hash rates,
    difficulties and step factors from the smallest to the largest floats,
    zero delays, 1-5 miners, skewed clocks, retargets every 2-8 blocks and
    stops of at most 50 blocks.  The miners share one clock offset, from
    -900 s up to the float edges, and skew their stamps within the future
    bound, so every node accepts every block at once: a miner that node 0
    never hears from mines on until node 0 stops, at a rate the stop does
    not bound (a far-behind clock pins stamps at median past time + 1,
    which every node then rejects as future)."""
    weights = draw(st.lists(st.integers(1, 10), min_size=1, max_size=5))
    offset = draw(st.sampled_from([0.0, -900.0, 1e15, 2.0**53, 1e300]))
    miners = [{"id": i, "share": w / sum(weights), "clock_offset": offset,
               "strategy": {"fixed_skew": draw(st.sampled_from([0.0, -3e5, -900.0, 7150.0]))}}
              for i, w in enumerate(weights)]
    return {
        "miners": miners,
        "nodes": len(miners),
        "delay": {"fixed": 0.0},
        "rules": {"retarget_interval": draw(st.integers(2, 8))},
        "initial_difficulty": draw(SCALES),
        "nominal_hashrate": draw(SCALES),
        "stop": {"blocks": draw(st.integers(1, 50))},
        "seed": draw(st.integers(0, 2**32)),
        "retarget_enabled": draw(st.booleans()),
        "hashrate_steps": draw(st.lists(st.tuples(st.integers(1, 60), SCALES), max_size=2)),
    }


@settings(max_examples=300)
@given(edge_configs())
def test_built_configs_run(d):
    """The rate rule: a config is refused when it is built, or its run keeps
    every time finite and every stamp a whole second below 2**53."""
    try:
        config = SimConfig.from_dict(d)
    except ConfigError:
        return
    trace = run(config)
    assert all(math.isfinite(b.found_at) for b in trace.blocks)
    assert all(type(b.timestamp) is int and 0 <= b.timestamp < 2**53 for b in trace.blocks)
