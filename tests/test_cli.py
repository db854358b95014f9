"""CLI behavior: flags, outputs, exit codes, reproducibility."""

import csv
import json
import math
import os
import re
import tempfile
import tracemalloc
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocktime import analytic as an
from blocktime.cli import main
from blocktime.sim import SimConfig
from test_sim import HUGE_INT_OVERRIDES, RATE_RULE_REPROS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def strict_json(text):
    """json.loads that refuses the NaN / Infinity / -Infinity literals."""
    def refuse(name):
        raise ValueError(f"non-standard JSON literal {name}")
    return json.loads(text, parse_constant=refuse)


class TestAnalyticCommand:
    def test_entropy_peak(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "entropy-peak", "--lambda", "0.00166667")
        assert code == 0
        assert float(out) == pytest.approx(415.8883, abs=1e-3)
        # at least 10 significant digits printed
        mantissa = out.strip().replace(".", "").replace("-", "").lstrip("0")
        assert len(mantissa) >= 10

    def test_catchup(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "catchup", "--q", "0.1", "--k", "6")
        assert code == 0
        assert float(out) == pytest.approx(1.8816e-6, rel=1e-4)

    @pytest.mark.parametrize("lam, tau, value", [
        ("0.00166667", "2", 5.543e-6),
        ("1e308", "1e308", 1.0),  # lam * tau overflows; the probability is 1
    ], ids=["nominal", "overflow"])
    def test_fork(self, capsys, lam, tau, value):
        code, out, _ = run_cli(capsys, "analytic", "fork", "--lambda", lam, "--tau", tau)
        assert code == 0
        assert float(out) == pytest.approx(value, rel=1e-3)

    def test_theta_target_hex(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "theta-target", "--target",
                               hex(65535 * 2**208))
        assert code == 0
        assert float(out) == pytest.approx(2.328271e-10, rel=1e-6)

    def test_json_format_roundtrips(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "catchup", "--q", "0.1", "--k", "6",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == an.catchup_probability(0.1, 6)

    def test_missing_flag_names_the_gap(self, capsys):
        code, _, err = run_cli(capsys, "analytic", "catchup", "--q", "0.1")
        assert code == 1
        assert "--k" in err

    def test_unknown_formula(self, capsys):
        code, _, err = run_cli(capsys, "analytic", "nonsense")
        assert code == 1

    def test_domain_error_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "analytic", "theta-difficulty", "--difficulty", "-1")
        assert code == 1
        assert "positive" in err

    def test_difficulty_below_one_hash_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "analytic", "theta-difficulty", "--difficulty", "1e-12")
        assert code == 1
        assert out == ""
        assert "theta" in err

    @pytest.mark.parametrize("flags, name", [
        (["fork", "--lambda", "nan", "--tau", "1"], "--lambda"),
        (["fork", "--lambda", "0.001", "--tau", "inf"], "--tau"),
        (["catchup", "--q", "nan", "--k", "6"], "--q"),
        (["entropy", "--p=-inf"], "--p"),
    ], ids=["lambda-nan", "tau-inf", "q-nan", "p-neg-inf"])
    def test_bad_numbers_exit_one(self, capsys, flags, name):
        code, out, err = run_cli(capsys, "analytic", *flags, "--format", "json")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert name in err

    def test_missing_lambda_names_the_flag(self, capsys):
        code, _, err = run_cli(capsys, "analytic", "fork", "--tau", "1")
        assert code == 1
        assert "--lambda" in err

    def test_json_non_finite_value_is_null(self, capsys):
        # finite inputs whose product overflows: JSON mode prints null,
        # text mode still prints inf
        flags = ("analytic", "expected-trials", "--hashrate", "1e308", "--t", "1e308")
        code, out, _ = run_cli(capsys, *flags, "--format", "json")
        assert code == 0
        assert strict_json(out) == {"formula": "expected-trials", "value": None}
        code, out, _ = run_cli(capsys, *flags)
        assert code == 0
        assert out == "inf\n"


class TestRaceCommand:
    def test_small_run(self, capsys):
        code, out, _ = run_cli(capsys, "race", "--q", "0.3", "--k", "5",
                               "--trials", "200000", "--seed", "9")
        assert code == 0
        assert "estimate" in out and "closed form" in out and "seed=9" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "race", "--q", "0.3", "--k", "5",
                               "--trials", "50000", "--seed", "9", "--format", "json")
        doc = json.loads(out)
        cf = an.catchup_probability(0.3, 5)
        assert doc["closed_form"] == cf
        sigma = math.sqrt(cf * (1 - cf) / 50_000)
        assert abs(doc["estimate"] - cf) <= 4 * sigma

    def test_powerless(self, capsys):
        code, out, _ = run_cli(capsys, "race", "--q", "0.0", "--k", "3", "--trials", "100")
        assert code == 0
        assert "estimate    = 0" in out

    def test_majority_note(self, capsys):
        code, out, _ = run_cli(capsys, "race", "--q", "0.5", "--k", "4", "--trials", "1000")
        assert code == 0
        assert "closed form = 1" in out
        assert "q >= p" in out

    def test_bad_q(self, capsys):
        code, _, err = run_cli(capsys, "race", "--q", "1.5", "--k", "2")
        assert code == 1

    def test_json_infinite_z_is_null(self, capsys):
        flags = ("race", "--q", "0.6", "--k", "2", "--trials", "10", "--step-cap", "1")
        code, out, _ = run_cli(capsys, *flags, "--format", "json")
        assert code == 0
        doc = strict_json(out)
        assert doc["z"] is None
        assert (doc["estimate"], doc["closed_form"]) == (0.0, 1.0)
        code, out, _ = run_cli(capsys, *flags)
        assert code == 0
        assert "  z           = inf\n" in out

    @pytest.mark.parametrize("flags, name", [
        (["--q", "0.3", "--step-cap", "0"], "step_cap"),
        (["--q", "0.6", "--step-cap", "-5"], "step_cap"),
        (["--q", "0.3", "--seed", "-1"], "seed"),
        (["--q", "0.3", "--k", "-1"], "k"),
        (["--q", "0.3", "--trials", "0"], "trials"),
        # the walk's int32 deficit cannot hold it: refused before any walk
        (["--q", "0.3", "--k", "2147483648", "--trials", "10"], "k must be at most"),
        (["--q", "1.5"], "q must lie in [0, 1)"),
        (["--q", "nan"], "q must be a finite number"),
        (["--q", "0.3", "--step-cap", "74"], "step_cap must be at least 75, got 74"),
    ], ids=["step-cap-zero", "step-cap-negative-majority", "seed-negative", "k-negative",
            "trials-zero", "k-beyond-int32", "q-beyond-one", "q-nan", "step-cap-below-floor"])
    def test_bad_numbers_exit_one(self, capsys, flags, name):
        # every refusal is the library's: race_monte_carlo runs before any output
        code, out, err = run_cli(capsys, "race", "--k", "3", "--trials", "1000", *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert name in err


class TestEntropyCommand:
    def test_writes_curve(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "entropy", "--outdir", str(tmp_path),
                               "--step", "100", "--horizon", "3600")
        assert code == 0
        with open(tmp_path / "entropy.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_t = {float(r["t"]): float(r["entropy_bits"]) for r in rows}
        assert by_t[0.0] == 0.0
        assert by_t[600.0] == pytest.approx(0.9491, abs=1e-3)
        peak_t = an.entropy_peak_time(1 / 600)
        assert by_t[peak_t] == pytest.approx(1.0, abs=1e-12)

    def test_csv_json_equal_values(self, capsys, tmp_path):
        run_cli(capsys, "entropy", "--outdir", str(tmp_path), "--step", "250",
                "--horizon", "2000")
        run_cli(capsys, "entropy", "--outdir", str(tmp_path), "--step", "250",
                "--horizon", "2000", "--format", "json")
        with open(tmp_path / "entropy.csv", newline="") as fh:
            crows = list(csv.DictReader(fh))
        with open(tmp_path / "entropy.json") as fh:
            jrows = json.load(fh)
        assert len(crows) == len(jrows)
        for c, j in zip(crows, jrows):
            for key in ("t", "p", "entropy_bits"):
                assert float(c[key]) == j[key]

    # a grid of 2**53 or more points is refused before a row is written
    @pytest.mark.parametrize("step", ["0", "1e-300", "5e-324"])
    def test_bad_step(self, capsys, tmp_path, step):
        code, _, err = run_cli(capsys, "entropy", "--outdir", str(tmp_path / "out"),
                               "--step", step)
        assert code == 1
        assert "grid_step" in err
        assert not (tmp_path / "out").exists()

    def test_curve_is_streamed(self, capsys, tmp_path):
        # 60,001 rows (about 9 MiB as a list) go to the writer one chunk at
        # a time
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            code, _, _ = run_cli(capsys, "entropy", "--step", "0.01", "--horizon", "600",
                              "--outdir", str(tmp_path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak - start <= 2 * 2**20

    @pytest.mark.parametrize("flags, name", [
        (["--horizon", "inf"], "--horizon"),
        (["--horizon", "nan"], "--horizon"),
        (["--step", "inf"], "--step"),
        (["--step", "nan"], "--step"),
        (["--lambda", "nan"], "--lambda"),
        (["--lambda", "inf"], "--lambda"),
    ], ids=["horizon-inf", "horizon-nan", "step-inf", "step-nan", "lambda-nan", "lambda-inf"])
    def test_bad_numbers_exit_one(self, capsys, tmp_path, flags, name):
        code, out, err = run_cli(capsys, "entropy", "--outdir", str(tmp_path / "out"), *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert name in err
        assert not (tmp_path / "out").exists()


class TestSimulateCommand:
    def test_baseline_run(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "simulate", "--config", "baseline",
                               "--outdir", str(tmp_path))
        assert code == 0
        assert "seed=1" in out
        for name in ("blocks.csv", "tip_changes.csv", "forks.csv", "difficulty.csv"):
            assert (tmp_path / name).exists()
        with open(tmp_path / "blocks.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", "parent", "height", "miner", "timestamp",
                           "difficulty", "cumulative_work", "found_at"]
        assert len(rows) == 1002  # header + genesis + 1000 blocks

    def test_byte_identical_reruns(self, capsys, tmp_path):
        run_cli(capsys, "simulate", "--config", "fig2", "--outdir", str(tmp_path / "a"))
        run_cli(capsys, "simulate", "--config", "fig2", "--outdir", str(tmp_path / "b"))
        for name in ("blocks.csv", "tip_changes.csv", "forks.csv", "difficulty.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_fig2_fork_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "simulate", "--config", "fig2", "--outdir", str(tmp_path))
        assert code == 0
        with open(tmp_path / "forks.csv", newline="") as fh:
            episodes = list(csv.DictReader(fh))
        assert len(episodes) == 1
        winner = episodes[0]["winner"]
        assert winner != ""
        with open(tmp_path / "blocks.csv", newline="") as fh:
            blocks = {r["id"]: r for r in csv.DictReader(fh)}
        # the winner lies on the canonical chain: walk back from the final tip
        with open(tmp_path / "tip_changes.csv", newline="") as fh:
            tip = list(csv.DictReader(fh))[-1]["new_tip"]
        canonical = set()
        while tip:
            canonical.add(tip)
            tip = blocks[tip]["parent"]
        assert winner in canonical

    def test_seed_override(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "simulate", "--config", "baseline",
                               "--outdir", str(tmp_path), "--seed", "77")
        assert code == 0
        assert "seed=77" in out

    def test_reports_flag(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "simulate", "--config", "baseline",
                               "--outdir", str(tmp_path), "--reports")
        assert code == 0
        assert "tail_frequency" in out
        assert "exponentiality" in out
        with open(tmp_path / "reports.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["quantity"] for r in rows} == {  # one miner, zero delay, constant rate
            "tail_frequency", "exponentiality_ks", "exponentiality_lag1"}
        assert list(rows[0]) == ["quantity", "analytic", "empirical", "n", "stderr", "z"]

    def test_reports_json_holds_the_csv_values(self, capsys, tmp_path):
        for fmt in ("csv", "json"):
            code, _, _ = run_cli(capsys, "simulate", "--config", "fig2", "--reports",
                                 "--format", fmt, "--outdir", str(tmp_path))
            assert code == 0
        with open(tmp_path / "reports.csv", newline="") as fh:
            crows = list(csv.DictReader(fh))
        jrows = strict_json((tmp_path / "reports.json").read_text())
        assert [list(j) for j in jrows] == [list(c) for c in crows]
        assert len(crows) == 3
        for c, j in zip(crows, jrows):
            assert j["quantity"] == c["quantity"]
            for key in ("analytic", "empirical", "n", "stderr", "z"):
                assert j[key] == float(c[key])

    def test_reports_retarget_no_exponentiality_verdict(self, capsys, tmp_path):
        # retargeting lies outside the exponential setting: no
        # exponentiality row is printed or written, so no FAIL either
        code, out, _ = run_cli(capsys, "simulate", "--config", "retarget",
                               "--outdir", str(tmp_path), "--reports")
        assert code == 0
        assert "FAIL" not in out
        with open(tmp_path / "reports.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["quantity"] for r in rows] == ["tail_frequency"]

    def test_reports_per_block_fork_row(self, capsys, tmp_path):
        # two miners on their own nodes, one fixed delay: fork_episode_rate
        # accepts the trace and its row follows fork_rate's
        d = json.loads((resources.files("blocktime") / "scenarios" / "forkrate.json").read_text())
        d["stop"] = {"blocks": 2000}
        config = tmp_path / "forkrate-2000.json"
        config.write_text(json.dumps(d))
        code, out, _ = run_cli(capsys, "simulate", "--config", str(config),
                               "--outdir", str(tmp_path), "--reports")
        assert code == 0
        assert "fork_episode_rate" in out
        assert "FAIL" not in out  # a forking chain gets no exponentiality rows
        with open(tmp_path / "reports.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["quantity"] for r in rows] == [
            "fork_rate", "fork_episode_rate", "multi_discovery_window_rate", "tail_frequency"]
        assert rows[1]["empirical"] == rows[0]["empirical"]

    @pytest.mark.parametrize("delay", [1e-6, 1e-300])
    def test_reports_on_short_delay(self, capsys, tmp_path, delay):
        # the window row tiles about 2e11 windows at 1e-6 s and 2e305 at
        # 1e-300 s; it counts only the occupied ones
        d = json.loads((resources.files("blocktime") / "scenarios" / "forkrate.json").read_text())
        d.update(delay={"fixed": delay}, stop={"blocks": 300})
        config = tmp_path / "short-delay.json"
        config.write_text(json.dumps(d))
        code, _, err = run_cli(capsys, "simulate", "--config", str(config),
                               "--outdir", str(tmp_path), "--reports")
        assert (code, err) == (0, "")
        with open(tmp_path / "reports.csv", newline="") as fh:
            rows = {r["quantity"]: r for r in csv.DictReader(fh)}
        window = rows["multi_discovery_window_rate"]
        assert float(window["empirical"]) == 0.0
        assert int(window["n"]) > 1e5 / delay

    @pytest.mark.parametrize("overrides, quantities", [
        ({"stop": {"blocks": 1}, "delay": {"fixed": 100000.0}}, ["fork_rate"]),
        ({"stop": {"duration": 1.0}}, []),
        # one miner never forks: a positive delay writes no fork row
        ({"miners": [{"id": 0, "share": 1.0}], "stop": {"blocks": 3000}},
         ["multi_discovery_window_rate", "tail_frequency", "exponentiality_ks",
          "exponentiality_lag1"]),
    ], ids=["one-block-long-delay", "no-block", "one-miner"])
    def test_reports_on_short_trace(self, capsys, tmp_path, overrides, quantities):
        # rows whose setting does not hold (no window tiled, fewer than 2
        # intervals, lam*tau beyond the per-block form, no canonical block)
        # are left out; the run still succeeds and writes reports.csv
        d = json.loads((resources.files("blocktime") / "scenarios" / "forkrate.json").read_text())
        d.update(overrides)
        config = tmp_path / "short.json"
        config.write_text(json.dumps(d))
        code, _, err = run_cli(capsys, "simulate", "--config", str(config),
                               "--outdir", str(tmp_path), "--reports")
        assert (code, err) == (0, "")
        with open(tmp_path / "reports.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["quantity", "analytic", "empirical", "n", "stderr", "z"]
        assert [r[0] for r in rows[1:]] == quantities

    @pytest.mark.parametrize("key, value", [
        ("seed", 1.7),
        ("stop", {"blocks": 2.5}),
        ("nominal_hashrate", math.inf),
        ("delay", {"fixed": math.nan}),
        ("rules", {"retarget_interval": 2.5}),
        ("initial_difficulty", 1e308),
        ("seed", True),
    ], ids=["seed", "stop.blocks", "nominal_hashrate", "delay.fixed", "rules.retarget_interval",
            "initial_difficulty", "seed-boolean"])
    def test_bad_numbers_exit_one(self, capsys, tmp_path, key, value):
        d = json.loads((resources.files("blocktime") / "scenarios" / "baseline.json").read_text())
        d[key] = value
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(d))  # writes NaN and Infinity literals
        code, _, err = run_cli(capsys, "simulate", "--config", str(config),
                               "--outdir", str(tmp_path))
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "blocks.csv").exists()

    @pytest.mark.parametrize("overrides", HUGE_INT_OVERRIDES.values(), ids=HUGE_INT_OVERRIDES)
    def test_huge_integers_exit_one(self, capsys, tmp_path, overrides):
        d = json.loads((resources.files("blocktime") / "scenarios" / "baseline.json").read_text())
        d.update(overrides)
        config = tmp_path / "huge.json"
        config.write_text(json.dumps(d))
        code, out, err = run_cli(capsys, "simulate", "--config", str(config),
                                 "--outdir", str(tmp_path / "out"))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "must be a finite number" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides", RATE_RULE_REPROS.values(), ids=RATE_RULE_REPROS)
    def test_rate_rule_exits_one(self, capsys, tmp_path, overrides):
        d = json.loads((resources.files("blocktime") / "scenarios" / "baseline.json").read_text())
        d.update(overrides)
        config = tmp_path / "slow.json"
        config.write_text(json.dumps(d))
        code, out, err = run_cli(capsys, "simulate", "--config", str(config),
                                 "--outdir", str(tmp_path / "out"))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_unreadable_integer_literal_exits_one(self, capsys, tmp_path):
        # json refuses a literal past the int-to-str digit limit with a hint
        # to raise the limit; the config error says what is in the file
        text = (resources.files("blocktime") / "scenarios" / "baseline.json").read_text()
        config = tmp_path / "long.json"
        config.write_text(text.replace('"seed": 1', '"seed": 1' + "0" * 5000))
        code, out, err = run_cli(capsys, "simulate", "--config", str(config),
                                 "--outdir", str(tmp_path / "out"))
        assert (code, out) == (1, "")
        assert err == "error: config holds an integer literal of more than 4300 digits\n"
        assert "set_int_max_str_digits" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [
        '{"miners": ' + "[" * 100_000,
        '{"miners": ' + "[" * 100_000 + "]" * 100_000 + "}",
    ], ids=["open", "closed"])
    def test_deep_nesting_exits_one(self, capsys, tmp_path, text):
        # json.loads raises RecursionError, not a ValueError, past its depth
        config = tmp_path / "deep.json"
        config.write_text(text)
        code, out, err = run_cli(capsys, "simulate", "--config", str(config),
                                 "--outdir", str(tmp_path / "out"))
        assert (code, out) == (1, "")
        assert err == "error: config nests arrays or objects too deeply to decode\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, named", [
        (None, None),
        (5, None),
        (["miners"], None),
        ({"miners": [5]}, None),
        ({"miners": [{"id": 0, "share": 1.0, "clock_ofset": -5000}]}, None),
        ({"retarget_enabled": "false"}, None),
        ({"rules": 5}, "rules must be a JSON object"),
        ({"rules": None}, "rules must be a JSON object"),
        ({"rules": ["retarget_interval"]}, "rules must be a JSON object"),
        ({"delay": 5}, "delay must be a JSON object"),
        ({"stop": None}, "stop must be a JSON object"),
        ({"miners": 5}, "miners must be a JSON array"),
        ({"hashrate_steps": 5}, "hashrate_steps must be a JSON array"),
        ({"hashrate_steps": [[1, 2, 3]]}, "hashrate_steps entry must be a JSON array of 2"),
        ({"delay": {"per_pair": 5}}, "per_pair must be a JSON array"),
        ({"delay": {"per_pair": [5]}}, "per_pair row must be a JSON array"),
    ], ids=["null", "number", "list", "miner-number", "miner-unknown-key",
            "retarget-enabled-string", "rules-number", "rules-null", "rules-list",
            "delay-number", "stop-null", "miners-number", "steps-number", "step-triple",
            "per-pair-number", "per-pair-row-number"])
    def test_malformed_config_exits_one(self, capsys, tmp_path, config, named):
        if isinstance(config, dict):
            d = json.loads((resources.files("blocktime") / "scenarios" / "baseline.json")
                           .read_text())
            d["stop"] = {"blocks": 2100}
            d.update(config)
            config = d
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "simulate", "--config", str(path), "--outdir", str(out))
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
        if named is not None:
            # the message names the key and its shape, not Python's internal text
            assert err.startswith(f"error: {named}, got ")

    def test_unexpected_failure_exits_two(self, capsys, tmp_path, monkeypatch):
        def broken(cfg):
            raise RuntimeError("engine fault")
        monkeypatch.setattr("blocktime.cli.run", broken)
        code, _, err = run_cli(capsys, "simulate", "--config", "baseline",
                               "--outdir", str(tmp_path))
        assert code == 2
        assert err == "runtime error: engine fault\n"

    def test_missing_config(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--config", "no-such-thing",
                               "--outdir", str(tmp_path))
        assert code == 1
        assert "not found" in err

    def test_directory_never_shadows_bundled_scenario(self, capsys, tmp_path, monkeypatch):
        # an earlier run's --outdir named after the scenario is not a config
        monkeypatch.chdir(tmp_path)
        (tmp_path / "baseline").mkdir()
        code, _, _ = run_cli(capsys, "simulate", "--config", "baseline", "--outdir", "baseline")
        assert code == 0
        assert (tmp_path / "baseline" / "blocks.csv").exists()

    def test_directory_is_not_a_config(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "nosuch").mkdir()
        code, _, err = run_cli(capsys, "simulate", "--config", "nosuch", "--outdir", "out")
        assert code == 1
        assert "config not found" in err

    def test_invalid_config_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"miners": []}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(bad),
                               "--outdir", str(tmp_path))
        assert code == 1


@pytest.mark.parametrize("argv, written", [
    pytest.param(["simulate", "--config", "fig2"], "blocks.csv", id="simulate"),
    pytest.param(["entropy", "--step", "600"], "entropy.csv", id="entropy"),
    pytest.param(["retarget-demo", "--interval", "16", "--epochs", "2"], "difficulty.csv",
                 id="retarget-demo"),
])
def test_outdir_env_default(capsys, tmp_path, monkeypatch, argv, written):
    """Every command that writes files writes them into $BLOCKTIME_OUTDIR
    when --outdir is not given."""
    monkeypatch.setenv("BLOCKTIME_OUTDIR", str(tmp_path / "envout"))
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert (tmp_path / "envout" / written).exists()


class TestRetargetDemo:
    def test_small_demo(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "retarget-demo", "--interval", "300",
                               "--epochs", "2", "--seed", "3", "--outdir", str(tmp_path))
        assert code == 0
        assert "seed=3" in out
        with open(tmp_path / "difficulty.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        heights = [int(r["height"]) for r in rows]
        assert heights == [0, 300, 600]
        # hash rate doubles at the first boundary: the second retarget sees
        # a halved span and pushes difficulty toward 2
        assert float(rows[2]["difficulty"]) == pytest.approx(2.0, rel=0.25)


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1


# a number, a "key": value pair, and what a mutation puts in their place
_NUMBER = rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?"
_PAIR = rb'"\w+": (?:' + _NUMBER + rb"|true|false)"
_HUGE = [b"1" + b"0" * 400, b"9" * 5001, b"1e999", b"-1e400", b"1e-400", b"4" * 40 + b".5"]
_DUPLICATE = [b"0", b"-1", b"2.5", b"1e308", b"true", b"null", b'"7"', b"[]", b"{}"]
_NON_UTF8 = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xe9t\xe9", b"\x00"]


@st.composite
def mutated_config_text(draw):
    """The bytes of a bundled config, mutated once: truncated, a number nested
    in brackets (up to far past the decoder's depth), a key repeated with
    another value, a number made huge or non-finite, or non-UTF-8 bytes put in."""
    name = draw(st.sampled_from(["baseline", "fig2", "forkrate", "retarget"]))
    text = (resources.files("blocktime") / "scenarios" / f"{name}.json").read_bytes()
    kind = draw(st.sampled_from(["truncate", "nest", "duplicate", "huge", "nonfinite", "bytes"]))
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "bytes":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from(_NON_UTF8)) + text[at:]
    spans = [m.span() for m in re.finditer(_PAIR if kind == "duplicate" else _NUMBER, text)]
    a, b = draw(st.sampled_from(spans))
    if kind == "duplicate":  # json keeps the last value of a repeated key
        key = text[a:text.index(b":", a)]
        middle = text[a:b] + b", " + key + b": " + draw(st.sampled_from(_DUPLICATE))
    elif kind == "nest":
        depth = draw(st.sampled_from([1, 2, 64, 100_000]))
        middle = b"[" * depth + text[a:b] + b"]" * depth
    else:
        middle = draw(st.sampled_from(_HUGE if kind == "huge" else [b"NaN", b"Infinity", b"-Infinity"]))
    return text[:a] + middle + text[b:]


@settings(max_examples=200)
@given(mutated_config_text())
def test_mutated_config_text_never_exits_2(text):
    # exit 2 means a fault of the run; whatever the bytes, simulate either
    # runs them (0) or refuses them (1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "wb") as fh:
            fh.write(text)
        try:
            config = SimConfig.from_json(path)
        except ValueError:
            config = None  # main refuses it too, and fast
        # a run delivers each block to every node: a draw that builds with
        # more than 2,000 deliveries would run long (forkrate, retarget, a
        # huge node count) and is only built
        if config is not None and config.nodes * config.stop.blocks > 2000:
            return
        assert main(["simulate", "--config", path, "--outdir", tmp]) in (0, 1)
