"""CLI behavior: flags, outputs, exit codes, reproducibility."""

import csv
import json
import math
from importlib import resources

import pytest

from blocktime import analytic as an
from blocktime.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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

    def test_fork(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "fork", "--lambda", "0.00166667", "--tau", "2")
        assert code == 0
        assert float(out) == pytest.approx(5.543e-6, rel=1e-3)

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

    @pytest.mark.parametrize("flags, name", [
        (["--q", "0.3", "--step-cap", "0"], "step-cap"),
        (["--q", "0.6", "--step-cap", "-5"], "step-cap"),
        (["--q", "0.3", "--seed", "-1"], "seed"),
    ], ids=["step-cap-zero", "step-cap-negative-majority", "seed-negative"])
    def test_bad_numbers_exit_one(self, capsys, flags, name):
        code, out, err = run_cli(capsys, "race", "--k", "3", "--trials", "1000", *flags)
        assert code == 1
        assert out == ""
        assert err.startswith(("usage error: ", "error: ")) and err.count("\n") == 1
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

    def test_bad_step(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "entropy", "--outdir", str(tmp_path), "--step", "0")
        assert code == 1


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
        assert {r["quantity"] for r in rows} == {"tail_frequency"}  # zero-delay run
        assert list(rows[0]) == ["quantity", "analytic", "empirical", "n", "stderr", "z"]

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
        with open(tmp_path / "reports.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["quantity"] for r in rows] == [
            "fork_rate", "fork_episode_rate", "multi_discovery_window_rate", "tail_frequency"]
        assert rows[1]["empirical"] == rows[0]["empirical"]

    @pytest.mark.parametrize("key, value", [
        ("seed", 1.7),
        ("stop", {"blocks": 2.5}),
        ("nominal_hashrate", math.inf),
        ("delay", {"fixed": math.nan}),
        ("rules", {"mpt_window": 2.5}),
    ], ids=["seed", "stop.blocks", "nominal_hashrate", "delay.fixed", "rules.mpt_window"])
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

    def test_invalid_config_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"miners": []}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(bad),
                               "--outdir", str(tmp_path))
        assert code == 1

    def test_outdir_env_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BLOCKTIME_OUTDIR", str(tmp_path / "envout"))
        code, _, _ = run_cli(capsys, "simulate", "--config", "fig2")
        assert code == 0
        assert (tmp_path / "envout" / "blocks.csv").exists()


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
