"""The README's examples run as written.

`commands()` is the one reader of the "Command line" block: tier-1 runs
each line through `cli.main`, and CI runs the same lines through the
installed console script:

    python tests/test_readme.py | while read -r line; do ...; done
"""

import json
import re
import shlex
from pathlib import Path

import pytest

import corpus
from blocktime.cli import main
from blocktime.sim import SimConfig

README = Path(__file__).resolve().parents[1] / "README.md"
BASELINE = corpus.scenario_file("baseline")


def section(title):
    """The text under `## title`, up to the next section."""
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def commands():
    """Each `blocktime ...` line of the "Command line" block, as written."""
    block = re.search(r"```\n(.*?)```", section("Command line"), re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("blocktime ")]


@pytest.mark.parametrize("line", commands())
def test_command_line_example_runs(line, tmp_path, monkeypatch, capsys):
    """Each command exits 0 from a directory that holds the bundled
    baseline as `my_scenario.json`."""
    (tmp_path / "my_scenario.json").write_text(BASELINE.read_text())
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BLOCKTIME_OUTDIR", raising=False)
    assert main(shlex.split(line)[1:]) == 0, capsys.readouterr().err


def test_config_schema_example_builds():
    block = re.search(r"```json\n(.*?)```", section("Scenario config schema"), re.S).group(1)
    SimConfig.from_dict(json.loads(block))


def test_library_example_runs(tmp_path, monkeypatch):
    """The ```python block under `## Library` runs, reading `scenario.json`
    (the bundled baseline) from its working directory."""
    code = re.search(r"```python\n(.*?)```", section("Library"), re.S).group(1)
    (tmp_path / "scenario.json").write_text(BASELINE.read_text())
    monkeypatch.chdir(tmp_path)
    exec(compile(code, f"{README}:Library", "exec"), {})


if __name__ == "__main__":
    print("\n".join(commands()))
