"""The README's code examples run as written."""

import re
from importlib import resources
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(tmp_path, monkeypatch):
    """The ```python block under `## Library` runs, reading `scenario.json`
    (the bundled baseline) from its working directory."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    baseline = resources.files("blocktime") / "scenarios" / "baseline.json"
    (tmp_path / "scenario.json").write_text(baseline.read_text())
    monkeypatch.chdir(tmp_path)
    exec(compile(code, f"{README}:Library", "exec"), {})
