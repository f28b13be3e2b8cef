"""Smoke test: every demo, and the README's quick start, runs to completion
against the current library."""
import re
import runpy
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


def test_all_four_demos_are_found():
    assert [path.name[:2] for path in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path, capsys):
    # Run a copy, so that a demo writing next to itself (04 writes
    # period3_profile.csv) writes under tmp_path, not into demos/.
    copy = tmp_path / demo.name
    shutil.copyfile(demo, copy)
    runpy.run_path(str(copy), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start_runs(tmp_path):
    # The README's one python block is run as a script, so the docs cannot
    # drift from the API.
    (block,) = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    script = tmp_path / "readme_quick_start.py"
    script.write_text(block)
    runpy.run_path(str(script), run_name="__main__")
