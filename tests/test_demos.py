"""Smoke test: every demo runs to completion against the current library."""
import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("[0-9][0-9]_*.py"))


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
