"""The scripts under tools/, run as a child the way a user runs them."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def test_loc_ends_quietly_when_the_reader_goes_away():
    """Regression: ``python tools/loc.py | head -1`` ended in a
    BrokenPipeError traceback. The child's stdout is a pipe whose read end
    is closed before it starts, so its first write fails."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-X", "dev", str(ROOT / "tools" / "loc.py")], cwd=ROOT,
                              stdout=write, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_repr_sweep_counts_no_mismatch():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "repr_sweep.py"), "20000", "--seed", "3"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 mismatches in 20000 values (seed 3)\n", "")


def test_repr_sweep_exits_1_on_a_mismatch(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("repr_sweep", ROOT / "tools" / "repr_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    reprs = sweep.reprs
    monkeypatch.setattr(sweep, "reprs", lambda values: reprs(np.where(values == values[7], 1.5, values)))
    assert sweep.main(["50", "--seed", "1"]) == 1
    head, example = capsys.readouterr().out.splitlines()
    assert head == "1 mismatches in 50 values (seed 1)"
    x = np.random.default_rng(1).integers(0, 2**64, 50, dtype=np.uint64).view(np.float64)[7].item()
    assert example == f"  {x.hex()}: kernel '1.5', repr {float.__repr__(x)!r}"
