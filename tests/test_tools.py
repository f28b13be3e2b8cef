"""The scripts under tools/, run as a child the way a user runs them."""
import os
import subprocess
import sys
from pathlib import Path

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
