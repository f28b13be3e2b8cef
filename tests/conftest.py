"""Shared test helpers.

Each harness is written once here: ``run_main`` runs the command line in
this process, ``run_child`` runs it as a ``python -m symspec`` child,
``child_usage`` reads a child's resource usage and ``traced`` reads the
bytes that ``tracemalloc`` sees during a call.
"""
import contextlib
import gc
import io
import os
import subprocess
import sys
import tracemalloc
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

import symspec
from symspec import cli, spectral


def child_env() -> dict:
    """The environment for a Python child that imports symspec.

    This process's environment, with PYTHONPATH set to the directory that
    holds the symspec package under test, so the child runs that code
    whatever the caller's PYTHONPATH, and without glibc's malloc tunables,
    so its malloc is as ``entry()`` leaves it.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
    return {**env, "PYTHONPATH": str(Path(symspec.__file__).parents[1])}


def _bytes(stdin: str | bytes) -> bytes:
    return stdin.encode() if isinstance(stdin, str) else stdin


def run_main(argv: list[str], stdin: str | bytes = "", entry: bool = False) -> tuple[int, str, str]:
    """Run ``cli.main(argv)`` in this process with *stdin* (text is UTF-8
    encoded) as the bytes of its standard input: (exit code, stdout, stderr).

    With *entry*, run ``cli.entry()``, the path of ``python -m symspec``,
    with *argv* as its command line instead; the heap that it freezes is
    unfrozen afterwards, so no caller is left with a frozen heap. It runs
    outside pytest too: ``python tests/test_golden.py --write`` uses it.
    """
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.argv
    sys.stdin, sys.argv = io.TextIOWrapper(io.BytesIO(_bytes(stdin)), encoding="utf-8"), ["symspec", *argv]
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if not entry:
                code = cli.main(argv)
            else:
                try:
                    cli.entry()
                except SystemExit as exc:
                    code = exc.code
    finally:
        sys.stdin, sys.argv = saved
        if entry:
            gc.unfreeze()
    return code, out.getvalue(), err.getvalue()


def run_child(argv: list[str], stdin: str | bytes = "", dev: bool = False) -> tuple[int, str, str]:
    """Run ``python -m symspec *argv*`` (with *dev*, under ``-X dev``) as a
    child in ``child_env()``, *stdin* as its input: (exit status, stdout,
    stderr), decoded as UTF-8."""
    flags = ["-X", "dev"] if dev else []
    proc = subprocess.run([sys.executable, *flags, "-m", "symspec", *argv],
                          input=_bytes(stdin), capture_output=True, env=child_env())
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


# Runs the command in argv[2:], its stdout to the file argv[1], and prints
# the child's exit status, ru_maxrss (KiB on Linux) and ru_minflt. It does
# not import numpy: a child exec'd from a process starts from that
# process's RSS high-water mark.
_USAGE_LAUNCHER = """
import os, subprocess, sys
with open(sys.argv[1], "wb") as out:
    proc = subprocess.Popen(sys.argv[2:], stdout=out)
    _, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, usage.ru_minflt)
"""


def child_usage(args: list[str], stdout=os.devnull, env: dict | None = None) -> tuple[int, int, int]:
    """Run ``python *args*`` as a child, its stdout written to the file
    *stdout*, in *env* (``child_env()`` by default): (exit status,
    ru_maxrss, ru_minflt) of that child alone."""
    out = subprocess.run([sys.executable, "-c", _USAGE_LAUNCHER, str(stdout), sys.executable, *args],
                         env=env or child_env(), capture_output=True, text=True, check=True).stdout
    status, maxrss, minflt = map(int, out.split())
    return status, maxrss, minflt


def traced(call, *args, **kwargs):
    """Run ``call(*args, **kwargs)`` with tracemalloc on: (its result, the
    current and the peak traced bytes), both read while the result is alive."""
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


def dft_max_deviation(a, b) -> float:
    """Largest per-bin deviation between two spectra, measured relative to
    the larger of the two magnitudes with an absolute floor of 1."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / scale))


@pytest.fixture
def kernel(monkeypatch):
    """Watch ``spectral._powers``, the kernel that every spectrum of every
    command passes through: reports, and ``check_record``'s checks.

    ``tables`` gets the shapes of each call's tables. For each array the
    kernel yields (the half spectra of one pack's tables, one row each),
    ``halves`` gets a weak reference to it and ``alive`` which earlier
    arrays are still alive; ``live()`` tells which are alive now.
    """
    powers = spectral._powers
    seen = types.SimpleNamespace(tables=[], halves=[], alive=[])
    seen.live = lambda: [ref() is not None for ref in seen.halves]

    def watched(half):
        seen.alive.append(seen.live())
        seen.halves.append(weakref.ref(half))
        return half

    def watching(tables, codes):
        seen.tables.append([table.shape for table in tables])
        return map(watched, powers(tables, codes))  # map holds no half once it is handed over

    monkeypatch.setattr(spectral, "_powers", watching)
    return seen
