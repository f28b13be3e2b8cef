"""Shared test helpers."""
import os
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

import symspec
from symspec import spectral


def child_env() -> dict:
    """The environment for a Python child that imports symspec.

    This process's environment, with PYTHONPATH set to the directory that
    holds the symspec package under test, so the child runs that code
    whatever the caller's PYTHONPATH, and without glibc's malloc tunables,
    so its malloc is as ``entry()`` leaves it.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
    return {**env, "PYTHONPATH": str(Path(symspec.__file__).parents[1])}


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

    ``tables`` gets the shapes of each call's tables. For each half
    spectrum the kernel yields, ``halves`` gets a weak reference to it and
    ``alive`` which earlier halves are still alive; ``live()`` tells which
    are alive now.
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
