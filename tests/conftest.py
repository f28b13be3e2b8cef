"""Shared test helpers."""
import os
from pathlib import Path

import numpy as np

import symspec


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
