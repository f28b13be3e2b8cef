"""The environment a result was measured in, recorded with every result."""
from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_bytes() -> dict[str, int]:
    """Cache sizes as glibc reports them (``getconf``), empty when unavailable."""
    try:
        text = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                              timeout=10, check=False).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    sizes = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1].isdigit():
            sizes[parts[0].removesuffix("_SIZE")] = int(parts[1])
    return sizes


def _blas() -> str:
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def program_digest(src: Path) -> str:
    """sha256 over the package's source files, in path order."""
    h = hashlib.sha256()
    for path in sorted((src / "symspec").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(src: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache_bytes": _cache_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_settings": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "program_sha256": program_digest(src),
    }
