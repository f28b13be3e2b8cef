"""Span recorder for the traced run.

``instrument`` wraps every public function of symspec's ``sequences``,
``representations`` and ``spectral`` modules, and rebinds each name through
which a caller reaches one: ``cli`` imports names directly, and ``spectral``
calls its own ``spectrum_base`` and its imported ``apply_representation``.
Nothing in the package is edited on disk; the original bindings come back
when the ``instrument`` block ends.

Spans are kept in memory as (name, start, end, parent, request) and written
out by the caller when the run ends. With ``memory=True`` each span also
records the peak tracemalloc allocation above its starting level; that pass
is kept apart from the timed one because tracemalloc slows Python-level code,
and it traces allocations only while a layer function runs.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

from checks import IDENTITY_RTOL

LAYERS = ("sequences", "representations", "spectral")

# Functions a per-layer metric names; instrument() fails loudly if one is
# renamed or removed, instead of reading that layer as zero.
REQUIRED = (
    "sequences.parse_fasta", "sequences.sequence_from_string", "sequences.random_sequence",
    "representations.build_indicators", "representations.apply_representation",
    "spectral.spectrum_base", "spectral.spectrum_transformed",
    "spectral.snr_ratio_check", "spectral.verify_total_spectrum",
)
SPECTRUM_CALLS = ("spectral.spectrum_base", "spectral.spectrum_transformed")


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index into Tracer.spans, -1 for a root
    request: int
    peak_bytes: int = 0  # memory passes only: peak allocation above the level at entry


def _fft_rows(name, args) -> int:
    """Rows transformed by one spectrum call, from the shape of its argument."""
    if name == "spectral.spectrum_base":
        return args[0].alphabet.size
    return args[0].n_channels


def _gate_use(name, result) -> float:
    """Share of the identity gate a check used (1.0 means exactly at the gate)."""
    if name == "spectral.verify_total_spectrum":
        return result.relative_error / IDENTITY_RTOL
    return 0.0 if result.vacuous else result.max_deviation / (IDENTITY_RTOL * result.expected)


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.fft_rows = 0
        self.gate_use_max = 0.0
        self._stack: list[int] = []
        self._peaks: list[int] = []  # running peak of each open span (memory passes)
        self._started: int | None = None  # span that started tracemalloc
        self.request = 0

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        level = 0
        if self.memory:
            if not tracemalloc.is_tracing():
                # Trace only inside layer calls, so that the CLI's render loop
                # between them runs at full speed.
                tracemalloc.start()
                self._started = idx
            # tracemalloc keeps one global peak, so fold it into the enclosing
            # span's running peak before resetting it for this span.
            level, peak = tracemalloc.get_traced_memory()
            if self._peaks:
                self._peaks[-1] = max(self._peaks[-1], peak)
            tracemalloc.reset_peak()
            self._peaks.append(level)
        span = Span(name, time.perf_counter_ns(), 0, parent, self.request)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()
            if self.memory:
                peak = max(self._peaks.pop(), tracemalloc.get_traced_memory()[1])
                span.peak_bytes = peak - level
                if self._peaks:
                    self._peaks[-1] = max(self._peaks[-1], peak)
                tracemalloc.reset_peak()
                if self._started == idx:
                    tracemalloc.stop()
                    self._started = None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if name in SPECTRUM_CALLS:
                self.fft_rows += _fft_rows(name, args)
            elif name in ("spectral.snr_ratio_check", "spectral.verify_total_spectrum"):
                self.gate_use_max = max(self.gate_use_max, _gate_use(name, result))
            return result

        return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every caller of a public layer function through *tracer*."""
    wrappers: dict[int, object] = {}
    found = set()
    for layer in LAYERS:
        module = importlib.import_module(f"symspec.{layer}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                wrappers[id(fn)] = tracer.wrap(f"{layer}.{attr}", fn)
                found.add(f"{layer}.{attr}")
    missing = sorted(set(REQUIRED) - found)
    if missing:
        raise LookupError(f"traced functions missing from symspec: {', '.join(missing)}")
    patched = []
    for modname, module in list(sys.modules.items()):
        if modname == "symspec" or modname.startswith("symspec."):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
                    patched.append((module, attr, value))
    try:
        yield tracer
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover, in seconds."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_ns[s.parent] += s.end - s.start
    return [(s.end - s.start - c) / 1e9 for s, c in zip(spans, child_ns)]


def layer_metrics(tracer: Tracer, needed_spectra: int) -> dict[str, float]:
    """Per-layer figures of one traced pass whose invocations need *needed_spectra*."""
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span, t in zip(tracer.spans, self_times(tracer.spans)):
        self_s[span.name] += t
        calls[span.name] += 1
    out = {}
    for name in REQUIRED:
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.calls"] = calls[name]
    out["cli.self_s"] = self_s["cli.main"]
    out["spectral.fft_rows"] = tracer.fft_rows
    spectra = sum(calls[name] for name in SPECTRUM_CALLS)
    out["spectral.spectra_useful_ratio"] = needed_spectra / spectra if spectra else 0.0
    out["spectral.gate_use_max"] = tracer.gate_use_max
    return out


def peak_alloc_mb(tracer: Tracer) -> dict[str, float]:
    """Largest allocation peak of each function over a memory pass, and of the spectral layer."""
    peaks: dict[str, int] = defaultdict(int)
    for span in tracer.spans:
        peaks[span.name] = max(peaks[span.name], span.peak_bytes)
        layer = span.name.split(".", 1)[0]
        peaks[layer] = max(peaks[layer], span.peak_bytes)
    return {name: b / 2**20 for name, b in peaks.items()}


SELF_TEST_INPUT = ">selftest\nACGTTGCAACGGTACCATGCATTGACCGTA\n"


def spectrum_call_counts(cli_main, reps) -> tuple[int, int, int]:
    """Exit status and traced spectrum_base / spectrum_transformed calls of a
    tiny ``analyze`` over *reps*.

    A layer that the tracer no longer reaches (a renamed or rebound function)
    shows here as zero calls instead of silently reading as zero time.
    """
    argv = ["analyze", "--format", "json"] + [a for r in reps for a in ("--rep", r)]
    tracer = Tracer()
    stdin = sys.stdin
    sys.stdin = io.StringIO(SELF_TEST_INPUT)
    try:
        with instrument(tracer), contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
    finally:
        sys.stdin = stdin
    calls = layer_metrics(tracer, 1)
    return code, calls["spectral.spectrum_base.calls"], calls["spectral.spectrum_transformed.calls"]
