"""Tests of the benchmark's own machinery.

    python -m pytest perfbench/tests

from the root of a checkout. They run the CLI in-process on tiny inputs.
"""
import contextlib
import io
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import symspec.cli as cli  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def test_tracer_records_every_spectrum_call():
    assert tracer.spectrum_call_counts(cli.main, ("base", "zcurve")) == (0, 2, 2)
    assert tracer.spectrum_call_counts(cli.main, ("base", "zcurve", "tetrahedron")) == (0, 3, 4)


def test_instrument_rebinds_direct_imports_and_restores_them():
    before = (cli.build_indicators, cli.spectral.spectrum_base, cli.spectral.apply_representation)
    with tracer.instrument(tracer.Tracer()):
        assert cli.build_indicators is not before[0]
        assert cli.spectral.spectrum_base is not before[1]
        assert cli.spectral.apply_representation is not before[2]
    assert (cli.build_indicators, cli.spectral.spectrum_base,
            cli.spectral.apply_representation) == before


def test_memory_peaks_nest():
    rec = tracer.Tracer(memory=True)
    tracemalloc.start()
    try:
        with rec.span("outer"):
            with rec.span("inner"):
                a = np.ones(1_000_000)  # 8 MB
                del a
            b = np.ones(250_000)  # 2 MB, after the inner peak
            del b
    finally:
        tracemalloc.stop()
    outer, inner = rec.spans
    assert inner.parent == 0 and outer.parent == -1
    assert 8e6 <= inner.peak_bytes < 9e6
    assert outer.peak_bytes >= inner.peak_bytes


def test_self_time_excludes_children():
    spans = [tracer.Span("a", 0, 100, -1, 0), tracer.Span("b", 10, 40, 0, 0),
             tracer.Span("c", 50, 70, 0, 0), tracer.Span("d", 55, 60, 2, 0)]
    assert tracer.self_times(spans) == [50e-9, 30e-9, 15e-9, 5e-9]


@pytest.mark.parametrize("alphabet,command,reps,fmt", [
    (workloads.DNA, "analyze", ("base", "zcurve", "tetrahedron"), "json"),
    (workloads.DNA, "spectrum", ("zcurve",), "json"),
    (workloads.DNA, "spectrum", ("tetrahedron",), "csv"),
    (workloads.DNA, "analyze", ("base", "helmert"), "csv"),
    (workloads.PROTEIN, "compare", ("base", "helmert"), "json"),
    (workloads.PROTEIN, "analyze", ("helmert",), "json"),
    (workloads.PROTEIN, "spectrum", ("base",), "csv"),
])
def test_checks_pass_real_output_and_catch_a_wrong_value(tmp_path, alphabet, command, reps, fmt):
    inp = workloads.write_fasta(tmp_path / "in.fa", alphabet, 601, np.random.default_rng(5))
    inv = workloads.analysis("t", command, inp, reps, fmt)
    code, text = _run_cli(inv.argv)
    outcome = checks.Checker().check(inv, code, text)
    assert outcome.problems == [] and outcome.symbols == 601

    if fmt == "json":
        obj = json.loads(text)
        if command == "spectrum":
            obj["power"][7] *= 1 + 1e-6
        elif command == "analyze":
            obj["representations"][-1]["peak"]["power"] *= 1 + 1e-6
        else:
            obj["methods"][-1]["total_spectra"] *= 1 + 1e-6
        broken = json.dumps(obj)
    else:
        lines = text.splitlines()
        lines.pop(5)  # one missing row
        broken = "\n".join(lines)
    assert checks.Checker().check(inv, code, broken).problems


def test_verify_check_counts_symbols_and_catches_a_fail():
    inv = workloads.verify("v", 20, 3, 4, ("zcurve", "tetrahedron", "helmert"))
    code, text = _run_cli(inv.argv)
    outcome = checks.Checker().check(inv, code, text)
    obj = json.loads(text)
    assert outcome.problems == []
    assert outcome.symbols == sum(r["m"] for r in obj["results"])
    failing = json.loads(text)
    failing["results"][0]["snr_ratio"][1]["pass"] = False
    assert checks.Checker().check(inv, code, json.dumps(failing)).problems
    missing = json.loads(text)
    del missing["results"][0]["snr_ratio"][2]
    assert checks.Checker().check(inv, code, json.dumps(missing)).problems


def test_direct_dft_matches_fft(tmp_path):
    inp = workloads.write_fasta(tmp_path / "in.fa", workloads.DNA, 97, np.random.default_rng(1))
    rows = (np.arange(4)[:, None] == inp.codes[None, :]).astype(float)
    power = np.sum(np.abs(np.fft.fft(rows, axis=1)) ** 2, axis=0)
    ref = checks.reference(inp, "base")
    checker = checks.Checker()
    for k in (1, 32, 96):
        assert checker.direct_power(inp, ref, k) == pytest.approx(power[k], rel=1e-12)
    assert ref.p0 == pytest.approx(power[0], rel=1e-12)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_reference_task_is_fixed_and_does_not_use_symspec():
    code = ("import runpy, sys; sys.argv = sys.argv[1:]; "
            "runpy.run_path(sys.argv[0], run_name='__main__'); "
            "assert 'symspec' not in sys.modules")
    task = workloads.REFERENCE_TASKS["export"]
    argv = [sys.executable, "-c", code, str(run.REFERENCE_TASK), *task.argv]
    outs = [subprocess.run(argv, capture_output=True, check=True).stdout for _ in range(2)]
    assert outs[0] == outs[1] and outs[0].count(b"\n") == task.m


def test_refuses_to_run_without_the_package(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 2
