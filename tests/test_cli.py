import argparse
import ctypes
import csv
import dataclasses
import io
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from symspec import build_helmert, build_zcurve, cli, save_matrix, spectral, validate_row_orthogonal
from symspec.cli import _write_profile_csv, _write_profile_json, main
from conftest import child_env


@pytest.fixture
def run(monkeypatch, capsys):
    def _run(argv, stdin_text="", stdin_bytes=None):
        data = stdin_text.encode() if stdin_bytes is None else stdin_bytes
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


class TestAnalyze:
    def test_text_report_flags_rounded_peak(self, run):
        code, out, err = run(
            ["analyze", "--alphabet", "ACGT", "--rep", "base", "--rep", "zcurve"],
            stdin_text="ACGT",
        )
        assert code == 0, err
        assert "k = 1" in out
        assert "rounded, not exact" in out
        assert "snr = 1.0000" in out
        assert "snr = 1.3333" in out

    def test_json_schema(self, run):
        code, out, _ = run(
            ["analyze", "--alphabet", "ACGT", "--rep", "base", "--rep", "zcurve",
             "--format", "json"],
            stdin_text="ACGT",
        )
        assert code == 0
        obj = json.loads(out)
        assert {"input", "m", "alphabet", "representations"} <= set(obj)
        assert obj["m"] == 4
        assert obj["alphabet"] == "ACGT"
        base, zcurve = obj["representations"]
        for entry in (base, zcurve):
            assert {"name", "d", "total", "mean_noise", "peak", "theorem_checks"} <= set(entry)
            checks = entry["theorem_checks"]
            assert {"expected", "measured", "pass"} <= set(checks["total_spectrum"])
            assert {"expected", "max_dev", "pass"} <= set(checks["snr_ratio"])
        assert base["d"] is None and base["total"] == 16.0
        assert zcurve["d"] == 2.0 and zcurve["total"] == pytest.approx(48.0)
        assert zcurve["peak"] == {
            "k": 1, "exact": False,
            "power": pytest.approx(16.0), "snr": pytest.approx(4 / 3),
        }

    def test_csv_profile(self, run):
        code, out, _ = run(
            ["analyze", "--alphabet", "ACGT", "--rep", "base", "--format", "csv"],
            stdin_text="ACGT",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "representation,k,frequency,power,snr"
        assert len(lines) == 4
        assert lines[1] == "base,1,0.25,4.0,1.0"

    def test_rejects_bad_matrix_file(self, run, tmp_path):
        bad = tmp_path / "badmatrix.json"
        bad.write_text(json.dumps({
            "name": "bad", "alphabet_order": None,
            "rows": [[1, -1, 1, -1], [1, 1, -1, -1], [1, 1, 1, -3]],
            "d": 2.0,
        }))
        code, _, err = run(
            ["analyze", "--alphabet", "ACGT", "--rep", f"file:{bad}"],
            stdin_text="ACGT",
        )
        assert code != 0
        assert "rows not orthogonal" in err

    def test_matrix_file_representation_works(self, run, tmp_path):
        path = tmp_path / "zcurve.json"
        save_matrix(build_zcurve(), path)
        code, out, _ = run(
            ["analyze", "--alphabet", "ACGT", "--rep", f"file:{path}", "--format", "json"],
            stdin_text="ACGT",
        )
        assert code == 0
        assert json.loads(out)["representations"][0]["total"] == pytest.approx(48.0)

    def test_period_beyond_length_is_vacuous_not_error(self, run):
        code, out, _ = run(["analyze", "--alphabet", "ACGT"], stdin_text="A")
        assert code == 0
        assert "peak           : none" in out

    def test_rejects_multi_record_input(self, run):
        code, _, err = run(
            ["analyze", "--alphabet", "ACGT"], stdin_text=">a\nAC\n>b\nGT\n"
        )
        assert code == 2
        assert "exactly one" in err

    def test_missing_input_file(self, run):
        code, _, err = run(["analyze", "--input", "/nonexistent/f.fasta"])
        assert code == 2
        assert err

    def test_undecodable_stdin_is_rejected(self, run):
        # Regression: b"\xff\xfe" used to be read as a T = 2 sequence, exit 0.
        code, out, err = run(["analyze"], stdin_bytes=b"\xff\xfe")
        assert code == 2
        assert out == ""
        assert err.startswith("symspec: error: -: input is not UTF-8 text")

    def test_text_stream_in_place_of_stdin_is_read(self, monkeypatch, capsys):
        # Callers that embed main() may swap in a text stream with no .buffer.
        monkeypatch.setattr(sys, "stdin", io.StringIO("ACGT"))
        assert main(["analyze", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["m"] == 4

    def test_undecodable_input_file_is_rejected(self, run, tmp_path):
        path = tmp_path / "bad.fa"
        path.write_bytes(b">x\nAC\xffGT\n")
        code, _, err = run(["analyze", "--input", str(path)])
        assert code == 2
        assert f"{path}: input is not UTF-8 text" in err

    def test_output_file(self, run, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            ["analyze", "--alphabet", "ACGT", "--format", "json", "--output", str(out_path)],
            stdin_text="ACGT",
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["m"] == 4


class TestCompare:
    def test_table_has_reference_field_names(self, run):
        code, out, _ = run(
            ["compare", "--alphabet", "ACGT", "--rep", "base", "--rep", "zcurve"],
            stdin_text="ACGACGACGACG",
        )
        assert code == 0
        for field in ("Length", "Total Spectra", "Mean Noise", "3-Periodicity", "SNR"):
            assert field in out
        assert "measured 1.3333" in out
        assert "theoretical 1.3333" in out

    def test_degenerate_sequence_reports_indeterminate(self, run):
        code, out, _ = run(
            ["compare", "--alphabet", "ACGT", "--rep", "base", "--rep", "zcurve"],
            stdin_text="AAAA",
        )
        assert code == 0
        assert "indeterminate" in out

    def test_zcurve_vs_tetrahedron(self, run):
        rng = np.random.default_rng(42)
        body = "".join("ACGT"[i] for i in rng.integers(0, 4, size=240))
        code, out, _ = run(
            ["compare", "--alphabet", "ACGT", "--rep", "zcurve", "--rep", "tetrahedron",
             "--format", "json"],
            stdin_text=body,
        )
        assert code == 0
        obj = json.loads(out)
        z, t = obj["methods"]
        assert z["total_spectra"] / t["total_spectra"] == pytest.approx(3.0, rel=1e-12)
        assert z["periodicity_snr"] == pytest.approx(t["periodicity_snr"], rel=1e-9)
        (ratio,) = obj["ratios"]
        assert ratio["theoretical"] == pytest.approx(1.0)
        assert ratio["measured"] == pytest.approx(1.0, rel=1e-9)

    def test_requires_two_representations(self, run):
        code, _, err = run(
            ["compare", "--alphabet", "ACGT", "--rep", "base"], stdin_text="ACGT"
        )
        assert code == 2
        assert "at least two" in err

    def test_too_few_representations_rejected_before_input_is_read(self, run):
        code, out, err = run(["compare", "--rep", "base"], stdin_bytes=b"\xff\xfeACGT")
        assert code == 2
        assert out == ""
        assert err == "symspec: error: compare needs at least two --rep selections\n"

    def test_csv_fields(self, run):
        code, out, _ = run(
            ["compare", "--alphabet", "ACGT", "--rep", "base", "--rep", "zcurve",
             "--format", "csv"],
            stdin_text="ACGTACGTACGT",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("method,length,total_spectra,mean_noise")
        assert len(lines) == 3


class TestVerify:
    def test_random_dna_passes(self, run):
        code, out, _ = run(["verify", "--random", "5", "--seed", "3"])
        assert code == 0
        assert "result: PASS (5/5 sequences)" in out
        assert "seed = 3" in out

    def test_protein_ratio_is_twenty_nineteenths(self, run):
        code, out, _ = run(
            ["verify", "--random", "2", "--seed", "1", "--alphabet-size", "20",
             "--format", "json"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["all_pass"] is True
        assert obj["representations"] == ["helmert"]
        for result in obj["results"]:
            for ratio in result["snr_ratio"]:
                assert ratio["expected"] == pytest.approx(20 / 19)

    def test_single_symbol_input_is_vacuous(self, run):
        code, out, _ = run(["verify", "--alphabet", "ACGT"], stdin_text="AAAA")
        assert code == 0
        assert "vacuous (no nonzero base bins)" in out
        assert "result: PASS" in out

    def test_rejects_base_as_transform(self, run):
        code, _, err = run(
            ["verify", "--random", "1", "--rep", "base"]
        )
        assert code == 2
        assert "base" in err

    def test_rejects_csv_format(self, run):
        code, _, err = run(["verify", "--random", "1", "--format", "csv"])
        assert code == 2
        assert "text or json" in err

    def test_csv_format_rejected_before_input_is_read(self, run):
        code, out, err = run(["verify", "--format", "csv"], stdin_bytes=b"\xff\xfeACGT")
        assert code == 2
        assert out == ""
        assert err == "symspec: error: verify supports --format text or json\n"

    def test_json_runs_are_identical(self, run):
        argv = ["verify", "--random", "4", "--seed", "7", "--format", "json"]
        code1, out1, _ = run(argv)
        code2, out2, _ = run(argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_has_no_period_option(self, run, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--random", "1", "--period", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --period 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--seed", "3"], "--seed and --alphabet-size apply only with --random"),
        (["--alphabet-size", "20"], "--seed and --alphabet-size apply only with --random"),
        (["--random", "1", "--input", "-"], "--random makes its own sequences; it takes no --input or --alphabet"),
        (["--random", "1", "--alphabet", "auto"], "--random makes its own sequences; it takes no --input or --alphabet"),
    ])
    def test_flags_for_the_other_mode_are_rejected_before_input_is_read(self, run, flags, message):
        code, out, err = run(["verify", *flags], stdin_bytes=b"\xff\xfeACGT")
        assert (code, out, err) == (2, "", f"symspec: error: {message}\n")

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_rejects_nonpositive_random_count(self, run, count):
        code, out, err = run(["verify", "--random", count], stdin_text=">x\nACGT\n")
        assert code == 2
        assert out == ""
        assert "positive count" in err

    def test_rejects_negative_seed_before_drawing(self, run, monkeypatch):
        monkeypatch.setattr(cli, "random_sequence", None)  # any draw would raise TypeError
        code, out, err = run(["verify", "--random", "2", "--seed", "-1"])
        assert (code, out, err) == (2, "", "symspec: error: --seed must be a non-negative integer, got -1\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_failed_transform_total_fails_its_record(self, run, monkeypatch, fmt):
        """verify judges each representation it computes, the base and every
        transform, by its total and its SNR ratios, as analyze does."""
        checked = spectral.verify_total_spectrum

        def transforms_fail(ind, *, report=None):
            check = checked(ind, report=report)
            return check if report.d is None else dataclasses.replace(check, relative_error=1.0)

        monkeypatch.setattr(spectral, "verify_total_spectrum", transforms_fail)
        code, out, _ = run(["verify", "--random", "3", "--seed", "3", "--format", fmt])
        assert code == 1
        if fmt == "json":
            obj = json.loads(out)
            assert obj["all_pass"] is False
            # What the report shows still passes: the base total and the ratios.
            assert all(r["total_spectrum"]["pass"] for r in obj["results"])
        else:
            assert "result: FAIL (0/3 sequences)" in out
            for name in ("zcurve", "tetrahedron", "helmert"):
                assert out.count(f" {name} FAIL (total rel err 1, max dev ") == 3, out


class TestVerifyHoldsOneRecord:
    """verify draws each --random sequence just before its checks and keeps
    only each record's rendered text until the output is written, once,
    after the last record."""

    @pytest.mark.parametrize("fmt, per_record", [("json", 4096), ("text", 1024)])
    def test_peak_grows_little_per_record(self, tmp_path, fmt, per_record):
        def peak(n):
            tracemalloc.start()
            try:
                code = main(["verify", "--random", str(n), "--seed", "1", "--format", fmt,
                             "--output", str(tmp_path / "out")])
                return code, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # first-call costs paid before the measured runs
        (small_code, small), (large_code, large) = peak(100), peak(1000)
        assert small_code == large_code == 0
        assert (large - small) / 900 < per_record, (small, large)

    def test_one_sequence_alive_when_the_next_is_drawn(self, run, monkeypatch):
        made, alive = [], []
        draw = cli.random_sequence

        def tracking(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in made))
            seq = draw(*args, **kwargs)
            made.append(weakref.ref(seq))
            return seq

        monkeypatch.setattr(cli, "random_sequence", tracking)
        code, _, err = run(["verify", "--random", "300"])
        assert code == 0, err
        assert len(alive) == 300
        assert max(alive) <= 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_an_error_in_a_later_record_writes_nothing(self, run, tmp_path, fmt):
        rep = _overflowing_matrix(tmp_path / "huge.json", build_zcurve().rows * 1e153)
        first, both, out_path = tmp_path / "a.fa", tmp_path / "ab.fa", tmp_path / "out.txt"
        first.write_text(">a\nACGTA\n")
        both.write_text(">a\nACGTA\n>b\nACGTTGCAACGGTAC\n")
        argv = ["verify", "--rep", rep, "--format", fmt]
        code, _, err = run(argv + ["--input", str(first)])
        assert code == 0, err
        message = f"symspec: error: representation {rep!r} at m = 15: its total spectrum overflows float64\n"
        assert run(argv + ["--input", str(both)]) == (2, "", message)
        assert run(argv + ["--input", str(both), "--output", str(out_path)]) == (2, "", message)
        assert not out_path.exists()


_ONE_OF_EACH_COMMAND = {
    "analyze": ["analyze", "--format", "json"],
    "compare": ["compare", "--rep", "base", "--rep", "helmert", "--format", "json"],
    "verify": ["verify", "--rep", "helmert", "--format", "json"],
    "spectrum": ["spectrum", "--format", "json"],
}


class TestHeaderlessInput:
    """Headerless input skips ';' comment lines, as FASTA input does, and an
    inferred alphabet never takes the FASTA markers '>' and ';' as symbols."""

    @pytest.mark.parametrize("command", sorted(_ONE_OF_EACH_COMMAND))
    def test_comment_lines_are_skipped(self, run, command):
        # Regression: ';c\nACGT' was read as ';CACGT' over the alphabet ';ACGT'.
        argv = _ONE_OF_EACH_COMMAND[command]
        code, out, err = run(argv, stdin_text=";c\nACGT\n;x\nTGCA\n")
        assert code == 0, err
        assert (code, out, err) == run(argv, stdin_text="ACGT\nTGCA\n")

    @pytest.mark.parametrize("command", sorted(_ONE_OF_EACH_COMMAND))
    def test_markers_are_rejected(self, run, command):
        # Regression: 'AC>GT 12' was analyzed over the alphabet '12>ACGT', exit 0.
        code, out, err = run(_ONE_OF_EACH_COMMAND[command], stdin_text="AC>GT 12\n")
        assert (code, out) == (2, "")
        assert err == (
            "symspec: error: -: character '>' at position 3 marks a FASTA header "
            "or comment and is never inferred as a symbol\n"
        )


class TestRecordSplitting:
    def test_text_before_first_header_is_one_headerless_record(self, run):
        code, out, err = run(["analyze", "--alphabet", "ACGT"], stdin_text="ACGT\n>x\nGG\n")
        assert (code, out) == (2, "")
        assert err == "symspec: error: -: character '>' at position 5 is not in alphabet ACGT\n"

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_comment_only_input_has_no_records(self, run, command):
        # Regression: this read as one empty record, "-: empty sequence".
        code, out, err = run([command], stdin_text=";only a comment\n")
        assert (code, out) == (2, "")
        assert err == "symspec: error: -: no sequence records in input\n"


class TestIndentedMarkers:
    """A line is a header or a comment when its first non-blank character
    is '>' or ';', wherever it stands in the input."""

    def test_indented_header_is_not_dropped(self, run):
        # Regression: analyze reported record 'y' alone, with m = 2, and exit 0.
        text = "\t>x\nACGTACGT\n>y\nGT\n"
        code, out, err = run(["analyze", "--alphabet", "ACGT"], stdin_text=text)
        assert (code, out) == (2, "")
        assert err == "symspec: error: -: input has 2 records; this command analyzes exactly one\n"
        code, out, err = run(["verify", "--alphabet", "ACGT", "--format", "json"], stdin_text=text)
        assert code == 0, err
        assert [(r["id"], r["m"]) for r in json.loads(out)["results"]] == [("x", 8), ("y", 2)]

    @pytest.mark.parametrize("text", ["  >id\nACGT\n", "  ;c\n>id\nACGT\n"])
    def test_indented_lines_read_as_unindented(self, run, text):
        argv = ["analyze", "--alphabet", "ACGT", "--rep", "base", "--rep", "zcurve"]
        code, out, err = run(argv, stdin_text=text)
        assert code == 0, err
        assert (code, out, err) == run(argv, stdin_text=text.replace("  ", ""))


class TestSpectraComputedOnce:
    """Each command computes the base spectrum once per sequence and one
    spectrum per transform, however many checks use them and however often
    --rep names it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"base": 0, "transformed": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(spectral, "spectrum_base", counting("base", spectral.spectrum_base))
        monkeypatch.setattr(
            spectral, "spectrum_transformed", counting("transformed", spectral.spectrum_transformed)
        )
        return counts

    def test_analyze(self, run, calls):
        reps = ["base", "zcurve", "tetrahedron", "zcurve", "base"]
        code, out, err = run(
            ["analyze", *(f"--rep={rep}" for rep in reps), "--format", "json"],
            stdin_text=">x\nACGTTGCAACGG\n",
        )
        assert code == 0, err
        assert calls == {"base": 1, "transformed": 2}
        entries = json.loads(out)["representations"]
        assert [e["name"] for e in entries] == reps
        assert entries[3] == entries[1] and entries[4] == entries[0]

    def test_compare(self, run, calls):
        code, _, err = run(
            ["compare", "--rep", "base", "--rep", "helmert", "--rep", "helmert"],
            stdin_text=">x\nACDEFGHIKLMNPQ\n",
        )
        assert code == 0, err
        assert calls == {"base": 1, "transformed": 1}

    def test_verify_two_records(self, run, calls):
        code, _, err = run(
            ["verify", "--rep", "zcurve", "--rep", "tetrahedron", "--rep", "helmert", "--rep", "helmert"],
            stdin_text=">a\nACGTTGCA\n>b\nGGCATTACA\n",
        )
        assert code == 0, err
        assert calls == {"base": 2, "transformed": 6}

    @pytest.mark.parametrize(
        "rep, expected", [("base", {"base": 1, "transformed": 0}), ("zcurve", {"base": 0, "transformed": 1})]
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_spectrum_computes_only_its_own(self, run, calls, rep, expected, fmt):
        code, _, err = run(["spectrum", "--rep", rep, "--format", fmt], stdin_text=">x\nACGTTGCAACGG\n")
        assert code == 0, err
        assert calls == expected


class TestRatioChecksKeepTheirHalf:
    """The CLI reads only the scalar fields of each RatioCheck, so it never
    builds a full-length ``ratios``."""

    @pytest.mark.parametrize(
        "argv, stdin_text",
        [
            (["analyze", "--rep", "base", "--rep", "zcurve", "--rep", "tetrahedron"], ">x\nACGTTGCAACGG\n"),
            (["compare", "--rep", "base", "--rep", "helmert", "--format", "json"], ">x\nACDEFGHIKLMNPQ\n"),
            (["verify", "--rep", "zcurve", "--rep", "helmert"], ">a\nACGTTGCA\n>b\nGGCATTACA\n"),
        ],
        ids=["analyze", "compare", "verify"],
    )
    def test_ratios_are_never_built(self, run, monkeypatch, argv, stdin_text):
        checks = []

        def keeping(*args, **kwargs):
            checks.append(check := original(*args, **kwargs))
            return check

        original = spectral.snr_ratio_check
        monkeypatch.setattr(spectral, "snr_ratio_check", keeping)
        code, _, err = run(argv, stdin_text=stdin_text)
        assert code == 0, err
        assert checks
        assert all("ratios" not in vars(check) for check in checks)


class TestSpectrum:
    def test_csv_rows(self, run):
        code, out, _ = run(
            ["spectrum", "--alphabet", "ACGT", "--rep", "base"], stdin_text="ACGT"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,frequency,power,snr"
        assert len(lines) == 4
        assert lines[1] == "1,0.25,4.0,1.0"

    def test_zcurve_power_is_scaled(self, run):
        code, out, _ = run(
            ["spectrum", "--alphabet", "ACGT", "--rep", "zcurve"], stdin_text="ACGT"
        )
        assert code == 0
        k, freq, power, snr = out.strip().splitlines()[1].split(",")
        assert (k, freq) == ("1", "0.25")
        assert float(power) == pytest.approx(16.0, rel=1e-12)
        assert float(snr) == pytest.approx(4 / 3, rel=1e-12)

    def test_length_one_emits_header_only(self, run):
        code, out, _ = run(["spectrum", "--alphabet", "ACGT"], stdin_text="A")
        assert code == 0
        assert out.strip() == "k,frequency,power,snr"

    def test_requires_exactly_one_representation(self, run):
        code, _, err = run(
            ["spectrum", "--alphabet", "ACGT", "--rep", "base", "--rep", "zcurve"],
            stdin_text="ACGT",
        )
        assert code == 2
        assert "exactly one" in err

    def test_json_columns(self, run):
        code, out, _ = run(
            ["spectrum", "--alphabet", "ACGT", "--rep", "base", "--format", "json"],
            stdin_text="ACGT",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["k"] == [1, 2, 3]
        assert obj["power"] == [pytest.approx(4.0)] * 3


OVERFLOW_ARGV = {
    "analyze-text": ["analyze"],
    "analyze-json": ["analyze", "--format", "json"],
    "analyze-csv": ["analyze", "--format", "csv"],
    "compare-text": ["compare", "--rep", "base"],
    "compare-json": ["compare", "--rep", "base", "--format", "json"],
    "compare-csv": ["compare", "--rep", "base", "--format", "csv"],
    "verify-text": ["verify"],
    "verify-json": ["verify", "--format", "json"],
    "spectrum-text": ["spectrum"],
    "spectrum-csv": ["spectrum", "--format", "csv"],
    "spectrum-json": ["spectrum", "--format", "json"],
}

# (input, m, rows). Before: d^2*(T-1)/T*m^2 overflows; zcurve's rows times
# 1e153 (d = 2e153). After: d^2*(T-1)/T*m^2 is float64's largest value, but
# the measured total rounds above it; Helmert's rows scaled to that d.
OVERFLOW_BEFORE = (">x\nACGTTGCAACGGTAC\n", 15, build_zcurve().rows * 1e153)
OVERFLOW_AFTER = (
    ">x\nTGGCCAAAATGTGGTGGGGT\n", 20, build_helmert(4).rows * math.sqrt(np.finfo(float).max / (0.75 * 20**2))
)


def _overflowing_matrix(path, rows):
    save_matrix(validate_row_orthogonal(rows, name="huge"), path)
    return f"file:{path}"


class TestTotalSpectrumOverflow:
    """A matrix that passes validation but whose total spectrum overflows
    float64 at the input's m exits 2, naming the representation and m,
    before anything is written and without a numpy warning (tier-1 turns
    RuntimeWarning into an error). The one verdict is the representation's
    total check: its spectrum is computed once, and refused when the
    identity d^2*(T-1)/T*m^2 ("before") or, when only the rounding of the
    sum overflows, the measured total ("after") is not a finite float."""

    @pytest.mark.parametrize("case", [OVERFLOW_BEFORE, OVERFLOW_AFTER], ids=["before", "after"])
    @pytest.mark.parametrize("key", OVERFLOW_ARGV)
    def test_exits_2_with_nothing_written(self, run, monkeypatch, tmp_path, key, case):
        text, m, rows = case
        rep = _overflowing_matrix(tmp_path / "huge.json", rows)
        calls = []
        transformed = spectral.spectrum_transformed
        monkeypatch.setattr(spectral, "spectrum_transformed", lambda sig: calls.append(sig) or transformed(sig))
        code, out, err = run(OVERFLOW_ARGV[key] + ["--rep", rep], stdin_text=text)
        assert (code, out) == (2, "")
        assert err == f"symspec: error: representation {rep!r} at m = {m}: its total spectrum overflows float64\n"
        assert len(calls) == 1

    @pytest.mark.parametrize("case", [OVERFLOW_BEFORE, OVERFLOW_AFTER], ids=["before", "after"])
    def test_entry_process_prints_one_line(self, tmp_path, case):
        text, m, rows = case
        rep = _overflowing_matrix(tmp_path / "huge.json", rows)
        (tmp_path / "x.fa").write_text(text)
        out_path = tmp_path / "out.txt"
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "symspec", "analyze", "--rep", rep,
             "--input", str(tmp_path / "x.fa"), "--output", str(out_path)],
            env=child_env(),
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"symspec: error: representation {rep!r} at m = {m}: its total spectrum overflows float64\n"
        assert not out_path.exists()


def _report(half_power, m, mean_noise, name="hand"):
    return spectral.SpectrumReport(
        representation=name, m=m, alphabet_size=4, d=None,
        half_power=half_power, total=mean_noise * m, mean_noise=mean_noise,
    )


class TestProfileRenderer:
    """The columnar renderers against csv.writer and json.dumps of the
    report's power and snr, byte for byte. Each report is built from its
    half spectrum (bins 0 .. m//2) and a mean noise."""

    REPORTS = {
        # Every non-finite spelling, in power and in snr.
        "non-finite": ([9.0, 1e-300, 1e16, math.nan, math.inf, -math.inf], 10, 3.0),
        # -0.0 must survive, at a mirrored bin and at the Nyquist bin.
        "signed-zero": ([4.0, 0.0, -0.0, 5.0, -0.0], 8, 3.0),
        # Odd and even m: bins 1 .. m//2 formatted once, mirrored.
        "odd": ([1.0, 0.1, 0.2, 0.3], 7, 0.7),
        "even": ([1.0, 0.1, 1 / 3, 2.5e20], 6, 1e-5),
        "one-bin": ([1.0, 2.0], 2, 3.0),
        "no-bins": ([1.0], 1, 1.0),
    }

    @staticmethod
    def _args(path):
        return argparse.Namespace(output=str(path))

    @pytest.mark.parametrize("key", list(REPORTS))
    def test_csv_matches_csv_writer(self, key, tmp_path):
        # Names that csv.writer quotes, or leaves empty, inside a row.
        reports = [("a,\"b", _report(*self.REPORTS[key])), ("", _report(*self.REPORTS[key]))]
        path = tmp_path / "out.csv"
        _write_profile_csv(self._args(path), reports, True)
        # The renderer reads the half spectrum only: no full-length copy is cached.
        assert all(not {"power", "snr"} & vars(r).keys() for _, r in reports)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["representation", "k", "frequency", "power", "snr"])
        for name, r in reports:
            for k in range(1, r.m):
                writer.writerow([name, k, k / r.m, float(r.power[k]), float(r.snr[k - 1])])
        assert path.read_bytes() == buf.getvalue().encode()

    @pytest.mark.parametrize("key", list(REPORTS))
    def test_json_matches_json_dumps(self, key, tmp_path):
        r = _report(*self.REPORTS[key])
        fields = {"input": "-", "record": "\u00e9\"x", "m": r.m, "representation": r.representation}
        expected = json.dumps(
            {**fields, "k": list(range(1, r.m)), "frequency": [k / r.m for k in range(1, r.m)],
             "power": [float(v) for v in r.power[1:]], "snr": [float(v) for v in r.snr]},
            indent=2, sort_keys=True,
        ) + "\n"
        path = tmp_path / "out.json"
        _write_profile_json(self._args(path), fields, r)
        assert path.read_bytes() == expected.encode()


@pytest.fixture
def libc(monkeypatch):
    """A fake C library in place of ``ctypes.CDLL(None)``; ``libc.calls``
    logs its calls in order. ``_tuned_libc`` is put back after the test."""
    calls = []
    fake = types.SimpleNamespace(
        calls=calls,
        mallopt=lambda param, value: calls.append(("mallopt", param, value)) or 1,
        malloc_trim=lambda pad: calls.append(("malloc_trim", pad)) or 1,
    )
    monkeypatch.setattr(ctypes, "CDLL", lambda name: fake)
    monkeypatch.setattr(cli, "_tuned_libc", None)
    return fake


@pytest.fixture
def run_entry(monkeypatch, capsys):
    """Run ``cli.entry()``, the path of ``python -m symspec``, in-process."""
    def _run(argv, stdin_text=""):
        monkeypatch.setattr(sys, "argv", ["symspec", *argv])
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin_text.encode())))
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    return _run


DNA_TEXT = ">x\nACGTTGCAACGGTTA\n"


def _fasta_file(path, symbols: bytes, m: int):
    """A one-record FASTA file of *m* uniform random *symbols*, 60 a line."""
    rng = np.random.default_rng(m)
    body = np.frombuffer(symbols, dtype=np.uint8)[rng.integers(0, len(symbols), m)].tobytes()
    path.write_bytes(b">x\n" + b"\n".join(body[i : i + 60] for i in range(0, len(body), 60)) + b"\n")
    return path


COMMAND_ARGV = {
    "analyze-text": ["analyze", "--rep", "base", "--rep", "zcurve"],
    "analyze-json": ["analyze", "--rep", "base", "--rep", "tetrahedron", "--format", "json"],
    "analyze-csv": ["analyze", "--rep", "base", "--rep", "helmert", "--format", "csv"],
    "compare-csv": ["compare", "--rep", "base", "--rep", "zcurve", "--format", "csv"],
    "verify-json": ["verify", "--format", "json"],
    "spectrum-csv": ["spectrum", "--rep", "zcurve"],
    "spectrum-json": ["spectrum", "--rep", "helmert", "--format", "json"],
}


class TestMallocTuning:
    """``entry()`` tunes glibc's malloc before main() and trims the heap
    once, in _output(); library use and an in-process main() touch neither."""

    def test_entry_sets_both_thresholds_before_main(self, libc, monkeypatch, run_entry):
        seen = []
        monkeypatch.setattr(cli, "main", lambda: seen.append(list(libc.calls)) or 0)
        assert run_entry([])[0] == 0
        assert seen == [[("mallopt", -3, 32 * 2**20), ("mallopt", -1, 64 * 2**20)]]

    @pytest.mark.parametrize("key", list(COMMAND_ARGV))
    def test_one_trim_after_the_spectra_before_any_formatting(self, libc, monkeypatch, run_entry, key):
        def logged(event, fn):
            def wrapped(*args, **kwargs):
                libc.calls.append(event)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(spectral, "spectrum_base", logged("spectrum", spectral.spectrum_base))
        monkeypatch.setattr(spectral, "spectrum_transformed", logged("spectrum", spectral.spectrum_transformed))
        monkeypatch.setattr(cli, "_float_strings", logged("format", cli._float_strings))
        code, _, err = run_entry(COMMAND_ARGV[key], DNA_TEXT)
        assert code == 0, err
        assert [call[0] for call in libc.calls[:2]] == ["mallopt", "mallopt"]
        events = libc.calls[2:]
        assert events.count(("malloc_trim", 0)) == 1
        trim = events.index(("malloc_trim", 0))
        assert "spectrum" in events[:trim] and "spectrum" not in events[trim:]
        assert "format" not in events[:trim]

    @pytest.mark.parametrize("fault", ["no mallopt", "no libc", "mallopt refuses"])
    @pytest.mark.parametrize("argv", [COMMAND_ARGV["analyze-csv"], ["compare", "--rep", "base"]])
    def test_other_c_libraries_change_nothing(self, libc, monkeypatch, run, run_entry, fault, argv):
        if fault == "no mallopt":
            del libc.mallopt
        elif fault == "no libc":
            def no_libc(name):
                raise OSError("no C library")
            monkeypatch.setattr(ctypes, "CDLL", no_libc)
        else:
            libc.mallopt = lambda param, value: libc.calls.append(("mallopt", param, value)) or 0
        assert run_entry(argv, DNA_TEXT) == run(argv, stdin_text=DNA_TEXT)
        assert cli._tuned_libc is None
        assert ("malloc_trim", 0) not in libc.calls

    @pytest.mark.parametrize("key", list(COMMAND_ARGV))
    def test_in_process_main_makes_no_call(self, libc, run, key):
        code, _, err = run(COMMAND_ARGV[key], stdin_text=DNA_TEXT)
        assert code == 0, err
        assert libc.calls == []

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="tunes glibc's malloc only")
    def test_entry_takes_under_half_the_page_faults(self, tmp_path):
        """At m = 5e5 the FFT layer's freed blocks stay mapped: one child
        through ``python -m symspec`` against one calling main() itself."""
        path = _fasta_file(tmp_path / "dna.fa", b"ACGT", 500_000)
        argv = ["analyze", "--input", str(path), "--rep", "base", "--rep", "zcurve", "--rep", "tetrahedron",
                "--format", "json"]
        env = child_env()
        children = {
            "entry": ["-m", "symspec"],
            "main": ["-c", "import sys; from symspec.cli import main; sys.exit(main(sys.argv[1:]))"],
        }
        faults, outputs = {}, {}
        for name, head in children.items():
            out_path = tmp_path / f"{name}.out"
            with open(out_path, "wb") as out:
                proc = subprocess.Popen([sys.executable, *head, *argv], stdout=out, env=env)
                _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            assert proc.returncode == 0
            faults[name], outputs[name] = usage.ru_minflt, out_path.read_bytes()
        assert outputs["entry"] == outputs["main"]
        assert faults["entry"] < faults["main"] / 2, faults


class TestReportsKeptForProfilesOnly:
    """analyze keeps each report only to render per-bin profiles (--format
    csv), and spectrum its one report; otherwise a report is dropped once
    its entry is made, and the base report lives until the last ratio check
    of its record."""

    @staticmethod
    def _track(monkeypatch):
        """Weak references to each report made, and which of them are alive
        when each spectrum starts and when the output is opened."""
        reports, alive = [], []

        def tracking(fn):
            def wrapped(*args, **kwargs):
                alive.append([ref() is not None for ref in reports])
                report = fn(*args, **kwargs)
                reports.append(weakref.ref(report))
                return report
            return wrapped

        def output(args):
            alive.append([ref() is not None for ref in reports])
            return original_output(args)

        original_output = cli._output
        monkeypatch.setattr(spectral, "spectrum_base", tracking(spectral.spectrum_base))
        monkeypatch.setattr(spectral, "spectrum_transformed", tracking(spectral.spectrum_transformed))
        monkeypatch.setattr(cli, "_output", output)
        return alive

    @pytest.mark.parametrize(
        "argv, kept",
        [
            (["analyze"], False),
            (["analyze", "--format", "json"], False),
            (["analyze", "--format", "csv"], True),
            (["compare", "--format", "json"], False),
            (["compare", "--format", "csv"], False),
        ],
        ids=["analyze-text", "analyze-json", "analyze-csv", "compare-json", "compare-csv"],
    )
    def test_reports_alive_when_each_spectrum_starts(self, run, monkeypatch, argv, kept):
        alive = self._track(monkeypatch)
        reps = ["--rep=base", "--rep=zcurve", "--rep=tetrahedron", "--rep=helmert"]
        code, _, err = run(argv + reps, stdin_text=DNA_TEXT)
        assert code == 0, err
        assert alive == [[], [True], [True, kept], [True, kept, kept], [kept] * 4]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_verify_drops_each_transformed_report(self, run, monkeypatch, fmt):
        alive = self._track(monkeypatch)
        reps = ["--rep=zcurve", "--rep=tetrahedron", "--rep=helmert"]
        code, _, err = run(["verify", "--format", fmt, *reps], stdin_text=DNA_TEXT + ">y\nGGCATTACA\n")
        assert code == 0, err
        first = [[], [True], [True, False], [True, False, False]]
        second = [[False] * 4 + row for row in first]
        assert alive == first + second + [[False] * 8]

    @pytest.mark.parametrize("rep", ["base", "zcurve"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_spectrum_keeps_its_one_report(self, run, monkeypatch, rep, fmt):
        alive = self._track(monkeypatch)
        code, _, err = run(["spectrum", "--rep", rep, "--format", fmt], stdin_text=DNA_TEXT)
        assert code == 0, err
        assert alive == [[], [True]]


class TestAnalyzeBytesPerSymbol:
    """At m = 1e6 each batch of the power kernel is one row. While each
    spectrum is computed, analyze holds the one-byte codes and the base half
    spectrum, 5 B/symbol; its tracemalloc peak is that, the running half
    spectrum and the one row's spectrum and power."""

    @pytest.mark.parametrize(
        "symbols, reps",
        [(b"ACGT", ["base", "zcurve", "tetrahedron"]), (b"ACDEFGHIKLMNPQRSTVWY", ["base", "helmert"])],
        ids=["T=4", "T=20"],
    )
    def test_held_and_peak_bytes(self, tmp_path, monkeypatch, symbols, reps):
        m = 1_000_000
        held = []
        power = spectral._power

        def tracing(table, codes):
            held.append(tracemalloc.get_traced_memory()[0])
            return power(table, codes)

        monkeypatch.setattr(spectral, "_power", tracing)

        def analyze(path):
            return main(["analyze", "--input", str(path), "--output", str(tmp_path / "out.json"),
                         "--format", "json", *(f"--rep={rep}" for rep in reps)])

        assert analyze(_fasta_file(tmp_path / "small.fa", symbols, 100)) == 0  # imports done before tracing
        path = _fasta_file(tmp_path / "large.fa", symbols, m)
        held.clear()
        tracemalloc.start()
        try:
            code = analyze(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(held) == len(reps)
        assert max(held) <= 5 * m + 128 * 1024, [h / m for h in held]
        assert peak <= 28 * m, peak / m


# Starts the command in its argv and prints the child's ru_maxrss (KiB) and
# exit status. It does not import numpy: a child exec'd from a process
# starts from that process's RSS high-water mark.
_RSS_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""


@pytest.mark.skipif(
    platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
    reason="ru_maxrss in KiB and glibc's malloc, as tuned by entry()",
)
def test_analyze_peak_rss_above_an_import(tmp_path):
    """``python -m symspec analyze`` at m = 1e6 DNA with three
    representations peaks at most 48 MiB above a child that only imports
    symspec.cli: the one-byte codes, two half spectra and one FFT row in
    flight (about 32 B/symbol)."""
    path = _fasta_file(tmp_path / "dna.fa", b"ACGT", 1_000_000)
    env = {**child_env(), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

    def peak_kib(*argv):
        out = subprocess.run([sys.executable, "-c", _RSS_LAUNCHER, sys.executable, *argv],
                             env=env, capture_output=True, text=True, check=True).stdout
        kib, status = map(int, out.split())
        assert status == 0, argv
        return kib

    imported = peak_kib("-c", "import symspec.cli")
    analyze = peak_kib("-m", "symspec", "analyze", "--input", str(path), "--rep", "base",
                       "--rep", "zcurve", "--rep", "tetrahedron", "--format", "json")
    assert analyze - imported <= 48 * 1024, (analyze, imported)
