import ctypes
import csv
import dataclasses
import gc
import io
import json
import math
import platform
import subprocess
import sys
import tracemalloc
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symspec import (
    _floatfmt, build_helmert, build_zcurve, cli, matrix_to_dict, save_matrix, spectral, validate_row_orthogonal
)
from symspec.cli import _profile_csv, _profile_json, main
from conftest import child_env, child_usage, run_child, run_main, traced


class TestAnalyze:
    def test_text_report_flags_rounded_peak(self):
        code, out, err = run_main(
            ["analyze", "--alphabet", "ACGT", "--rep", "base", "--rep", "zcurve"],
            "ACGT",
        )
        assert code == 0, err
        assert "k = 1" in out
        assert "rounded, not exact" in out
        assert "snr = 1.0000" in out
        assert "snr = 1.3333" in out

    def test_json_schema(self):
        code, out, _ = run_main(
            ["analyze", "--alphabet", "ACGT", "--rep", "base", "--rep", "zcurve",
             "--format", "json"],
            "ACGT",
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

    def test_csv_profile(self):
        code, out, _ = run_main(
            ["analyze", "--alphabet", "ACGT", "--rep", "base", "--format", "csv"],
            "ACGT",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "representation,k,frequency,power,snr"
        assert len(lines) == 4
        assert lines[1] == "base,1,0.25,4.0,1.0"

    def test_rejects_bad_matrix_file(self, tmp_path):
        bad = tmp_path / "badmatrix.json"
        bad.write_text(json.dumps({
            "name": "bad", "alphabet_order": None,
            "rows": [[1, -1, 1, -1], [1, 1, -1, -1], [1, 1, 1, -3]],
            "d": 2.0,
        }))
        code, _, err = run_main(
            ["analyze", "--alphabet", "ACGT", "--rep", f"file:{bad}"],
            "ACGT",
        )
        assert code != 0
        assert "rows not orthogonal" in err

    def test_matrix_file_representation_works(self, tmp_path):
        path = tmp_path / "zcurve.json"
        save_matrix(build_zcurve(), path)
        code, out, _ = run_main(
            ["analyze", "--alphabet", "ACGT", "--rep", f"file:{path}", "--format", "json"],
            "ACGT",
        )
        assert code == 0
        assert json.loads(out)["representations"][0]["total"] == pytest.approx(48.0)

    def test_period_beyond_length_is_vacuous_not_error(self):
        code, out, _ = run_main(["analyze", "--alphabet", "ACGT"], "A")
        assert code == 0
        assert "peak           : none" in out

    def test_rejects_multi_record_input(self):
        code, _, err = run_main(
            ["analyze", "--alphabet", "ACGT"], ">a\nAC\n>b\nGT\n"
        )
        assert code == 2
        assert "exactly one" in err

    @pytest.mark.parametrize("argv", [["analyze", "--alphabet", "ACGT "], ["verify", "--alphabet", "AC GT"]])
    def test_alphabet_with_whitespace_is_rejected(self, argv):
        # Regression: "ACGT " made a fifth symbol, ' ', that no record can hold
        # (whitespace is stripped from every record): T = 5, ratio 1.2500.
        code, out, err = run_main(argv + ["--rep", "helmert"], "ACGTTGCAAC\n")
        assert (code, out) == (2, "")
        assert err == f"symspec: error: --alphabet {argv[2]!r} has whitespace, which is never a symbol\n"

    def test_character_whose_upper_case_is_longer_is_rejected(self):
        # Regression: 'ß' read as 'SS', m = 10 over ACGST for 9 characters, exit 0; and with
        # --alphabet ACGT, the error named 'S', which the input does not hold.
        message = "symspec: error: -: character '\u00df' at position {} upper-cases to 'SS', not one character\n"
        assert run_main(["analyze", "--rep", "base"], "ACGT\u00dfACGT\n") == (2, "", message.format("5"))
        assert run_main(["analyze", "--alphabet", "ACGT"], ">r\nAC\u00dfX\n") == (
            2, "", message.format("3 of record 'r'")
        )

    def test_missing_input_file(self):
        code, _, err = run_main(["analyze", "--input", "/nonexistent/f.fasta"])
        assert code == 2
        assert err

    def test_undecodable_stdin_is_rejected(self):
        # Regression: b"\xff\xfe" used to be read as a T = 2 sequence, exit 0.
        code, out, err = run_main(["analyze"], b"\xff\xfe")
        assert code == 2
        assert out == ""
        assert err.startswith("symspec: error: -: input is not UTF-8 text")

    def test_text_stream_in_place_of_stdin_is_read(self, monkeypatch, capsys):
        # Callers that embed main() may swap in a text stream with no .buffer.
        monkeypatch.setattr(sys, "stdin", io.StringIO("ACGT"))
        assert main(["analyze", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["m"] == 4

    def test_undecodable_input_file_is_rejected(self, tmp_path):
        path = tmp_path / "bad.fa"
        path.write_bytes(b">x\nAC\xffGT\n")
        code, _, err = run_main(["analyze", "--input", str(path)])
        assert code == 2
        assert f"{path}: input is not UTF-8 text" in err

    def test_output_file(self, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_main(
            ["analyze", "--alphabet", "ACGT", "--format", "json", "--output", str(out_path)],
            "ACGT",
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["m"] == 4


class TestCompare:
    def test_table_has_reference_field_names(self):
        code, out, _ = run_main(
            ["compare", "--alphabet", "ACGT", "--rep", "base", "--rep", "zcurve"],
            "ACGACGACGACG",
        )
        assert code == 0
        for field in ("Length", "Total Spectra", "Mean Noise", "3-Periodicity", "SNR"):
            assert field in out
        assert "measured 1.3333" in out
        assert "theoretical 1.3333" in out

    def test_degenerate_sequence_reports_indeterminate(self):
        code, out, _ = run_main(
            ["compare", "--alphabet", "ACGT", "--rep", "base", "--rep", "zcurve"],
            "AAAA",
        )
        assert code == 0
        assert "indeterminate" in out

    def test_zcurve_vs_tetrahedron(self):
        rng = np.random.default_rng(42)
        body = "".join("ACGT"[i] for i in rng.integers(0, 4, size=240))
        code, out, _ = run_main(
            ["compare", "--alphabet", "ACGT", "--rep", "zcurve", "--rep", "tetrahedron",
             "--format", "json"],
            body,
        )
        assert code == 0
        obj = json.loads(out)
        z, t = obj["methods"]
        assert z["total_spectra"] / t["total_spectra"] == pytest.approx(3.0, rel=1e-12)
        assert z["periodicity_snr"] == pytest.approx(t["periodicity_snr"], rel=1e-9)
        (ratio,) = obj["ratios"]
        assert ratio["theoretical"] == pytest.approx(1.0)
        assert ratio["measured"] == pytest.approx(1.0, rel=1e-9)

    def test_too_few_representations_rejected_before_input_is_read(self):
        code, out, err = run_main(["compare", "--rep", "base"], b"\xff\xfeACGT")
        assert (code, out, err) == (2, "", "symspec: error: compare needs at least two --rep selections\n")

    def test_csv_fields(self):
        code, out, _ = run_main(
            ["compare", "--alphabet", "ACGT", "--rep", "base", "--rep", "zcurve",
             "--format", "csv"],
            "ACGTACGTACGT",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("method,length,total_spectra,mean_noise")
        assert len(lines) == 3


class TestVerify:
    def test_random_dna_passes(self):
        code, out, _ = run_main(["verify", "--random", "5", "--seed", "3"])
        assert code == 0
        assert "result: PASS (5/5 sequences)" in out
        assert "seed = 3" in out

    def test_protein_ratio_is_twenty_nineteenths(self):
        code, out, _ = run_main(
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

    def test_single_symbol_input_is_vacuous(self):
        code, out, _ = run_main(["verify", "--alphabet", "ACGT"], "AAAA")
        assert code == 0
        assert "vacuous (no nonzero base bins)" in out
        assert "result: PASS" in out

    def test_csv_format_rejected_before_input_is_read(self):
        code, out, err = run_main(["verify", "--format", "csv"], b"\xff\xfeACGT")
        assert (code, out, err) == (2, "", "symspec: error: verify supports --format text or json\n")

    def test_json_runs_are_identical(self):
        argv = ["verify", "--random", "4", "--seed", "7", "--format", "json"]
        code1, out1, _ = run_main(argv)
        code2, out2, _ = run_main(argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_has_no_period_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--random", "1", "--period", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --period 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--seed", "3"], "--seed and --alphabet-size apply only with --random"),
        (["--alphabet-size", "20"], "--seed and --alphabet-size apply only with --random"),
        (["--random", "1", "--input", "-"], "--random makes its own sequences; it takes no --input or --alphabet"),
        (["--random", "1", "--alphabet", "auto"], "--random makes its own sequences; it takes no --input or --alphabet"),
    ])
    def test_flags_for_the_other_mode_are_rejected_before_input_is_read(self, flags, message):
        code, out, err = run_main(["verify", *flags], b"\xff\xfeACGT")
        assert (code, out, err) == (2, "", f"symspec: error: {message}\n")

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_rejects_nonpositive_random_count(self, count):
        code, out, err = run_main(["verify", "--random", count], ">x\nACGT\n")
        assert (code, out) == (2, "")
        assert "positive count" in err

    def test_rejects_negative_seed_before_drawing(self, monkeypatch):
        monkeypatch.setattr(cli, "random_sequence", None)  # any draw would raise TypeError
        code, out, err = run_main(["verify", "--random", "2", "--seed", "-1"])
        assert (code, out, err) == (2, "", "symspec: error: --seed must be a non-negative integer, got -1\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_failed_transform_total_fails_its_record(self, monkeypatch, fmt):
        """verify judges each representation it computes, the base and every
        transform, by its total and its SNR ratios, as analyze does."""
        checked = spectral.check_record

        def transforms_fail(ind, transforms):
            checks = checked(ind, transforms)
            yield next(checks)  # the base's total passes
            for total, ratio in checks:
                yield dataclasses.replace(total, relative_error=1.0), ratio

        monkeypatch.setattr(spectral, "check_record", transforms_fail)
        code, out, _ = run_main(["verify", "--random", "3", "--seed", "3", "--format", fmt])
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


    @pytest.mark.parametrize("order, message", [
        ("ACGX", "column symbol 'X' is missing from alphabet ACGT"),
        ("ACG", "has 3 columns but the alphabet ACGT has 4 symbols"),
    ], ids=["symbol", "size"])
    def test_a_matrix_that_does_not_fit_is_refused_before_the_first_record(self, kernel, tmp_path,
                                                                            order, message):
        rows = build_zcurve().rows if len(order) == 4 else build_helmert(3).rows
        path = tmp_path / "matrix.json"
        save_matrix(validate_row_orthogonal(rows, alphabet_order=tuple(order), name="m"), path)
        code, out, err = run_main(["verify", "--rep", f"file:{path}"], ">a\nACGT\n>b\nGGCA\n")
        assert (code, out, err) == (2, "", f"symspec: error: matrix 'm' {message}\n")
        assert kernel.tables == []


class TestVerifyHoldsOneRecord:
    """verify draws each --random sequence just before its checks and keeps
    only each record's rendered text until the output is written, once,
    after the last record, each record's text as one piece, never joined."""

    @pytest.mark.parametrize("fmt, per_record", [("json", 1536), ("text", 300)])
    def test_peak_grows_little_per_record(self, tmp_path, fmt, per_record):
        def peak(n):
            return traced(main, ["verify", "--random", str(n), "--seed", "1", "--format", fmt,
                                 "--output", str(tmp_path / "out")])

        peak(2)  # first-call costs paid before the measured runs
        (small_code, _, small), (large_code, _, large) = peak(100), peak(1000)
        assert small_code == large_code == 0
        assert (large - small) / 900 < per_record, (small, large)

    def test_one_sequence_alive_when_the_next_is_drawn(self, monkeypatch):
        made, alive = [], []
        draw = cli.random_sequence

        def tracking(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in made))
            seq = draw(*args, **kwargs)
            made.append(weakref.ref(seq))
            return seq

        monkeypatch.setattr(cli, "random_sequence", tracking)
        code, _, err = run_main(["verify", "--random", "300"])
        assert code == 0, err
        assert len(alive) == 300
        assert max(alive) <= 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_an_error_in_a_later_record_writes_nothing(self, tmp_path, fmt):
        rep = _overflowing_matrix(tmp_path / "huge.json", build_zcurve().rows * 1e153)
        first, both, out_path = tmp_path / "a.fa", tmp_path / "ab.fa", tmp_path / "out.txt"
        first.write_text(">a\nACGTA\n")
        both.write_text(">a\nACGTA\n>b\nACGTTGCAACGGTAC\n")
        argv = ["verify", "--rep", rep, "--format", fmt]
        code, _, err = run_main(argv + ["--input", str(first)])
        assert code == 0, err
        message = f"symspec: error: representation {rep!r} at m = 15: its total spectrum overflows float64\n"
        assert run_main(argv + ["--input", str(both)]) == (2, "", message)
        assert run_main(argv + ["--input", str(both), "--output", str(out_path)]) == (2, "", message)
        assert not out_path.exists()


_BASE_NOT_A_TRANSFORM = (
    "verify checks channel transforms against the implicit base representation; --rep base is not a transform"
)
_WHITESPACE = "--alphabet {!r} has whitespace, which is never a symbol"
_OTHER_MODE = "--random makes its own sequences; it takes no --input or --alphabet"

# One row per refusal that the arguments alone decide: argv and the error
# after "symspec: error: ". {tmp} stands for a temporary directory, {file}
# for a file in it.
REFUSALS = {
    "verify-csv": (["verify", "--format", "csv"], "verify supports --format text or json"),
    "verify-random-csv": (["verify", "--random", "1", "--format", "csv"], "verify supports --format text or json"),
    "verify-seed-without-random": (["verify", "--seed", "3"], "--seed and --alphabet-size apply only with --random"),
    "verify-alphabet-size-without-random": (
        ["verify", "--alphabet-size", "20"], "--seed and --alphabet-size apply only with --random"
    ),
    "verify-random-with-input": (["verify", "--random", "1", "--input", "-"], _OTHER_MODE),
    "verify-random-with-alphabet": (["verify", "--random", "1", "--alphabet", "auto"], _OTHER_MODE),
    "verify-random-0": (["verify", "--random", "0"], "--random needs a positive count, got 0"),
    "verify-random-negative": (["verify", "--random", "-3"], "--random needs a positive count, got -3"),
    "verify-negative-seed": (["verify", "--random", "2", "--seed", "-1"], "--seed must be a non-negative integer, got -1"),
    "analyze-period-1": (["analyze", "--period", "1"], "period must be at least 2, got 1"),
    "compare-period-0": (
        ["compare", "--rep", "base", "--rep", "zcurve", "--period", "0"], "period must be at least 2, got 0"
    ),
    "spectrum-period-1": (["spectrum", "--period", "1"], "period must be at least 2, got 1"),
    "compare-no-rep": (["compare"], "compare needs at least two --rep selections"),
    "compare-one-rep": (["compare", "--rep", "base"], "compare needs at least two --rep selections"),
    "analyze-alphabet-whitespace": (["analyze", "--alphabet", "ACGT "], _WHITESPACE.format("ACGT ")),
    "verify-alphabet-whitespace": (["verify", "--alphabet", "AC GT"], _WHITESPACE.format("AC GT")),
    "analyze-alphabet-one-symbol": (["analyze", "--alphabet", "A"], "alphabet needs at least 2 symbols"),
    "verify-alphabet-repeated": (["verify", "--alphabet", "AaC"], "alphabet symbols 'AAC' are not distinct"),
    "analyze-alphabet-longer-upper-case": (
        ["analyze", "--alphabet", "\ufb01A", "--rep", "base"],
        "character '\ufb01' at position 1 of --alphabet '\ufb01A' upper-cases to 'FI', not one character",
    ),
    "verify-alphabet-longer-upper-case": (
        ["verify", "--alphabet", "AC\u00dfT"],
        "character '\u00df' at position 3 of --alphabet 'AC\u00dfT' upper-cases to 'SS', not one character",
    ),
    "spectrum-two-reps": (["spectrum", "--rep", "base", "--rep", "zcurve"], "spectrum needs exactly one --rep selection"),
    "verify-rep-base": (["verify", "--rep", "base"], _BASE_NOT_A_TRANSFORM),
    "verify-random-rep-base": (["verify", "--random", "1", "--rep", "base"], _BASE_NOT_A_TRANSFORM),
    "analyze-unknown-rep": (["analyze", "--rep", "base", "--rep", "nope"], "unknown representation 'nope'"),
    "spectrum-unknown-rep": (["spectrum", "--rep", "nope", "--format", "csv"], "unknown representation 'nope'"),
    "compare-file-without-path": (
        ["compare", "--rep", "base", "--rep", "file:"], "--rep file: needs the path of a matrix file, as in file:PATH"
    ),
    "verify-output-in-missing-directory": (
        ["verify", "--random", "3000", "--output", "{tmp}/missing/out.json"],
        "[Errno 2] No such file or directory: '{tmp}/missing/out.json'",
    ),
    "spectrum-output-is-directory": (["spectrum", "--output", "{tmp}"], "[Errno 21] Is a directory: '{tmp}'"),
    "analyze-output-under-a-file": (
        ["analyze", "--format", "json", "--output", "{file}/out.json"], "[Errno 20] Not a directory: '{file}/out.json'"
    ),
}


@pytest.mark.parametrize("key", REFUSALS)
def test_refused_before_input_is_read(kernel, tmp_path, key):
    """Each refusal comes before the input is read, which would refuse these
    bytes as not UTF-8, and before any spectrum is computed; nothing is written."""
    (tmp_path / "a-file").touch()
    places = {"tmp": tmp_path, "file": tmp_path / "a-file"}
    argv, message = REFUSALS[key]
    code, out, err = run_main([arg.format(**places) for arg in argv], b"\xff\xfe")
    assert (code, out, err) == (2, "", f"symspec: error: {message.format(**places)}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["a-file"]
    assert kernel.tables == []


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
    def test_comment_lines_are_skipped(self, command):
        # Regression: ';c\nACGT' was read as ';CACGT' over the alphabet ';ACGT'.
        argv = _ONE_OF_EACH_COMMAND[command]
        code, out, err = run_main(argv, ";c\nACGT\n;x\nTGCA\n")
        assert code == 0, err
        assert (code, out, err) == run_main(argv, "ACGT\nTGCA\n")

    @pytest.mark.parametrize("command", sorted(_ONE_OF_EACH_COMMAND))
    def test_markers_are_rejected(self, command):
        # Regression: 'AC>GT 12' was analyzed over the alphabet '12>ACGT', exit 0.
        code, out, err = run_main(_ONE_OF_EACH_COMMAND[command], "AC>GT 12\n")
        assert (code, out) == (2, "")
        assert err == (
            "symspec: error: -: character '>' at position 3 marks a FASTA header "
            "or comment and is never inferred as a symbol\n"
        )


class TestRecordSplitting:
    def test_text_before_first_header_is_one_headerless_record(self):
        code, out, err = run_main(["analyze", "--alphabet", "ACGT"], "ACGT\n>x\nGG\n")
        assert (code, out) == (2, "")
        assert err == "symspec: error: -: character '>' at position 5 is not in alphabet ACGT\n"

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_comment_only_input_has_no_records(self, command):
        # Regression: this read as one empty record, "-: empty sequence".
        code, out, err = run_main([command], ";only a comment\n")
        assert (code, out) == (2, "")
        assert err == "symspec: error: -: no sequence records in input\n"


class TestIndentedMarkers:
    """A line is a header or a comment when its first non-blank character
    is '>' or ';', wherever it stands in the input."""

    def test_indented_header_is_not_dropped(self):
        # Regression: analyze reported record 'y' alone, with m = 2, and exit 0.
        text = "\t>x\nACGTACGT\n>y\nGT\n"
        code, out, err = run_main(["analyze", "--alphabet", "ACGT"], text)
        assert (code, out) == (2, "")
        assert err == "symspec: error: -: input has 2 records; this command analyzes exactly one\n"
        code, out, err = run_main(["verify", "--alphabet", "ACGT", "--format", "json"], text)
        assert code == 0, err
        assert [(r["id"], r["m"]) for r in json.loads(out)["results"]] == [("x", 8), ("y", 2)]

    @pytest.mark.parametrize("text", ["  >id\nACGT\n", "  ;c\n>id\nACGT\n"])
    def test_indented_lines_read_as_unindented(self, text):
        argv = ["analyze", "--alphabet", "ACGT", "--rep", "base", "--rep", "zcurve"]
        code, out, err = run_main(argv, text)
        assert code == 0, err
        assert (code, out, err) == run_main(argv, text.replace("  ", ""))


class TestByteOrderMark:
    """One leading UTF-8 byte-order mark, which some editors write, is
    dropped where the input's bytes are decoded."""

    @pytest.mark.parametrize("text", ["ACGTTGCAAC\n", ">x\nACGTTGCAAC\n"], ids=["headerless", "fasta"])
    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_a_leading_mark_is_dropped(self, tmp_path, command, text):
        # Regression: headerless, the mark was a fifth symbol (T = 5); in FASTA, a marker error.
        argv, marked, path = [command, "--rep", "helmert"], b"\xef\xbb\xbf" + text.encode(), tmp_path / "in.fa"
        plain = run_main(argv, text)
        assert plain[0] == 0, plain
        assert run_main(argv, marked) == plain
        path.write_text(text)
        plain = run_main(argv + ["--input", str(path)])
        path.write_bytes(marked)
        assert run_main(argv + ["--input", str(path)]) == plain

    @pytest.mark.parametrize("text, position", [("AC\ufeffGT\n", 3), ("\ufeff\ufeffACGT\n", 1)])
    def test_any_other_mark_is_a_character(self, text, position):
        code, out, err = run_main(["analyze", "--alphabet", "ACGT"], text)
        assert (code, out) == (2, "")
        assert err == f"symspec: error: -: character '\\ufeff' at position {position} is not in alphabet ACGT\n"

    def test_a_text_stream_drops_it_too(self, monkeypatch, capsys):
        # Regression: a text stream with no .buffer kept the mark, a character at position 1 (exit 2).
        argv = ["analyze", "--alphabet", "ACGT"]
        plain = run_main(argv, "ACGTTGCA\n")
        assert plain[0] == 0, plain
        monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeffACGTTGCA\n"))
        assert (main(argv), *capsys.readouterr()) == plain


class TestSpectraComputedOnce:
    """Each command computes the base spectrum once per sequence and one
    spectrum per transform, however many checks use them and however often
    --rep names it: each table goes through the kernel once."""

    def test_analyze(self, kernel):
        reps = ["base", "zcurve", "tetrahedron", "zcurve", "base"]
        code, out, err = run_main(
            ["analyze", *(f"--rep={rep}" for rep in reps), "--format", "json"],
            ">x\nACGTTGCAACGG\n",
        )
        assert code == 0, err
        assert kernel.tables == [[(4, 4)], [(3, 4)], [(3, 4)]]
        entries = json.loads(out)["representations"]
        assert [e["name"] for e in entries] == reps
        assert entries[3] == entries[1] and entries[4] == entries[0]

    def test_compare(self, kernel):
        code, _, err = run_main(
            ["compare", "--rep", "base", "--rep", "helmert", "--rep", "helmert"],
            ">x\nACDEFGHIKLMNPQ\n",
        )
        assert code == 0, err
        assert kernel.tables == [[(14, 14)], [(13, 14)]]

    def test_verify_two_records(self, kernel):
        """verify makes no report: each record's checks take the base's and
        each transform's rows through one pass of the kernel."""
        code, _, err = run_main(
            ["verify", "--rep", "zcurve", "--rep", "tetrahedron", "--rep", "helmert", "--rep", "helmert"],
            ">a\nACGTTGCA\n>b\nGGCATTACA\n",
        )
        assert code == 0, err
        assert kernel.tables == [[(4, 4), (3, 4), (3, 4), (3, 4)]] * 2  # helmert once

    @pytest.mark.parametrize("rep, expected", [("base", [[(4, 4)]]), ("zcurve", [[(3, 4)]])])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_spectrum_computes_only_its_own(self, kernel, rep, expected, fmt):
        code, _, err = run_main(["spectrum", "--rep", rep, "--format", fmt], ">x\nACGTTGCAACGG\n")
        assert code == 0, err
        assert kernel.tables == expected


class TestRatioChecksKeepTheirHalf:
    """The CLI reads only the scalar fields of each RatioCheck, so it never
    builds a full-length ``ratios``. Every command's ratio checks are made
    by ``spectral._ratio_check``."""

    @pytest.mark.parametrize(
        "argv, stdin_text",
        [
            (["analyze", "--rep", "base", "--rep", "zcurve", "--rep", "tetrahedron"], ">x\nACGTTGCAACGG\n"),
            (["compare", "--rep", "base", "--rep", "helmert", "--format", "json"], ">x\nACDEFGHIKLMNPQ\n"),
            (["verify", "--rep", "zcurve", "--rep", "helmert"], ">a\nACGTTGCA\n>b\nGGCATTACA\n"),
        ],
        ids=["analyze", "compare", "verify"],
    )
    def test_ratios_are_never_built(self, monkeypatch, argv, stdin_text):
        checks, ratio_check = [], spectral._ratio_check
        monkeypatch.setattr(spectral, "_ratio_check", lambda *args: checks.extend(made := ratio_check(*args)) or made)
        code, _, err = run_main(argv, stdin_text)
        assert code == 0, err
        assert checks
        assert all("ratios" not in vars(check) for check in checks)


class TestSpectrum:
    def test_csv_rows(self):
        code, out, _ = run_main(
            ["spectrum", "--alphabet", "ACGT", "--rep", "base"], "ACGT"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,frequency,power,snr"
        assert len(lines) == 4
        assert lines[1] == "1,0.25,4.0,1.0"

    def test_zcurve_power_is_scaled(self):
        code, out, _ = run_main(
            ["spectrum", "--alphabet", "ACGT", "--rep", "zcurve"], "ACGT"
        )
        assert code == 0
        k, freq, power, snr = out.strip().splitlines()[1].split(",")
        assert (k, freq) == ("1", "0.25")
        assert float(power) == pytest.approx(16.0, rel=1e-12)
        assert float(snr) == pytest.approx(4 / 3, rel=1e-12)

    def test_length_one_emits_header_only(self):
        code, out, _ = run_main(["spectrum", "--alphabet", "ACGT"], "A")
        assert code == 0
        assert out.strip() == "k,frequency,power,snr"

    def test_json_columns(self):
        code, out, _ = run_main(
            ["spectrum", "--alphabet", "ACGT", "--rep", "base", "--format", "json"],
            "ACGT",
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
    def test_exits_2_with_nothing_written(self, kernel, tmp_path, key, case):
        text, m, rows = case
        rep = _overflowing_matrix(tmp_path / "huge.json", rows)
        code, out, err = run_main(OVERFLOW_ARGV[key] + ["--rep", rep], text)
        assert (code, out) == (2, "")
        assert err == f"symspec: error: representation {rep!r} at m = {m}: its total spectrum overflows float64\n"
        shapes = [shape for call in kernel.tables for shape in call]
        assert shapes == ([] if key.startswith("spectrum") else [(4, 4)]) + [(3, 4)]

    @pytest.mark.parametrize("case", [OVERFLOW_BEFORE, OVERFLOW_AFTER], ids=["before", "after"])
    def test_entry_process_prints_one_line(self, tmp_path, case):
        text, m, rows = case
        rep = _overflowing_matrix(tmp_path / "huge.json", rows)
        (tmp_path / "x.fa").write_text(text)
        out_path = tmp_path / "out.txt"
        code, out, err = run_child(["analyze", "--rep", rep, "--input", str(tmp_path / "x.fa"),
                                    "--output", str(out_path)], dev=True)
        assert (code, out) == (2, "")
        assert err == f"symspec: error: representation {rep!r} at m = {m}: its total spectrum overflows float64\n"
        assert not out_path.exists()


@pytest.mark.parametrize("argv", [["verify", "--random", "2"], ["analyze", "--format", "json"], ["spectrum"]])
@pytest.mark.parametrize("reason", ["", "Unable to allocate 8.00 GiB for an array"])
def test_out_of_memory_prints_one_line(monkeypatch, argv, reason):
    """Regression: a MemoryError ended in a traceback and exit 1, the status
    of a failed identity (``verify`` on one record over 16 000 inferred
    symbols, under an address-space limit)."""
    def no_memory(*args, **kwargs):
        raise MemoryError(reason)

    monkeypatch.setattr(spectral, "_powers", no_memory)
    code, out, err = run_main(argv, DNA_TEXT)
    assert (code, out) == (2, "")
    assert err == "symspec: error: out of memory" + (f": {reason}" if reason else "") + "\n"


def test_entry_ends_quietly_when_the_reader_goes_away(tmp_path):
    """Regression: ``spectrum | head -1`` printed "symspec: error: [Errno 32]
    Broken pipe" after the first line and exited 2."""
    path = tmp_path / "x.fa"
    path.write_text(">x\n" + "ACGTTGCA" * 2500 + "\n")  # m = 20 000: some 900 KB of CSV, far beyond a pipe's buffer
    with subprocess.Popen([sys.executable, "-X", "dev", "-m", "symspec", "spectrum", "--input", str(path)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env()) as proc:
        assert proc.stdout.readline() == b"k,frequency,power,snr\n"
        proc.stdout.close()
        assert (proc.wait(timeout=60), proc.stderr.read()) == (1, b"")


@pytest.mark.parametrize("scale", [1e154, 1e-160])
def test_matrix_out_of_scale_prints_one_line(tmp_path, scale):
    """Regression: at 1e154 three numpy warnings came before the error, and
    both scales read "column identity violated"."""
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps({"name": "scaled", "alphabet_order": list("ACGT"),
                                "rows": (build_zcurve().rows * scale).tolist(), "d": 2 * scale}))
    code, out, err = run_child(["analyze", "--rep", f"file:{path}"], "ACGTTGCAAC\n")
    assert (code, out) == (2, "")
    assert err.startswith(f"symspec: error: matrix scale out of range: its largest entry is {scale:.3g},")
    assert err.count("\n") == 1, err


def test_malformed_matrix_file_prints_one_line(tmp_path):
    """Regression: a row cell that is a JSON object exited 1 with a traceback."""
    path = tmp_path / "object-cell.json"
    path.write_text(json.dumps({**matrix_to_dict(build_zcurve()), "rows": [[{}, -1, 1, -1]] * 3}))
    code, out, err = run_child(["analyze", "--rep", f"file:{path}"], "ACGTTGCAAC\n")
    assert (code, out) == (2, "")
    assert err == "symspec: error: matrix must be rows of numbers, all of one length\n"


@pytest.mark.parametrize("field, value, message", [
    ("rows", [["1", -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], "matrix must be rows of numbers, all of one length"),
    ("rows", [[True, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], "matrix must be rows of numbers, all of one length"),
    ("d", "2", "matrix JSON needs 'rows' and a numeric 'd'"),
    ("d", True, "matrix JSON needs 'rows' and a numeric 'd'"),
], ids=["string-cell", "bool-cell", "string-d", "bool-d"])
@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_matrix_numbers_that_are_not_numbers_are_refused(tmp_path, command, field, value, message):
    """Regression: each of these loaded as the number it spells."""
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({**matrix_to_dict(build_zcurve()), field: value}))
    assert run_main([command, "--rep", f"file:{path}"], "ACGTTGCAAC\n") == (2, "", f"symspec: error: {message}\n")


_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, math.inf])
_TEXT = st.text(st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\U0001f600>;%') | st.characters())


@settings(deadline=None, max_examples=300)
@given(
    record=_TEXT,
    m=st.integers(1, 10**9),
    total=st.builds(spectral.TotalSpectrumCheck, expected=_FLOATS, measured=_FLOATS, relative_error=_FLOATS),
    expected=_FLOATS,
    ratios=st.lists(st.tuples(_TEXT, st.fixed_dictionaries({
        "max_dev": st.none() | _FLOATS,
        "checked_bins": st.integers(0, 10**9),
        "skipped_bins": st.integers(0, 10**9),
        "vacuous": st.booleans(),
        "pass": st.booleans(),
    })), min_size=1, max_size=4),
)
def test_verify_item_layout_is_json_dumps(record, m, total, expected, ratios):
    """verify's fixed layout writes each record as json.dumps(indent=2,
    sort_keys=True) writes it at depth 2: NaN, infinities, -0.0, subnormal
    and huge floats, a null max_dev, and ids and names with quotes,
    backslashes, control characters, per cent signs and non-ASCII text (a
    FASTA header may hold any)."""
    item = {
        "id": record,
        "m": m,
        "total_spectrum": {**vars(total), "pass": total.passed()},
        "snr_ratio": [{"representation": name, "expected": expected, **fields} for name, fields in ratios],
    }
    render = cli._verify_items([name for name, _ in ratios], expected)
    rows = [(f["checked_bins"], f["max_dev"], f["pass"], f["skipped_bins"], f["vacuous"]) for _, f in ratios]
    got = render(record, m, total, rows)
    assert got == json.dumps(item, indent=2, sort_keys=True).replace("\n", "\n    ")


class TestVerifyOnePassPerRecord:
    """verify takes each record's rows, the base's and every transform's,
    through one rfft while they fit one batch of the kernel. Otherwise a
    batch holds whole tables or rows of one table, never both."""

    @pytest.fixture
    def rows(self, monkeypatch):
        """The number of rows of each rfft call."""
        rows, rfft = [], np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda a, *args, **kwargs: rows.append(len(a)) or rfft(a, *args, **kwargs))
        return rows

    @pytest.mark.parametrize("size, per_record", [("4", 4 + 3 * 3), ("20", 20 + 19)])
    def test_one_rfft_per_record(self, rows, size, per_record):
        code, _, err = run_main(["verify", "--random", "40", "--seed", "5", "--alphabet-size", size])
        assert code == 0, err
        assert rows == [per_record] * 40

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_small_batches_write_the_same_bytes(self, rows, monkeypatch, fmt):
        argv = ["verify", "--random", "40", "--seed", "5", "--format", fmt]
        whole = run_main(argv)
        one_per_record = len(rows)
        # At 3000 samples a batch, a record takes several packs from m = 231 and splits its base from m = 751.
        monkeypatch.setattr(spectral, "_BLOCK_BINS", 3000)
        assert run_main(argv) == whole
        assert len(rows) - one_per_record > one_per_record

    # DNA's tables have 4, 3, 3 and 3 rows (the base, zcurve, tetrahedron and
    # helmert), protein's 20 and 19 (the base and helmert).
    @pytest.mark.parametrize(
        "alphabet, per_batch, per_call",
        [
            ("ACGT", 13, [13]),
            ("ACGT", 10, [10, 3]),
            ("ACGT", 5, [4, 3, 3, 3]),
            ("ACGT", 3, [3, 1, 3, 3, 3]),
            ("ACDEFGHIKLMNPQRSTVWY", 17, [17, 3, 17, 2]),
        ],
        ids=["dna-13", "dna-10", "dna-5", "dna-3", "protein-17"],
    )
    def test_a_batch_holds_whole_tables_or_rows_of_one(self, rows, monkeypatch, alphabet, per_batch, per_call):
        m = 60
        monkeypatch.setattr(spectral, "_BLOCK_BINS", per_batch * m)
        body = "".join(np.random.default_rng(m).choice(list(alphabet), m))
        code, _, err = run_main(["verify", "--alphabet", alphabet], f">x\n{body}\n")
        assert code == 0, err
        assert rows == per_call


def _report(half_power, m, mean_noise, name="hand"):
    return spectral.SpectrumReport(
        representation=name, m=m, alphabet_size=4, d=None,
        half_power=half_power, total=mean_noise * m, mean_noise=mean_noise,
    )


class TestProfileRenderer:
    """The columnar renderers against csv.writer and json.dumps of the
    report's power and snr, byte for byte, their pieces joined. Each report
    is built from its half spectrum (bins 0 .. m//2) and a mean noise."""

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
        # Mirrored rows across the edges of blocks of two and of three rows (BLOCKS).
        "odd-blocks": ([4.0, 0.5, 1e22, 3e-7, 12.25, 0.1, 7.0], 13, 0.3),
        "even-blocks": ([4.0, 0.5, 1e22, 3e-7, 12.25, 0.1, 7.0], 12, 0.3),
    }
    BLOCKS = {"odd-blocks": 2, "even-blocks": 3}  # rows or items per piece for these keys

    @pytest.fixture(autouse=True)
    def block_items(self, request, monkeypatch):
        key = request.node.callspec.params["key"]
        monkeypatch.setattr(cli, "_BLOCK_ITEMS", self.BLOCKS.get(key, cli._BLOCK_ITEMS))

    @pytest.mark.parametrize("key", list(REPORTS))
    def test_csv_matches_csv_writer(self, key):
        # Names that csv.writer quotes, or leaves empty, inside a row; one not ASCII.
        reports = [("a,\"b", _report(*self.REPORTS[key])), ("", _report(*self.REPORTS[key])),
                   ("\u00e9,x", _report(*self.REPORTS[key]))]
        text = "".join(_profile_csv(reports, True))
        # The renderer reads the half spectrum only: no full-length copy is cached.
        assert all(not {"power", "snr"} & vars(r).keys() for _, r in reports)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["representation", "k", "frequency", "power", "snr"])
        for name, r in reports:
            for k in range(1, r.m):
                writer.writerow([name, k, k / r.m, float(r.power[k]), float(r.snr[k - 1])])
        assert text == buf.getvalue()

    @pytest.mark.parametrize("key", list(REPORTS))
    def test_json_matches_json_dumps(self, key):
        r = _report(*self.REPORTS[key])
        fields = {"input": "-", "record": "\u00e9\"x", "m": r.m, "representation": r.representation}
        expected = json.dumps(
            {**fields, "k": list(range(1, r.m)), "frequency": [k / r.m for k in range(1, r.m)],
             "power": [float(v) for v in r.power[1:]], "snr": [float(v) for v in r.snr]},
            indent=2, sort_keys=True,
        ) + "\n"
        assert "".join(_profile_json(fields, r)) == expected


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
def freezes(monkeypatch, libc):
    """``libc``, with a recorder in place of ``gc.freeze`` that logs each call
    as ("freeze",) among the C library's calls: no test freezes the pytest heap."""
    monkeypatch.setattr(gc, "freeze", lambda: libc.calls.append(("freeze",)))
    return libc


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


PROFILE_KEYS = {"analyze-csv", "spectrum-csv", "spectrum-json"}  # the keys of COMMAND_ARGV that format floats


class TestMallocTuning:
    """``entry()`` tunes glibc's malloc before main() and trims the heap
    once, in _write(); library use and an in-process main() touch neither."""

    def test_entry_sets_both_thresholds_before_main(self, libc, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "main", lambda: seen.append(list(libc.calls)) or 0)
        assert run_main([], entry=True)[0] == 0
        assert seen == [[("mallopt", -3, 32 * 2**20), ("mallopt", -1, 64 * 2**20)]]

    @pytest.mark.parametrize("key", list(COMMAND_ARGV))
    def test_one_trim_after_the_spectra_before_any_formatting(self, libc, kernel, monkeypatch, key):
        def formatting(*args, **kwargs):
            libc.calls.append("format")
            return reprs(*args, **kwargs)

        reprs, trim, halves_at_trim = _floatfmt.reprs, libc.malloc_trim, []
        monkeypatch.setattr(_floatfmt, "reprs", formatting)
        libc.malloc_trim = lambda pad: halves_at_trim.append(len(kernel.halves)) or trim(pad)
        code, _, err = run_main(COMMAND_ARGV[key], DNA_TEXT, entry=True)
        assert code == 0, err
        assert [call[0] for call in libc.calls[:2]] == ["mallopt", "mallopt"]
        assert kernel.halves and halves_at_trim == [len(kernel.halves)]  # one trim, after every spectrum
        assert "format" not in libc.calls[: libc.calls.index(("malloc_trim", 0))]
        assert ("format" in libc.calls) == (key in PROFILE_KEYS)  # the probe sees every profile's formatting

    @pytest.mark.parametrize("fault", ["no mallopt", "no libc", "mallopt refuses"])
    @pytest.mark.parametrize("argv", [COMMAND_ARGV["analyze-csv"], ["compare", "--rep", "base"]])
    def test_other_c_libraries_change_nothing(self, libc, monkeypatch, fault, argv):
        if fault == "no mallopt":
            del libc.mallopt
        elif fault == "no libc":
            def no_libc(name):
                raise OSError("no C library")
            monkeypatch.setattr(ctypes, "CDLL", no_libc)
        else:
            libc.mallopt = lambda param, value: libc.calls.append(("mallopt", param, value)) or 0
        assert run_main(argv, DNA_TEXT, entry=True) == run_main(argv, DNA_TEXT)
        assert cli._tuned_libc is None
        assert ("malloc_trim", 0) not in libc.calls

    @pytest.mark.parametrize("key", list(COMMAND_ARGV))
    def test_in_process_main_makes_no_call(self, freezes, key):
        code, _, err = run_main(COMMAND_ARGV[key], DNA_TEXT)
        assert code == 0, err
        assert freezes.calls == []
        assert gc.get_freeze_count() == 0

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="tunes glibc's malloc only")
    def test_entry_takes_under_half_the_page_faults(self, tmp_path):
        """At m = 5e5 the FFT layer's freed blocks stay mapped: one child
        through ``python -m symspec`` against one calling main() itself."""
        path = _fasta_file(tmp_path / "dna.fa", b"ACGT", 500_000)
        argv = ["analyze", "--input", str(path), "--rep", "base", "--rep", "zcurve", "--rep", "tetrahedron",
                "--format", "json"]
        children = {
            "entry": ["-m", "symspec"],
            "main": ["-c", "import sys; from symspec.cli import main; sys.exit(main(sys.argv[1:]))"],
        }
        faults, outputs = {}, {}
        for name, head in children.items():
            out_path = tmp_path / f"{name}.out"
            status, _, faults[name] = child_usage([*head, *argv], stdout=out_path)
            assert status == 0
            outputs[name] = out_path.read_bytes()
        assert outputs["entry"] == outputs["main"]
        assert faults["entry"] < faults["main"] / 2, faults


class TestHeapFreeze:
    """``entry()`` freezes the heap that the imports built, once, after
    tuning malloc and before main(); library use and an in-process main()
    never freeze it."""

    def test_entry_freezes_once_after_tuning_before_main(self, freezes, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "main", lambda: seen.append(list(freezes.calls)) or 0)
        assert run_main([], entry=True)[0] == 0
        assert seen == [[("mallopt", -3, 32 * 2**20), ("mallopt", -1, 64 * 2**20), ("freeze",)]]
        assert freezes.calls == seen[0]

    def test_only_entry_freezes_in_a_child(self):
        """A plain import freezes nothing; a main() swapped in under entry()
        runs on a frozen heap."""
        probe = ("import gc; start = gc.get_freeze_count(); import symspec, symspec.cli as cli; "
                 "print(start, gc.get_freeze_count()); cli.main = lambda: print(gc.get_freeze_count()) or 0; "
                 "cli.entry()")
        proc = subprocess.run([sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        start, imported, in_main = map(int, proc.stdout.split())
        assert imported == start == 0
        assert in_main > 0

    @pytest.mark.parametrize("argv", [["verify", "--random", "3", "--format", "json"], ["analyze", "--format", "csv"]],
                             ids=["verify-json", "analyze-csv"])
    def test_entry_process_under_dev_mode_warns_of_nothing(self, argv):
        """Under -X dev a file or pipe that main() leaves open warns on
        stderr, frozen heap or not."""
        code, out, err = run_child(argv, DNA_TEXT, dev=True)
        assert (code, err) == (0, "")
        assert out


class TestReportsKeptForProfilesOnly:
    """analyze keeps each report only to render per-bin profiles (--format
    csv), and spectrum its one report; otherwise a report is dropped once
    its entry is made, and the base's half spectrum lives until the last
    ratio check of its record. A report keeps its half spectrum alive, so
    the kernel's yields show the reports of analyze, compare and spectrum
    and the halves that verify's checks take: one array per pack, so one
    per record at verify's sizes, and one per table when no two tables fit
    one batch."""

    @pytest.fixture
    def alive(self, kernel, monkeypatch):
        """Which half spectra are alive as each is made, then as the output is written."""
        write = cli._write
        monkeypatch.setattr(cli, "_write",
                            lambda args, pieces: kernel.alive.append(kernel.live()) or write(args, pieces))
        return kernel.alive

    @pytest.mark.parametrize(
        "argv, kept",
        [
            (["analyze"], False),
            (["analyze", "--format", "json"], False),
            (["analyze", "--format", "csv"], True),
            (["compare", "--format", "json"], False),
            (["compare", "--format", "csv"], False),
            (["verify"], False),
            (["verify", "--format", "json"], False),
        ],
        ids=["analyze-text", "analyze-json", "analyze-csv", "compare-json", "compare-csv",
             "verify-text", "verify-json"],
    )
    def test_reports_alive_when_each_spectrum_starts(self, alive, monkeypatch, argv, kept):
        records = 2 if argv[0] == "verify" else 1  # verify checks two records, each against its implicit base
        if records == 2:  # one row per batch, so that each table is a yield of its own
            monkeypatch.setattr(spectral, "_BLOCK_BINS", 1)
        reps = ["--rep=base"] * (records == 1) + ["--rep=zcurve", "--rep=tetrahedron", "--rep=helmert"]
        code, _, err = run_main(argv + reps, DNA_TEXT + ">y\nGGCATTACA\n" * (records - 1))
        assert code == 0, err
        record = [[], [True], [True, kept], [True, kept, kept]]  # the base, then three transforms
        assert alive == [[False] * 4 * r + row for r in range(records) for row in record] + [[kept] * 4 * records]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_verify_takes_one_yield_per_record(self, alive, fmt):
        """At verify's sizes one batch holds all of a record's tables: the
        kernel hands them over as one array, dropped before the next record."""
        reps = ["--rep=zcurve", "--rep=tetrahedron", "--rep=helmert"]
        code, _, err = run_main(["verify", "--format", fmt, *reps], DNA_TEXT + ">y\nGGCATTACA\n")
        assert code == 0, err
        assert alive == [[], [False], [False, False]]

    @pytest.mark.parametrize("rep", ["base", "zcurve"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_spectrum_keeps_its_one_report(self, alive, rep, fmt):
        code, _, err = run_main(["spectrum", "--rep", rep, "--format", fmt], DNA_TEXT)
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
        powers = spectral._powers

        def tracing(tables, codes):
            held.append(tracemalloc.get_traced_memory()[0])
            return powers(tables, codes)

        monkeypatch.setattr(spectral, "_powers", tracing)

        def analyze(path):
            return main(["analyze", "--input", str(path), "--output", str(tmp_path / "out.json"),
                         "--format", "json", *(f"--rep={rep}" for rep in reps)])

        assert analyze(_fasta_file(tmp_path / "small.fa", symbols, 100)) == 0  # imports done before tracing
        path = _fasta_file(tmp_path / "large.fa", symbols, m)
        held.clear()
        code, _, peak = traced(analyze, path)
        assert code == 0
        assert len(held) == len(reps)
        assert max(held) <= 5 * m + 128 * 1024, [h / m for h in held]
        assert peak <= 28 * m, peak / m


@pytest.mark.parametrize("argv", [["spectrum"], ["spectrum", "--format", "json"],
                                  ["analyze", "--rep", "base", "--rep", "helmert", "--format", "csv"]],
                         ids=["spectrum-csv", "spectrum-json", "analyze-csv"])
def test_profile_render_peaks_below_100_bytes_per_symbol(tmp_path, monkeypatch, argv):
    """At m = 2e5 a per-bin profile, from _write's start to its last piece,
    peaks at 53-76 B/symbol of tracemalloc: each column is spelt a chunk at
    a time into byte rows of at most 24 B, and the text built a block at a
    time. One str per value took 110-185 B/symbol."""
    m = 200_000
    write = cli._write
    monkeypatch.setattr(cli, "_write", lambda args, pieces: (tracemalloc.reset_peak(), write(args, pieces))[1])
    out = ["--output", str(tmp_path / "out")]
    assert main(argv + out + ["--input", str(_fasta_file(tmp_path / "small.fa", b"ACGT", 100))]) == 0  # imports
    code, _, peak = traced(main, argv + out + ["--input", str(_fasta_file(tmp_path / "dna.fa", b"ACGT", m))])
    assert code == 0
    assert peak <= 100 * m, peak / m


def test_base_spectrum_of_a_large_alphabet_holds_no_dense_identity(tmp_path):
    """analyze (its base spectrum) at m = 6000 over 3000 inferred symbols
    gathers each batch of indicator rows from a view of 2T - 1 floats: a
    dense T x T identity alone would take 68.7 MiB."""
    symbols = [chr(0x4E00 + i) for i in range(3000)]
    path = tmp_path / "cjk.fa"
    path.write_text(">x\n" + "".join(np.random.default_rng(3000).permutation(symbols * 2)) + "\n", encoding="utf-8")
    argv = ["analyze", "--format", "json", "--output", str(tmp_path / "out.json")]
    assert main(argv + ["--input", str(_fasta_file(tmp_path / "small.fa", b"ACGT", 100))]) == 0  # imports
    code, _, peak = traced(main, argv + ["--input", str(path)])
    assert code == 0
    assert peak <= 24 * 2**20, peak / 2**20


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
        status, kib, _ = child_usage(argv, env=env)
        assert status == 0, argv
        return kib

    imported = peak_kib("-c", "import symspec.cli")
    analyze = peak_kib("-m", "symspec", "analyze", "--input", str(path), "--rep", "base",
                       "--rep", "zcurve", "--rep", "tetrahedron", "--format", "json")
    assert analyze - imported <= 48 * 1024, (analyze, imported)
