import argparse
import csv
import io
import json
import math
import sys

import numpy as np
import pytest

from symspec import build_zcurve, save_matrix, spectral
from symspec.cli import _write_profile_csv, _write_profile_json, main


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
    spectrum per transform, however many checks use them."""

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
        code, _, err = run(
            ["analyze", "--rep", "base", "--rep", "zcurve", "--rep", "tetrahedron"],
            stdin_text=">x\nACGTTGCAACGG\n",
        )
        assert code == 0, err
        assert calls == {"base": 1, "transformed": 2}

    def test_compare(self, run, calls):
        code, _, err = run(
            ["compare", "--rep", "base", "--rep", "helmert"], stdin_text=">x\nACDEFGHIKLMNPQ\n"
        )
        assert code == 0, err
        assert calls == {"base": 1, "transformed": 1}

    def test_verify_two_records(self, run, calls):
        code, _, err = run(
            ["verify", "--rep", "zcurve", "--rep", "tetrahedron", "--rep", "helmert"],
            stdin_text=">a\nACGTTGCA\n>b\nGGCATTACA\n",
        )
        assert code == 0, err
        assert calls == {"base": 2, "transformed": 6}


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
