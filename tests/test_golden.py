"""Golden-byte fixtures for every subcommand x format.

``tests/golden/cli_outputs.json`` holds, per case, the exit code, the
stderr text and the stdout bytes: in full when they are short, as a sha256
digest and a length otherwise. Inputs are generated here from fixed seeds
with the standard library's ``random``, and fed through stdin so that no
file path reaches the output. Float digits come from numpy's FFT, so a new
numpy build may need a fresh capture; regenerate the fixture with

    PYTHONPATH=src python tests/test_golden.py --write

and review the diff before committing it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from symspec import build_zcurve, save_matrix, validate_row_orthogonal
from symspec.cli import build_parser
from conftest import run_child, run_main

GOLDEN = Path(__file__).with_name("golden") / "cli_outputs.json"
INLINE_BYTES = 4096  # stdout up to this size is stored verbatim
DNA = "ACGT"
PROTEIN = "ACDEFGHIKLMNPQRSTVWY"
FORMATS = ("text", "json", "csv")


def _fasta(rid: str, body: str) -> str:
    return ">" + rid + "\n" + "".join(body[i : i + 60] + "\n" for i in range(0, len(body), 60))


def _random_body(alphabet: str, m: int, seed: int) -> str:
    return "".join(random.Random(seed).choices(alphabet, k=m))


def _near_periodic() -> str:
    body = "ACGTTGCA" * 150
    return body[:-1] + "C"


INPUTS = {
    **{f"dna-{m}": _fasta(f"dna-{m}", _random_body(DNA, m, m)) for m in (1, 2, 3, 5, 997, 1000)},
    "protein-501": _fasta("protein-501", _random_body(PROTEIN, 501, 501)),
    "periodic-1200": _fasta("periodic-1200", _near_periodic()),
    "dna-100000": _fasta("dna-100000", _random_body(DNA, 100_000, 100_000)),
    # Lengths where a verify record's rows take several batches of the power kernel.
    "dna-200000": _fasta("dna-200000", _random_body(DNA, 200_000, 200_000)),
    "protein-60000": _fasta("protein-60000", _random_body(PROTEIN, 60_000, 60_000)),
    "single-9": _fasta("single-9", "A" * 9),
}

# Matrix files whose names need CSV quoting: empty, and with a comma and a quote.
MATRIX_NAMES = {"empty": "", "quoted": 'a,"b'}


def _cases() -> dict[str, tuple[str, list[str]]]:
    """Case id -> (input name, argv). ``file:{name}`` stands for a matrix file."""
    cases: dict[str, tuple[str, list[str]]] = {}

    def add(cid, inp, argv):
        cases[cid] = (inp, argv)

    large = ("dna-100000", "dna-200000")
    dna_small = [name for name in INPUTS if name.startswith(("dna-", "periodic-")) and name not in large]
    for inp in dna_small:
        for fmt in FORMATS:
            al = ["--alphabet", DNA, "--format", fmt]
            add(f"{inp}/analyze/{fmt}", inp,
                ["analyze", *al, "--rep", "base", "--rep", "zcurve", "--rep", "tetrahedron", "--rep", "helmert"])
            add(f"{inp}/compare/{fmt}", inp,
                ["compare", *al, "--rep", "base", "--rep", "zcurve", "--rep", "helmert"])
            add(f"{inp}/verify/{fmt}", inp, ["verify", *al])
            for rep in ("base", "zcurve", "helmert"):
                add(f"{inp}/spectrum-{rep}/{fmt}", inp, ["spectrum", *al, "--rep", rep])
    for fmt in FORMATS:
        al = ["--alphabet", PROTEIN, "--format", fmt]
        add(f"protein-501/analyze/{fmt}", "protein-501", ["analyze", *al, "--rep", "base", "--rep", "helmert"])
        add(f"protein-501/compare/{fmt}", "protein-501", ["compare", *al, "--rep", "base", "--rep", "helmert"])
        add(f"protein-501/verify/{fmt}", "protein-501", ["verify", *al])
        for rep in ("base", "helmert"):
            add(f"protein-501/spectrum-{rep}/{fmt}", "protein-501", ["spectrum", *al, "--rep", rep])
        add(f"protein-501/spectrum-zcurve/{fmt}", "protein-501", ["spectrum", *al, "--rep", "zcurve"])
        for size in (4, 20):
            add(f"random-{size}/verify/{fmt}", None,
                ["verify", "--random", "3", "--seed", "5", "--alphabet-size", str(size), "--format", fmt])
        for key in MATRIX_NAMES:
            al = ["--alphabet", DNA, "--format", fmt]
            add(f"dna-5/analyze-matrix-{key}/{fmt}", "dna-5",
                ["analyze", *al, "--rep", "base", "--rep", f"file:{key}"])
            add(f"dna-5/compare-matrix-{key}/{fmt}", "dna-5",
                ["compare", *al, "--rep", "base", "--rep", f"file:{key}"])
            add(f"dna-5/spectrum-matrix-{key}/{fmt}", "dna-5", ["spectrum", *al, "--rep", f"file:{key}"])
        al = ["--alphabet", DNA, "--format", fmt]
        # A transform as the reference, and a matrix file as the reference.
        add(f"periodic-1200/compare-zcurve-first/{fmt}", "periodic-1200",
            ["compare", *al, "--rep", "zcurve", "--rep", "base", "--rep", "helmert"])
        add(f"periodic-1200/compare-matrix-first/{fmt}", "periodic-1200",
            ["compare", *al, "--rep", "file:quoted", "--rep", "base", "--rep", "zcurve"])
        # One symbol: every non-zero bin is empty, so ratios are indeterminate and checks vacuous.
        add(f"single-9/analyze/{fmt}", "single-9",
            ["analyze", *al, "--rep", "base", "--rep", "zcurve", "--rep", "tetrahedron", "--rep", "helmert"])
        add(f"single-9/compare/{fmt}", "single-9",
            ["compare", *al, "--rep", "base", "--rep", "zcurve", "--rep", "helmert"])
    for command in ("analyze", "compare", "spectrum"):
        reps = ["--rep", "base"] + (["--rep", "zcurve"] if command == "compare" else [])
        for period in ("1", "0"):
            add(f"dna-5/{command}-period-{period}/text", "dna-5",
                [command, "--alphabet", DNA, *reps, "--period", period])
    # verify takes --seed and --alphabet-size only with --random, which reads no input.
    for key, flags in (
        ("random-with-input", ["--random", "1", "--input", "/nonexistent"]),
        ("random-with-alphabet", ["--random", "1", "--alphabet", "XYZ"]),
        ("seed-without-random", ["--seed", "3"]),
        ("alphabet-size-without-random", ["--alphabet-size", "20"]),
    ):
        add(f"dna-5/verify-{key}/text", "dna-5", ["verify", *flags])
    add("dna-1/analyze-auto/text", "dna-1", ["analyze"])
    add("dna-5/period-8/text", "dna-5", ["analyze", "--alphabet", DNA, "--period", "8"])
    add("dna-5/unknown-rep/csv", "dna-5", ["spectrum", "--rep", "nope", "--format", "csv"])
    add("dna-5/output-is-directory/csv", "dna-5", ["spectrum", "--format", "csv", "--output", "/"])
    add("dna-5/output-is-directory/json", "dna-5", ["spectrum", "--format", "json", "--output", "/"])
    for fmt in FORMATS:
        for rep in ("base", "zcurve"):
            add(f"dna-100000/spectrum-{rep}/{fmt}", "dna-100000",
                ["spectrum", "--alphabet", DNA, "--rep", rep, "--format", fmt])
    add("dna-100000/analyze/csv", "dna-100000",
        ["analyze", "--alphabet", DNA, "--rep", "base", "--rep", "helmert", "--format", "csv"])
    for fmt in ("text", "json"):
        add(f"dna-200000/verify/{fmt}", "dna-200000", ["verify", "--alphabet", DNA, "--format", fmt])
        add(f"protein-60000/verify/{fmt}", "protein-60000", ["verify", "--alphabet", PROTEIN, "--format", fmt])
        for seed, size in zip((5, 7, 11, 13, 17, 19, 23, 29), (4, 20, 4, 20, 7, 36, 2, 3)):
            add(f"random-{size}-seed-{seed}/verify/{fmt}", None,
                ["verify", "--random", "4", "--seed", str(seed), "--alphabet-size", str(size), "--format", fmt])
    return cases


CASES = _cases()
# Every case is run again with --output PATH, unless it names an output already.
OUTPUT_CASES = [cid for cid, (_, argv) in CASES.items() if "--output" not in argv]


def _write_matrices(directory: Path) -> dict[str, Path]:
    zc = build_zcurve()
    paths = {}
    for key, name in MATRIX_NAMES.items():
        path = directory / f"matrix-{key}.json"
        save_matrix(validate_row_orthogonal(zc.rows, alphabet_order=zc.alphabet_order, name=name), path)
        paths[key] = path
    return paths


def _argv(argv: list[str], matrices: dict[str, Path]) -> list[str]:
    return [f"file:{matrices[a[5:]]}" if a.startswith("file:") else a for a in argv]


def run_case(cid: str, matrices: dict[str, Path], extra: list[str] = ()) -> tuple[int, str, str]:
    inp, argv = CASES[cid]
    return run_main(_argv(argv, matrices) + list(extra), INPUTS[inp] if inp else "")


def record(code: int, out: str, err: str) -> dict:
    data = out.encode()
    entry = {"exit": code, "stderr": err, "stdout_bytes": len(data)}
    if len(data) <= INLINE_BYTES:
        entry["stdout"] = out
    else:
        entry["stdout_sha256"] = hashlib.sha256(data).hexdigest()
    return entry


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def matrices(tmp_path_factory):
    return _write_matrices(tmp_path_factory.mktemp("matrices"))


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


def test_every_command_and_format_has_a_case():
    """A subcommand or --format choice that build_parser() adds must be pinned here."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    needed = {
        (name, fmt)
        for name, sub in commands.choices.items()
        for action in sub._actions if action.dest == "format"
        for fmt in action.choices
    }
    parsed = (parser.parse_args(argv) for _, argv in CASES.values())
    covered = {(args.command, args.format) for args in parsed}
    assert needed and needed <= covered, sorted(needed - covered)


@pytest.mark.parametrize("cid", list(CASES))
def test_output_matches_golden(cid, golden, matrices):
    assert record(*run_case(cid, matrices)) == golden[cid]


# Cases run again through ``python -m symspec``, whose entry() tunes malloc.
ENTRY_CASES = [
    "dna-100000/analyze/csv",
    "dna-100000/spectrum-zcurve/json",
    "periodic-1200/analyze/json",
    "random-20/verify/json",
]


@pytest.mark.parametrize("cid", ENTRY_CASES)
def test_entry_process_matches_golden(cid, golden):
    inp, argv = CASES[cid]
    assert record(*run_child(argv, INPUTS[inp] if inp else "")) == golden[cid]


@pytest.mark.parametrize("cid", OUTPUT_CASES)
def test_output_file_matches_stdout_golden(cid, golden, matrices, tmp_path):
    path = tmp_path / "out.txt"
    code, out, err = run_case(cid, matrices, ["--output", str(path)])
    assert out == ""
    # A command that fails creates no file.
    written = path.read_bytes().decode() if path.exists() else ""
    assert record(code, written, err) == golden[cid]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        mats = _write_matrices(Path(tmp))
        results = {cid: record(*run_case(cid, mats)) for cid in CASES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} cases to {GOLDEN}")
