"""Command-line reports over the spectral engine.

Subcommands: analyze (per-representation summary and checks), compare
(side-by-side table plus SNR ratio lines), verify (identity checks on input
or seeded random sequences), spectrum (plot-ready per-bin CSV).

``main`` first calls ``_check``, which refuses every bad argument that the
arguments alone decide, --output included, before any input is read.

analyze, compare and spectrum run their record through one path,
``_spectra``: indicators, the base spectrum when a check or the base needs
it, then each representation's spectrum, its total check, which also
judges overflow (``_finite``), and, unless only the profile is wanted, its
SNR-ratio check. verify needs no report: it binds what is fixed per
command once (each transform's table for the run's alphabet, each name's
JSON text), and takes each record's checks, the same bit for bit, from
``spectral.check_record``: one pass of the spectral kernel over the base's
and every transform's rows, and a few array steps. Every command reads
the identity values and the verdicts from ``spectral``'s check objects,
and uses no private name of ``spectral``. A representation passes when
both of its checks pass, in every command.

Each command renders its report as text pieces, lines of a text report or
pieces of a JSON or CSV one, and hands them to ``_write``, the one writer,
which writes each piece as it comes. Per-bin profiles (``analyze --format
csv``, ``spectrum``) are rendered by column, just before they are written,
in blocks of rows or items, never as one string; their bytes are those of
``csv.writer`` and ``json.dumps(indent=2, sort_keys=True)``. Bins
k = 1 .. m//2 of each column are formatted and the strings mirrored.
``verify`` holds one record at a time: each is rendered, to its text line
or its JSON item (from a fixed layout, ``_verify_items``), as soon as its
checks finish, and only those strings are kept until they are written,
one piece each.
"""
from __future__ import annotations

import argparse
import csv
import errno
import gc
import io
import json
import math
import os
import sys
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import spectral
from .representations import (
    RepresentationMatrix,
    alphabet_table,
    apply_representation,
    build_helmert,
    build_indicators,
    build_tetrahedron,
    build_zcurve,
    load_matrix,
)
from .sequences import (
    Alphabet,
    SequenceError,
    SymbolicSequence,
    _fold,
    default_alphabet,
    parse_fasta,
    random_sequence,
)

__all__ = ["build_parser", "main", "entry"]

_RANDOM_M_RANGE = (1, 2000)
_BLOCK_ITEMS = 8192  # profile rows (or JSON array items) joined per piece

_TOTALS_NOTE = (
    "total spectra are exact identity values: m^2 for base, "
    "d^2*(T-1)/T*m^2 for channel transforms"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symspec",
        description="Fourier power spectra and signal-to-noise ratios of symbolic sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_: str, period: bool = True) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_)
        sp.add_argument(
            "--input", "-i", metavar="PATH|-",
            help="FASTA or plain-text sequence file; '-' reads stdin (default)",
        )
        sp.add_argument(
            "--alphabet", metavar="STR|auto",
            help="explicit ordered symbols (e.g. ACGT) or 'auto' to infer (default)",
        )
        sp.add_argument(
            "--rep", action="append", dest="reps", metavar="NAME",
            help="base|zcurve|tetrahedron|helmert|file:PATH (repeatable)",
        )
        if period:
            sp.add_argument("--period", type=int, default=3, metavar="N", help="periodicity (default 3)")
        sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
        sp.add_argument("--output", "-o", metavar="PATH|-", default="-")
        return sp

    add_command("analyze", "spectrum summary and identity checks per representation")
    add_command("compare", "side-by-side table for two or more representations")
    sp = add_command("verify", "check the spectral identities on input or random sequences", period=False)
    sp.add_argument(
        "--random", type=int, metavar="N",
        help=f"verify N seeded random sequences (m in {list(_RANDOM_M_RANGE)}) instead of reading input",
    )
    sp.add_argument("--seed", type=int, metavar="S", help="seed for --random (default 0)")
    sp.add_argument(
        "--alphabet-size", type=int, metavar="T", dest="alphabet_size",
        help="alphabet size for --random (default 4 = DNA; 20 = amino acids)",
    )
    add_command("spectrum", "plot-ready CSV of the power/SNR profile")
    return parser


# -- shared helpers ----------------------------------------------------------


def _fmt_power(x: float) -> str:
    r = round(x)
    if abs(x - r) <= 1e-6:
        return str(int(r))
    return f"{x:.6g}"


def _fmt_snr(x: float) -> str:
    return f"{x:.4f}"


def _passfail(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


# glibc's handle once entry() has tuned malloc, else None. Module state, as
# malloc's settings are state of the whole process.
_tuned_libc = None


def _tune_malloc() -> None:
    """Keep freed blocks of up to 32 MiB in glibc's heap while a command computes.

    With glibc's defaults, the FFT layer's blocks of several MB (gathered
    rows, rfft outputs, pocketfft's scratch) are unmapped or trimmed when
    freed and faulted back in by the next batch of rows. Does nothing where
    the C library has no mallopt or malloc_trim, or refuses the settings;
    _write() hands the kept memory back before anything is written.
    """
    global _tuned_libc
    import ctypes  # numpy has loaded it already

    try:
        libc = ctypes.CDLL(None)
        mallopt, malloc_trim = libc.mallopt, libc.malloc_trim
    except (OSError, TypeError, AttributeError):  # TypeError: no CDLL(None) on Windows
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    malloc_trim.argtypes, malloc_trim.restype = (ctypes.c_size_t,), ctypes.c_int
    # M_MMAP_THRESHOLD (-3) at its 64-bit maximum, then M_TRIM_THRESHOLD (-1).
    # A trim threshold alone, without the mmap threshold, is slower than neither.
    if mallopt(-3, 32 << 20) and mallopt(-1, 64 << 20):
        _tuned_libc = libc


def _write(args, pieces) -> None:
    """Write *pieces* of text, each as it comes, to the stream --output names:
    stdout, or the file, created only now.

    The one writer: every command calls it once, after its last spectrum,
    with renderers that format lazily, so memory that _tune_malloc kept is
    handed back before anything is formatted or written.
    """
    if _tuned_libc is not None:
        _tuned_libc.malloc_trim(0)
    if args.output in (None, "-"):
        sys.stdout.writelines(pieces)
    else:
        with Path(args.output).open("w", encoding="utf-8") as out:
            out.writelines(pieces)


def _lines(lines):
    """Text lines as pieces, each ending in its newline."""
    return (line + "\n" for line in lines)


def _blocks(items):
    """Consecutive lists of up to _BLOCK_ITEMS items."""
    items = iter(items)
    while block := list(islice(items, _BLOCK_ITEMS)):
        yield block


_JSON_ITEM_SEP = ",\n    "  # between the items of an array at depth 1 of json.dumps(indent=2)


def _joined(items):
    """JSON array items, as text indented for depth 2, joined in blocks."""
    return map(_JSON_ITEM_SEP.join, _blocks(items))


def _json(fields: dict):
    """*fields* as ``json.dumps(fields, indent=2, sort_keys=True)`` writes it, in pieces.

    A callable value is an array: it is called just before the array is
    written and returns the array's items as JSON text indented for depth
    2, each piece one item or several joined by _JSON_ITEM_SEP.
    """
    for i, key in enumerate(sorted(fields)):
        yield ("{\n  " if i == 0 else ",\n  ") + json.dumps(key) + ": "
        if not callable(fields[key]):
            yield json.dumps(fields[key], indent=2, sort_keys=True).replace("\n", "\n  ")
            continue
        sep = "[\n    "
        for piece in fields[key]():
            yield from (sep, piece)
            sep = _JSON_ITEM_SEP
        yield "[]" if sep == "[\n    " else "\n  ]"
    yield "\n}\n"


# Built-in representations by name, built for T symbols; None is the base (indicator) one.
_BUILT_IN = {
    "base": lambda T: None,
    "zcurve": lambda T: build_zcurve(),
    "tetrahedron": lambda T: build_tetrahedron(),
    "helmert": build_helmert,
}


def _check(args) -> None:
    """Raise every refusal that the arguments alone decide, before any input is read.

    Also puts in ``args.alphabet`` the Alphabet that --alphabet names, None
    to infer one from the input. What depends on the input (its bytes, its
    records, an inferred alphabet, a matrix file and its columns) and
    verify's --alphabet-size are judged where they are used.
    """
    reps = args.reps or []
    if args.command == "verify":
        if args.format == "csv":
            raise ValueError("verify supports --format text or json")
        if args.random is None and (args.seed, args.alphabet_size) != (None, None):
            raise ValueError("--seed and --alphabet-size apply only with --random")
        if args.random is not None and (args.input, args.alphabet) != (None, None):
            raise ValueError("--random makes its own sequences; it takes no --input or --alphabet")
        if args.random is not None and args.random < 1:
            raise ValueError(f"--random needs a positive count, got {args.random}")
        if args.seed is not None and args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    elif args.period < 2:
        raise ValueError(f"period must be at least 2, got {args.period}")
    if args.command == "compare" and len(reps) < 2:
        raise ValueError("compare needs at least two --rep selections")
    if args.alphabet not in (None, "auto") and any(map(str.isspace, args.alphabet)):
        # parse_fasta strips whitespace from every record, so no input holds such a symbol.
        raise ValueError(f"--alphabet {args.alphabet!r} has whitespace, which is never a symbol")
    if args.alphabet in (None, "auto"):
        args.alphabet = None
    else:  # folded as input text is, so a symbol whose upper case is longer is refused as written
        args.alphabet = Alphabet(_fold(args.alphabet, f" of --alphabet {args.alphabet!r}"))
    if args.command == "spectrum" and len(reps) > 1:
        raise ValueError("spectrum needs exactly one --rep selection")
    if args.command == "verify" and "base" in reps:
        raise ValueError("verify checks channel transforms against the implicit base representation; "
                         "--rep base is not a transform")
    for name in reps:
        if name == "file:":
            raise ValueError("--rep file: needs the path of a matrix file, as in file:PATH")
        if name not in _BUILT_IN and not name.startswith("file:"):
            raise ValueError(f"unknown representation {name!r}")
    if args.output not in (None, "-"):
        # What open() in _write would refuse after the work, with its error, creating
        # nothing. The trailing separator makes a parent that is a file fail as there.
        target = Path(args.output)
        try:
            os.stat(os.path.join(target.parent, ""))
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(target)) from None
        if target.is_dir():
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))


def _read_input(args) -> tuple[str, str]:
    """Input text and its label; bytes that are not UTF-8 are an error, not data.

    One leading byte-order mark, which some editors write, is dropped from
    the text, however it was read; a U+FEFF anywhere else is an ordinary
    character.
    """
    if args.input in (None, "-"):
        # A text stream put in place of stdin by an embedding caller has no buffer.
        data, label = getattr(sys.stdin, "buffer", sys.stdin).read(), "-"
    else:
        path = Path(args.input)
        data, label = path.read_bytes(), str(path)
    try:
        text = data if isinstance(data, str) else data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SequenceError(f"{label}: input is not UTF-8 text ({exc})") from None
    return text.removeprefix("\ufeff"), label


def _load_many(args) -> tuple[list[SymbolicSequence], str]:
    text, label = _read_input(args)
    try:
        seqs = parse_fasta(text, args.alphabet)
    except SequenceError as exc:
        raise SequenceError(f"{label}: {exc}") from None
    return seqs, label


def _load_single(args) -> tuple[SymbolicSequence, str]:
    seqs, label = _load_many(args)
    if len(seqs) != 1:
        raise SequenceError(
            f"{label}: input has {len(seqs)} records; this command analyzes exactly one"
        )
    return seqs[0], label


def _resolve_rep(name: str, alphabet: Alphabet) -> RepresentationMatrix | None:
    """None stands for the base (indicator) representation; any name that
    is not built in is a ``file:PATH`` (_check refuses the others)."""
    if name in _BUILT_IN:
        return _BUILT_IN[name](alphabet.size)
    return load_matrix(name[len("file:"):])


def _spectra(seq: SymbolicSequence, reps: dict, checks: bool = True):
    """The one per-record pass: each representation's spectrum, in the order of *reps*.

    *reps* maps a name to a matrix, None standing for the base. The base
    spectrum is computed once, first, when a check or the base itself needs
    it. Yields (name, report, total check, ratio fields), the ratio fields
    None without *checks*. A representation whose total check finds the
    expected or the measured total not a finite float is an error
    (``spectral`` raises no numpy warning for it). Nothing here keeps a
    yielded report once the next is asked for, so callers that drop theirs
    hold only the base while a spectrum is computed.
    """
    ind = build_indicators(seq)
    base = spectral.spectrum_base(ind) if checks or None in reps.values() else None
    for name, rep in reps.items():
        report = base if rep is None else spectral.spectrum_transformed(apply_representation(ind, rep))
        total = spectral.verify_total_spectrum(ind, report=report)
        _finite([name], seq.m, [total])
        ratio = None
        if checks:
            ratio = _ratio(None if rep is None else spectral.snr_ratio_check(ind, rep, base=base, transformed=report),
                           ind.m)
        yield name, report, total, ratio
        del report  # not held while the next spectrum is computed


def _finite(names, m: int, totals) -> None:
    """Raise for the first of *names* whose total check, in *totals* one
    per name, holds an expected or a measured total that is not a finite float."""
    for name, total in zip(names, totals):
        if not (math.isfinite(total.expected) and math.isfinite(total.measured)):
            raise ValueError(f"representation {name!r} at m = {m}: its total spectrum overflows float64")


def _ratio(rc: spectral.RatioCheck | None, m: int) -> dict:
    """An SNR-ratio check of a record of length *m*, as reports print it.

    Only its scalar fields are kept. None stands for the base against
    itself, which has the reference ratio 1 at every bin.
    """
    if rc is None:
        return {"expected": 1.0, "max_dev": 0.0, "checked_bins": m - 1, "skipped_bins": 0,
                "vacuous": False, "pass": True}
    return {
        "expected": rc.expected,
        "max_dev": None if rc.vacuous else rc.max_deviation,
        "checked_bins": rc.checked_bins,
        "skipped_bins": rc.skipped_bins,
        "vacuous": rc.vacuous,
        "pass": rc.passed(),
    }


def _analyses(args, rep_names, keep_reports: bool = False):
    """The one input record analysed under each named representation.

    Returns the sequence, its input label, one (entry, report) pair per
    representation, the notes and the exit status: 0 when every identity
    check passes, 1 otherwise. A representation named twice is analysed
    once. Each report is dropped once its entry is made (None in its pair),
    unless *keep_reports* asks for it to render a per-bin profile; the base
    report lives until the last ratio check.
    """
    seq, label = _load_single(args)
    reps = {name: _resolve_rep(name, seq.alphabet) for name in rep_names}  # a repeated --rep once
    by_name, passed = {}, []
    for rep_name, report, total, ratio in _spectra(seq, reps):
        pk = None if args.period > seq.m else spectral.periodicity_query(report, args.period)
        entry = {
            "name": report.representation,
            "d": report.d,
            "total": report.total,
            "mean_noise": report.mean_noise,
            "peak": None if pk is None else {"k": pk.k, "exact": pk.exact, "power": pk.power, "snr": pk.snr},
            "theorem_checks": {
                "total_spectrum": {
                    "expected": total.expected,
                    "measured": total.measured,
                    "pass": total.passed(),
                },
                "snr_ratio": ratio,
            },
        }
        by_name[rep_name] = (entry, report if keep_reports else None)
        passed.append(total.passed() and ratio["pass"])
        del report  # not held while the next spectrum is computed

    notes = [_TOTALS_NOTE]
    if args.period > seq.m:
        notes.append(f"period {args.period} exceeds sequence length {seq.m}; no peak bin")
    analyses = [by_name[rep_name] for rep_name in rep_names]
    return seq, label, analyses, notes, 0 if all(passed) else 1


def _input_line(seq, label) -> str:
    return f"input: {label}" + (f" (record {seq.id!r})" if seq.id else "")


def _analysis_json(args, seq, label, notes, **fields):
    """The JSON report of analyze or compare: the input fields, *fields* and the notes."""
    head = {
        "input": label,
        "record": seq.id,
        "m": seq.m,
        "alphabet": str(seq.alphabet),
        "period": args.period,
    }
    return _json({**head, **fields, "notes": notes})


# -- per-bin profiles --------------------------------------------------------


def _json_float(x: float) -> str:
    """*x* as json.dumps writes a float: its repr, or NaN, Infinity, -Infinity."""
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


def _float_strings(values: np.ndarray, for_json: bool = False) -> list[str]:
    """``repr`` of each value, as csv.writer and json.dumps write finite
    floats; a JSON column holding a non-finite value goes through _json_float."""
    fmt = _json_float if for_json and not np.isfinite(values).all() else float.__repr__
    return list(map(fmt, values.tolist()))


def _profile_strings(half: np.ndarray, m: int, for_json: bool = False) -> list[str]:
    """A profile column, k = 1 .. m-1, from its bins 0 .. m//2: bins 1 .. m//2
    are formatted and the strings mirrored, as ``SpectrumReport.power`` is."""
    head = _float_strings(half[1:], for_json)
    return head + head[: (m - 1) // 2][::-1]


def _csv_cell(text: str) -> str:
    """*text* quoted as csv.writer quotes it inside a row (an empty cell stays empty)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _profile_csv(named_reports, with_rep_column: bool):
    """One CSV row per bin k = 1 .. m-1 of each report, in blocks of rows;
    the reports share m, so k and frequency are formatted once."""
    m = named_reports[0][1].m
    k_freq = list(map(",".join, zip(map(str, range(1, m)), _float_strings(np.arange(1, m) / m))))
    header = "k,frequency,power,snr\n"
    yield "representation," + header if with_rep_column else header
    for name, report in named_reports:
        half_snr = report.half_power / report.mean_noise
        columns = [k_freq, _profile_strings(report.half_power, m), _profile_strings(half_snr, m)]
        if with_rep_column:
            columns.insert(0, [_csv_cell(name)] * (m - 1))
        for block in _blocks(map(",".join, zip(*columns))):
            yield "\n".join(block) + "\n"
        del columns  # before the next report's columns are formatted


def _profile_json(fields: dict, report):
    """*fields* plus the report's k, frequency, power and snr arrays, as
    ``json.dumps(indent=2, sort_keys=True)`` writes them. Each array is
    formatted just before it is written."""
    m = report.m
    return _json({
        **fields,
        "k": lambda: _joined(map(str, range(1, m))),
        "frequency": lambda: _joined(_float_strings(np.arange(1, m) / m)),
        "power": lambda: _joined(_profile_strings(report.half_power, m, for_json=True)),
        "snr": lambda: _joined(_profile_strings(report.half_power / report.mean_noise, m, for_json=True)),
    })


# -- analyze -----------------------------------------------------------------


def cmd_analyze(args) -> int:
    seq, label, analyses, notes, status = _analyses(args, args.reps or ["base"], args.format == "csv")
    entries = [entry for entry, _ in analyses]

    if args.format == "json":
        _write(args, _analysis_json(args, seq, label, notes, representations=entries))
    elif args.format == "csv":
        _write(args, _profile_csv([(e["name"], r) for e, r in analyses], True))
    else:
        lines = [
            _input_line(seq, label),
            f"m = {seq.m}   alphabet = {seq.alphabet} (T = {seq.alphabet.size})   period = {args.period}",
            "",
        ]
        for entry in entries:
            d = entry["d"]
            lines.append(entry["name"] if d is None else f"{entry['name']} (d = {_fmt_power(d)})")
            tc = entry["theorem_checks"]["total_spectrum"]
            lines.append(
                f"  total spectrum : {_fmt_power(entry['total'])}"
                f"   (identity {_fmt_power(tc['expected'])}, {_passfail(tc['pass'])})"
            )
            lines.append(f"  mean noise     : {_fmt_power(entry['mean_noise'])}")
            if entry["peak"] is None:
                lines.append(f"  peak           : none (period {args.period} exceeds m = {seq.m})")
            else:
                pk = entry["peak"]
                tag = "exact" if pk["exact"] else "rounded, not exact"
                lines.append(
                    f"  peak           : k = {pk['k']} (m/{args.period} {tag})"
                    f"   power = {_fmt_power(pk['power'])}   snr = {_fmt_snr(pk['snr'])}"
                )
            sr = entry["theorem_checks"]["snr_ratio"]
            if sr["vacuous"]:
                lines.append("  snr ratio      : vacuous (no nonzero base bins)")
            else:
                lines.append(
                    f"  snr ratio      : expected {_fmt_snr(sr['expected'])}"
                    f"   max dev {sr['max_dev']:.3g}   {_passfail(sr['pass'])}"
                )
            lines.append("")
        lines.extend(f"note: {note}" for note in notes)
        _write(args, _lines(lines))
    return status


# -- compare -----------------------------------------------------------------


def cmd_compare(args) -> int:
    seq, label, analyses, notes, status = _analyses(args, args.reps)

    methods = []
    for entry, _ in analyses:
        peak = entry["peak"] or dict.fromkeys(("power", "snr", "k", "exact"))
        methods.append(
            {
                "method": entry["name"],
                "length": seq.m,
                "total_spectra": entry["total"],
                "mean_noise": entry["mean_noise"],
                "periodicity_power": peak["power"],
                "periodicity_snr": peak["snr"],
                "peak_k": peak["k"],
                "peak_exact": peak["exact"],
            }
        )
    # SNR amplification over the base: the expected SNR ratio, 1 for the base itself.
    amplification = [entry["theorem_checks"]["snr_ratio"]["expected"] for entry, _ in analyses]
    ref = methods[0]
    ref_snr = ref["periodicity_snr"]
    indeterminate = ref_snr is None or ref_snr <= spectral.BASE_SNR_FLOOR
    ratios = []
    for method, amp in zip(methods[1:], amplification[1:]):
        measured = None if indeterminate else method["periodicity_snr"] / ref_snr
        ratios.append(
            {
                "method": method["method"],
                "reference": ref["method"],
                "measured": measured,
                "theoretical": amp / amplification[0],
                "indeterminate": indeterminate,
            }
        )

    if args.format == "json":
        _write(args, _analysis_json(args, seq, label, notes, methods=methods, ratios=ratios))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        keys = ["method", "length", "total_spectra", "mean_noise", "periodicity_power", "periodicity_snr"]
        writer.writerow(keys + ["snr_ratio_measured", "snr_ratio_theoretical"])
        # csv.writer writes None as an empty cell; the reference row has no ratio.
        for method, r in zip(methods, [{}] + ratios):
            writer.writerow([method[key] for key in keys] + [r.get("measured"), r.get("theoretical")])
        _write(args, [buf.getvalue()])
    else:
        table = [
            ["Method"] + [m["method"] for m in methods],
            ["Length"] + [str(m["length"]) for m in methods],
            ["Total Spectra"] + [_fmt_power(m["total_spectra"]) for m in methods],
            ["Mean Noise"] + [_fmt_power(m["mean_noise"]) for m in methods],
            [f"{args.period}-Periodicity"]
            + ["n/a" if m["peak_k"] is None else _fmt_power(m["periodicity_power"]) for m in methods],
            ["SNR"] + ["n/a" if m["peak_k"] is None else _fmt_snr(m["periodicity_snr"]) for m in methods],
        ]
        widths = [max(len(r[i]) for r in table) for i in range(len(table[0]))]
        lines = [_input_line(seq, label) + f"   alphabet = {seq.alphabet} (T = {seq.alphabet.size})", ""]
        lines.extend(
            "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in table
        )
        lines.append("")
        for r in ratios:
            head = f"SNR ratio ({r['method']} / {r['reference']}):"
            if r["indeterminate"]:
                lines.append(f"{head} indeterminate (reference peak SNR is 0)"
                             f"   theoretical {_fmt_snr(r['theoretical'])}")
            else:
                lines.append(f"{head} measured {_fmt_snr(r['measured'])}"
                             f"   theoretical {_fmt_snr(r['theoretical'])}")
        lines.extend(f"note: {note}" for note in notes)
        _write(args, _lines(lines))
    return status


# -- verify ------------------------------------------------------------------


_JSON_BOOL = ("false", "true")
_json_string = json.encoder.encode_basestring_ascii  # json.dumps of a str

# A verify record as json.dumps(item, indent=2, sort_keys=True) writes it at
# depth 2 of the report, with each SNR-ratio entry at depth 4.
_VERIFY_ITEM = """{
      "id": %s,
      "m": %s,
      "snr_ratio": [
        %s
      ],
      "total_spectrum": {
        "expected": %s,
        "measured": %s,
        "pass": %s,
        "relative_error": %s
      }
    }"""
_VERIFY_RATIO = """{
          "checked_bins": %s,
          "expected": %s,
          "max_dev": %s,
          "pass": %s,
          "representation": %s,
          "skipped_bins": %s,
          "vacuous": %s
        }"""


def _verify_items(names, expected: float):
    """The renderer of verify's JSON items, with SNR-ratio entries named
    *names* in turn, each expecting the ratio *expected*: what is fixed per
    command is written into the layout once.

    ``item(record, m, total, ratios)`` writes, without json.dumps'
    pure-Python encoder, the bytes of ``json.dumps(item, indent=2,
    sort_keys=True)`` at depth 2 for the item {"id": record, "m": m,
    "total_spectrum": {"expected", "measured", "relative_error", "pass"},
    "snr_ratio": [{"representation": name, "expected": expected,
    "checked_bins", "max_dev", "pass", "skipped_bins", "vacuous"}, ...]}.
    *total* is the base's ``TotalSpectrumCheck``, and *ratios* holds one
    (checked_bins, max_dev, pass, skipped_bins, vacuous) per name, a
    max_dev of None written as null.
    """
    slot = "%s"  # left in the layout for each record's values
    fixed = _json_float(expected)
    rows = ",\n        ".join(_VERIFY_RATIO % (slot, fixed, slot, slot, json.dumps(name).replace("%", "%%"), slot, slot)
                               for name in names)
    layout = _VERIFY_ITEM % (slot, slot, rows, slot, slot, slot, slot)

    def item(record: str, m: int, total: spectral.TotalSpectrumCheck, ratios) -> str:
        expected, measured, error = total.expected, total.measured, total.relative_error
        floats = [expected, measured, error, *[dev for _, dev, *_ in ratios if dev is not None]]
        # Finite floats as json.dumps writes them: their repr; else its NaN or Infinity.
        fmt = float.__repr__ if all(map(math.isfinite, floats)) else _json_float
        fields = [text for checked, dev, ok, skipped, vacuous in ratios
                  for text in (checked, "null" if dev is None else fmt(dev), _JSON_BOOL[ok], skipped,
                               _JSON_BOOL[vacuous])]
        return layout % (_json_string(record), m, *fields, fmt(expected), fmt(measured), _JSON_BOOL[total.passed()],
                         fmt(error))

    return item


def cmd_verify(args) -> int:
    tol = spectral.IDENTITY_RTOL
    seed = 0 if args.seed is None else args.seed
    if args.random is not None:
        alphabet = default_alphabet(4 if args.alphabet_size is None else args.alphabet_size)
        rng = np.random.default_rng(seed)
        lo, hi = _RANDOM_M_RANGE
        count, label = args.random, None
        # Each drawn just before its checks, in the seeded order: its m, then its codes.
        seqs = (
            random_sequence(alphabet, int(rng.integers(lo, hi + 1)), rng, id=f"random-{i:03d}")
            for i in range(count)
        )
    else:
        seqs, label = _load_many(args)
        count, alphabet = len(seqs), seqs[0].alphabet

    rep_names = args.reps
    if not rep_names:
        is_dna = set(alphabet.symbols) == set("ACGT")
        rep_names = ["zcurve", "tetrahedron", "helmert"] if is_dna else ["helmert"]
    # Each transform's table for the run's one alphabet, bound once however often
    # --rep names it; where each name's checks are; and, from the first record's
    # checks, the JSON layout with the ratio each SNR-ratio check expects.
    reps = {name: _resolve_rep(name, alphabet) for name in rep_names}
    transforms = [(alphabet_table(rep, alphabet), rep.d) for rep in reps.values()]
    names = ["base", *reps]
    at = [names.index(name) for name in rep_names]
    item = None

    # Each record's JSON item or text line, rendered as soon as its checks finish.
    rendered, n_pass = [], 0
    for i, seq in enumerate(seqs):
        # Per table, its total check; per transform, after the base's None, the fields of its
        # ratio check as the JSON item lists them (_verify_items), so no ratio array is held.
        checks = spectral.check_record(build_indicators(seq), transforms)
        totals, ratios = [next(checks)], [None]
        for total, rc in checks:
            item = item or _verify_items(rep_names, rc.expected)
            totals.append(total)
            vacuous = rc.vacuous  # the same for each transform: the bins checked are the base's
            ratios.append((rc.checked_bins, None if vacuous else rc.max_deviation, rc.passed(), rc.skipped_bins, vacuous))
            del rc  # not held while the next table is checked
        _finite(names, seq.m, totals)
        ok = [total.passed() for total in totals]
        n_pass += all(ok) and all([ratio[2] for ratio in ratios[1:]])
        record = seq.id or f"record-{i:03d}"
        if args.format == "json":
            rendered.append(item(record, seq.m, totals[0], [ratios[u] for u in at]))
            continue
        parts = [f"total-spectrum {_passfail(ok[0])} (rel err {totals[0].relative_error:.3g})"]
        for name, u in zip(rep_names, at):
            if vacuous and ok[u]:
                parts.append(f"{name} PASS vacuous (no nonzero base bins)")
                continue
            detail = "vacuous: no nonzero base bins" if vacuous else f"max dev {ratios[u][1]:.3g}"
            if not ok[u]:
                detail = f"total rel err {totals[u].relative_error:.3g}, {detail}"
            parts.append(f"{name} {_passfail(ok[u] and ratios[u][2])} ({detail})")
        rendered.append(f"{record} (m = {seq.m}): " + " | ".join(parts))

    all_pass = n_pass == count

    if args.format == "json":
        fields = {
            "command": "verify",
            "mode": "input" if args.random is None else "random",
            "count": count,
            "alphabet": str(alphabet),
            "alphabet_size": alphabet.size,
            "representations": list(rep_names),
            "tolerance": tol,
            "all_pass": all_pass,
        }
        if args.random is not None:
            fields["seed"] = seed
            fields["m_range"] = list(_RANDOM_M_RANGE)
        else:
            fields["input"] = label
        _write(args, _json({**fields, "results": lambda: rendered}))
    else:
        if args.random is not None:
            head = (f"verify: {count} random sequences over {alphabet} "
                    f"(T = {alphabet.size}), seed = {seed}, m in [{lo}, {hi}]")
        else:
            head = f"verify: {count} sequence(s) from {label} over {alphabet} (T = {alphabet.size})"
        listed = "transforms: " + ", ".join(rep_names) + f"   tolerance: {tol:g} relative"
        result = f"result: {_passfail(all_pass)} ({n_pass}/{count} sequences)"
        _write(args, _lines(chain([head, listed, ""], rendered, ["", result])))

    return 0 if all_pass else 1


# -- spectrum ----------------------------------------------------------------


def cmd_spectrum(args) -> int:
    seq, label = _load_single(args)
    (rep_name,) = args.reps or ["base"]
    report = next(_spectra(seq, {rep_name: _resolve_rep(rep_name, seq.alphabet)}, checks=False))[1]

    if args.format == "json":
        fields = {"input": label, "record": seq.id, "m": report.m, "representation": report.representation}
        _write(args, _profile_json(fields, report))
    else:
        _write(args, _profile_csv([(report.representation, report)], False))
    return 0


_COMMANDS = {
    "analyze": cmd_analyze,
    "compare": cmd_compare,
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check(args)
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        raise  # the reader went away: not an error of the command
    except (ValueError, OSError) as exc:
        print(f"symspec: error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """``python -m symspec`` and the ``symspec`` script: main() in a tuned process.

    The heap that the imports built is frozen before main() runs, so the
    collector's passes, its last one at exit included, skip it and the
    process does not pay to take it apart; the OS takes that memory back
    when the process ends. Everything main() creates is still collected
    and finalized as usual.

    When the reader of the output goes away, it ends quietly with status 1,
    as Python's recipe for SIGPIPE does: stdout is pointed at devnull, so
    the flush at exit raises nothing.
    """
    _tune_malloc()
    gc.freeze()
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)
