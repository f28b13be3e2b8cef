"""Command-line reports over the spectral engine.

Subcommands: analyze (per-representation summary and checks), compare
(side-by-side table plus SNR ratio lines), verify (identity checks on input
or seeded random sequences), spectrum (plot-ready per-bin CSV).

Every command runs each input record through one path, ``_spectra``:
indicators, the base spectrum when a check or the base needs it, then each
representation's spectrum, its total check, which also judges overflow,
and, unless only the profile is wanted, its SNR-ratio check. A
representation passes when both of its checks pass (``_passed``).

Per-bin profiles (``analyze --format csv``, ``spectrum``) are rendered by
column and written in blocks of rows, never as one string; their bytes are
those of ``csv.writer`` and ``json.dumps(indent=2, sort_keys=True)``. Bins
k = 1 .. m//2 of each column are formatted and the strings mirrored.
``verify`` holds one record at a time: each is rendered, to its text line
or its JSON item, as soon as its checks finish, and only those strings are
kept until the output is written.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from contextlib import contextmanager
from itertools import islice
from pathlib import Path

import numpy as np

from . import spectral
from .representations import (
    MatrixError,
    RepresentationMatrix,
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
    default_alphabet,
    parse_fasta,
    random_sequence,
)

__all__ = ["build_parser", "main", "entry"]

_RANDOM_M_RANGE = (1, 2000)
_BLOCK_ITEMS = 8192  # profile rows (or JSON array items) joined per write

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


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


# glibc's handle once entry() has tuned malloc, else None. Module state, as
# malloc's settings are state of the whole process.
_tuned_libc = None


def _tune_malloc() -> None:
    """Keep freed blocks of up to 32 MiB in glibc's heap while a command computes.

    With glibc's defaults, the FFT layer's blocks of several MB (gathered
    rows, rfft outputs, pocketfft's scratch) are unmapped or trimmed when
    freed and faulted back in by the next batch of rows. Does nothing where
    the C library has no mallopt or malloc_trim, or refuses the settings;
    _output() hands the kept memory back before anything is written.
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


@contextmanager
def _output(args):
    """The stream --output names: stdout, or the file, created only now.

    Every command's output passes through here once, after its last
    spectrum: memory that _tune_malloc kept is handed back first.
    """
    if _tuned_libc is not None:
        _tuned_libc.malloc_trim(0)
    if args.output in (None, "-"):
        yield sys.stdout
    else:
        with Path(args.output).open("w", encoding="utf-8") as out:
            yield out


def _write(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    with _output(args) as out:
        out.write(text)


def _blocks(items):
    """Consecutive lists of up to _BLOCK_ITEMS items."""
    items = iter(items)
    while block := list(islice(items, _BLOCK_ITEMS)):
        yield block


def _write_json(args, fields: dict, arrays: dict | None = None) -> None:
    """*fields* and *arrays* as one object, as ``json.dumps(indent=2, sort_keys=True)``
    writes it. Each array is a callable returning its items as JSON text
    indented for depth 2; it is called just before the array is written."""
    arrays = arrays or {}
    with _output(args) as out:
        for i, key in enumerate(sorted(fields.keys() | arrays.keys())):
            out.write(("{\n  " if i == 0 else ",\n  ") + json.dumps(key) + ": ")
            if key in fields:
                out.write(_json_text(fields[key]).replace("\n", "\n  "))
            else:
                _write_json_array(out, arrays[key]())
        out.write("\n}\n")


def _write_json_array(out, strings: list[str]) -> None:
    """Formatted items as a JSON array at depth 1 of ``json.dumps(indent=2)``."""
    if not strings:
        out.write("[]")
        return
    sep = ",\n    "
    out.write("[\n    ")
    for j, block in enumerate(_blocks(strings)):
        out.write((sep if j else "") + sep.join(block))
    out.write("\n  ]")


def _check_period(args) -> None:
    if args.period < 2:
        raise ValueError(f"period must be at least 2, got {args.period}")


def _read_input(args) -> tuple[str, str]:
    """Input text and its label; bytes that are not UTF-8 are an error, not data."""
    if args.input in (None, "-"):
        buffer = getattr(sys.stdin, "buffer", None)
        if buffer is None:  # a text stream put in place of stdin by an embedding caller
            return sys.stdin.read(), "-"
        data, label = buffer.read(), "-"
    else:
        path = Path(args.input)
        data, label = path.read_bytes(), str(path)
    try:
        return data.decode("utf-8"), label
    except UnicodeDecodeError as exc:
        raise SequenceError(f"{label}: input is not UTF-8 text ({exc})") from None


def _load_many(args) -> tuple[list[SymbolicSequence], str]:
    text, label = _read_input(args)
    alphabet = None if args.alphabet in (None, "auto") else Alphabet(tuple(args.alphabet.upper()))
    try:
        seqs = parse_fasta(text, alphabet)
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
    """None stands for the base (indicator) representation."""
    if name == "base":
        return None
    if name == "zcurve":
        return build_zcurve()
    if name == "tetrahedron":
        return build_tetrahedron()
    if name == "helmert":
        return build_helmert(alphabet.size)
    if name.startswith("file:"):
        return load_matrix(name[len("file:"):])
    raise ValueError(f"unknown representation {name!r}")


def _spectra(seq: SymbolicSequence, reps: dict, checks: bool = True):
    """The one per-record pass: each representation's spectrum, in the order of *reps*.

    *reps* maps a name to a matrix, None standing for the base. The base
    spectrum is computed once, first, when a check or the base itself needs
    it. Yields (name, report, total check, ratio fields), the ratio fields
    None without *checks*. A representation whose total check finds the
    expected or the measured total not a finite float is an error, raised
    without a numpy warning. Nothing here keeps a yielded report once the
    next is asked for, so callers that drop theirs hold only the base while
    a spectrum is computed.
    """
    ind = build_indicators(seq)
    base = spectral.spectrum_base(ind) if checks or None in reps.values() else None
    for name, rep in reps.items():
        if rep is None:
            report = base
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # judged by the total check below
                report = spectral.spectrum_transformed(apply_representation(ind, rep))
        total = spectral.verify_total_spectrum(ind, report=report)
        if not (math.isfinite(total.expected) and math.isfinite(total.measured)):
            raise ValueError(f"representation {name!r} at m = {seq.m}: its total spectrum overflows float64")
        yield name, report, total, _ratio(ind, rep, base, report) if checks else None
        del report  # not held while the next spectrum is computed


def _passed(total: spectral.TotalSpectrumCheck, ratio: dict) -> bool:
    """One representation's verdict: its total spectrum and its SNR ratios pass."""
    return total.passed() and ratio["pass"]


def _ratio(ind, rep: RepresentationMatrix | None, base, report) -> dict:
    """The SNR-ratio check of *report* against *base*, as reports print it.

    Only its scalar fields are kept. The base against itself has the
    reference ratio 1 at every bin.
    """
    if rep is None:
        return {"expected": 1.0, "max_dev": 0.0, "checked_bins": ind.m - 1, "skipped_bins": 0,
                "vacuous": False, "pass": True}
    rc = spectral.snr_ratio_check(ind, rep, base=base, transformed=report)
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
        passed.append(_passed(total, ratio))
        del report  # not held while the next spectrum is computed

    notes = [_TOTALS_NOTE]
    if args.period > seq.m:
        notes.append(f"period {args.period} exceeds sequence length {seq.m}; no peak bin")
    analyses = [by_name[rep_name] for rep_name in rep_names]
    return seq, label, analyses, notes, 0 if all(passed) else 1


def _input_line(seq, label) -> str:
    return f"input: {label}" + (f" (record {seq.id!r})" if seq.id else "")


def _write_analysis_json(args, seq, label, notes, **fields) -> None:
    """The JSON report of analyze or compare: the input fields, *fields* and the notes."""
    head = {
        "input": label,
        "record": seq.id,
        "m": seq.m,
        "alphabet": str(seq.alphabet),
        "period": args.period,
    }
    _write_json(args, {**head, **fields, "notes": notes})


# -- per-bin profiles --------------------------------------------------------


def _float_strings(values: np.ndarray, for_json: bool = False) -> list[str]:
    """``repr`` of each value, as csv.writer and json.dumps write finite floats.

    json.dumps spells non-finite values NaN, Infinity and -Infinity, so a
    JSON column holding any is formatted by json.dumps itself.
    """
    fmt = json.dumps if for_json and not np.isfinite(values).all() else float.__repr__
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


def _write_profile_csv(args, named_reports, with_rep_column: bool) -> None:
    """One CSV row per bin k = 1 .. m-1 of each report; the reports share m,
    so k and frequency are formatted once."""
    m = named_reports[0][1].m
    header = "k,frequency,power,snr\n"
    with _output(args) as out:
        k_freq = list(map(",".join, zip(map(str, range(1, m)), _float_strings(np.arange(1, m) / m))))
        out.write("representation," + header if with_rep_column else header)
        for name, report in named_reports:
            half_snr = report.half_power / report.mean_noise
            columns = [k_freq, _profile_strings(report.half_power, m), _profile_strings(half_snr, m)]
            if with_rep_column:
                columns.insert(0, [_csv_cell(name)] * (m - 1))
            for block in _blocks(map(",".join, zip(*columns))):
                out.write("\n".join(block) + "\n")
            del columns  # before the next report's columns are formatted


def _write_profile_json(args, fields: dict, report) -> None:
    """*fields* plus the report's k, frequency, power and snr arrays, as
    ``json.dumps(indent=2, sort_keys=True)`` writes them. Each array is
    formatted just before it is written."""
    m = report.m
    _write_json(args, fields, {
        "k": lambda: list(map(str, range(1, m))),
        "frequency": lambda: _float_strings(np.arange(1, m) / m),
        "power": lambda: _profile_strings(report.half_power, m, for_json=True),
        "snr": lambda: _profile_strings(report.half_power / report.mean_noise, m, for_json=True),
    })


# -- analyze -----------------------------------------------------------------


def cmd_analyze(args) -> int:
    _check_period(args)
    seq, label, analyses, notes, status = _analyses(args, args.reps or ["base"], args.format == "csv")
    entries = [entry for entry, _ in analyses]

    if args.format == "json":
        _write_analysis_json(args, seq, label, notes, representations=entries)
    elif args.format == "csv":
        _write_profile_csv(args, [(e["name"], r) for e, r in analyses], True)
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
        _write(args, "\n".join(lines))
    return status


# -- compare -----------------------------------------------------------------


def cmd_compare(args) -> int:
    _check_period(args)
    rep_names = args.reps or []
    if len(rep_names) < 2:
        raise ValueError("compare needs at least two --rep selections")
    seq, label, analyses, notes, status = _analyses(args, rep_names)

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
        _write_analysis_json(args, seq, label, notes, methods=methods, ratios=ratios)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        keys = ["method", "length", "total_spectra", "mean_noise", "periodicity_power", "periodicity_snr"]
        writer.writerow(keys + ["snr_ratio_measured", "snr_ratio_theoretical"])
        # csv.writer writes None as an empty cell; the reference row has no ratio.
        for method, r in zip(methods, [{}] + ratios):
            writer.writerow([method[key] for key in keys] + [r.get("measured"), r.get("theoretical")])
        _write(args, buf.getvalue())
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
        _write(args, "\n".join(lines))
    return status


# -- verify ------------------------------------------------------------------


def cmd_verify(args) -> int:
    if args.format == "csv":
        raise ValueError("verify supports --format text or json")
    if args.random is None and (args.seed, args.alphabet_size) != (None, None):
        raise ValueError("--seed and --alphabet-size apply only with --random")
    if args.random is not None and (args.input, args.alphabet) != (None, None):
        raise ValueError("--random makes its own sequences; it takes no --input or --alphabet")
    tol = spectral.IDENTITY_RTOL
    seed = 0 if args.seed is None else args.seed
    if args.random is not None:
        if args.random < 1:
            raise ValueError(f"--random needs a positive count, got {args.random}")
        if seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {seed}")
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
    if "base" in rep_names:
        raise ValueError(
            "verify checks channel transforms against the implicit base representation; "
            "--rep base is not a transform"
        )
    # The base first, for its total check; a repeated --rep once.
    reps = {"base": None, **{name: _resolve_rep(name, alphabet) for name in rep_names}}

    # Each record's JSON item or text line, rendered as soon as its checks finish.
    rendered, n_pass = [], 0
    for i, seq in enumerate(seqs):
        checks = {}
        for name, report, total, ratio in _spectra(seq, reps):
            checks[name] = total, ratio
            del report  # not held while the next spectrum is computed
        n_pass += all(_passed(*check) for check in checks.values())
        tot, record = checks["base"][0], seq.id or f"record-{i:03d}"
        if args.format == "json":
            item = {
                "id": record,
                "m": seq.m,
                "total_spectrum": {
                    "expected": tot.expected,
                    "measured": tot.measured,
                    "relative_error": tot.relative_error,
                    "pass": tot.passed(),
                },
                "snr_ratio": [{"representation": name, **checks[name][1]} for name in rep_names],
            }
            rendered.append(_json_text(item).replace("\n", "\n    "))
        else:
            parts = [f"total-spectrum {_passfail(tot.passed())} (rel err {tot.relative_error:.3g})"]
            for name in rep_names:
                total, sr = checks[name]
                if sr["vacuous"] and total.passed():
                    parts.append(f"{name} PASS vacuous (no nonzero base bins)")
                    continue
                detail = "vacuous: no nonzero base bins" if sr["vacuous"] else f"max dev {sr['max_dev']:.3g}"
                if not total.passed():
                    detail = f"total rel err {total.relative_error:.3g}, {detail}"
                parts.append(f"{name} {_passfail(_passed(total, sr))} ({detail})")
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
        _write_json(args, fields, {"results": lambda: rendered})
    else:
        if args.random is not None:
            head = (f"verify: {count} random sequences over {alphabet} "
                    f"(T = {alphabet.size}), seed = {seed}, m in [{lo}, {hi}]")
        else:
            head = f"verify: {count} sequence(s) from {label} over {alphabet} (T = {alphabet.size})"
        lines = [head, "transforms: " + ", ".join(rep_names) + f"   tolerance: {tol:g} relative", ""]
        lines += rendered
        lines += ["", f"result: {_passfail(all_pass)} ({n_pass}/{count} sequences)"]
        _write(args, "\n".join(lines))

    return 0 if all_pass else 1


# -- spectrum ----------------------------------------------------------------


def cmd_spectrum(args) -> int:
    _check_period(args)
    seq, label = _load_single(args)
    rep_names = args.reps or ["base"]
    if len(rep_names) != 1:
        raise ValueError("spectrum needs exactly one --rep selection")
    report = next(_spectra(seq, {rep_names[0]: _resolve_rep(rep_names[0], seq.alphabet)}, checks=False))[1]

    if args.format == "json":
        fields = {"input": label, "record": seq.id, "m": report.m, "representation": report.representation}
        _write_profile_json(args, fields, report)
    else:
        _write_profile_csv(args, [(report.representation, report)], False)
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
        return _COMMANDS[args.command](args)
    except (SequenceError, MatrixError, ValueError, OSError) as exc:
        print(f"symspec: error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """``python -m symspec`` and the ``symspec`` script: main() in a tuned process."""
    _tune_malloc()
    sys.exit(main())
