"""Command-line reports over the spectral engine.

Subcommands: analyze (per-representation summary and checks), compare
(side-by-side table plus SNR ratio lines), verify (identity checks on input
or seeded random sequences), spectrum (plot-ready per-bin CSV).

Per-bin profiles (``analyze --format csv``, ``spectrum``) are rendered by
column and written in blocks of rows, never as one string; their bytes are
those of ``csv.writer`` and ``json.dumps(indent=2, sort_keys=True)``.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
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

    def add_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--input", "-i", metavar="PATH|-", default="-",
            help="FASTA or plain-text sequence file; '-' reads stdin (default)",
        )
        sp.add_argument(
            "--alphabet", metavar="STR|auto", default="auto",
            help="explicit ordered symbols (e.g. ACGT) or 'auto' to infer",
        )
        sp.add_argument(
            "--rep", action="append", dest="reps", metavar="NAME",
            help="base|zcurve|tetrahedron|helmert|file:PATH (repeatable)",
        )
        sp.add_argument(
            "--period", type=int, default=3, metavar="N",
            help="periodicity of interest (default 3)",
        )
        sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
        sp.add_argument("--output", "-o", metavar="PATH|-", default="-")

    sp = sub.add_parser("analyze", help="spectrum summary and identity checks per representation")
    add_common(sp)
    sp = sub.add_parser("compare", help="side-by-side table for two or more representations")
    add_common(sp)
    sp = sub.add_parser("verify", help="check the spectral identities on input or random sequences")
    add_common(sp)
    sp.add_argument(
        "--random", type=int, default=None, metavar="N",
        help=f"verify N seeded random sequences (m in {list(_RANDOM_M_RANGE)}) instead of reading input",
    )
    sp.add_argument("--seed", type=int, default=0, metavar="S")
    sp.add_argument(
        "--alphabet-size", type=int, default=4, metavar="T", dest="alphabet_size",
        help="alphabet size for --random (4 = DNA, 20 = amino acids)",
    )
    sp = sub.add_parser("spectrum", help="plot-ready CSV of the power/SNR profile")
    add_common(sp)
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


@contextmanager
def _output(args):
    """The stream --output names: stdout, or the file, created only now."""
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
    alphabet = None if args.alphabet == "auto" else Alphabet(tuple(args.alphabet.upper()))
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


def _analysis_entry(ind, rep: RepresentationMatrix | None, period: int, base):
    """Report dict for one representation: summary, peak, identity checks.

    *base* is the ``spectrum_base`` report of *ind*, computed once per command.
    """
    m = ind.m
    T = ind.alphabet.size
    if rep is None:
        report = base
        name = "base"
        expected_total = float(m) ** 2
        ratio = None
    else:
        report = spectral.spectrum_transformed(apply_representation(ind, rep))
        name = rep.name
        expected_total = rep.d**2 * (T - 1) / T * float(m) ** 2
        ratio = spectral.snr_ratio_check(ind, rep, base=base, transformed=report)

    total_pass = abs(report.total - expected_total) <= spectral.IDENTITY_RTOL * expected_total
    if period <= m:
        peak = spectral.periodicity_query(report, period)
        peak_dict = {"k": peak.k, "exact": peak.exact, "power": peak.power, "snr": peak.snr}
    else:
        peak_dict = None

    if ratio is None:
        # Base against itself: the reference ratio is identically 1.
        ratio_dict = {
            "expected": 1.0, "max_dev": 0.0,
            "checked_bins": m - 1, "skipped_bins": 0,
            "vacuous": False, "pass": True,
        }
    else:
        ratio_dict = {
            "expected": ratio.expected,
            "max_dev": None if ratio.vacuous else ratio.max_deviation,
            "checked_bins": ratio.checked_bins,
            "skipped_bins": ratio.skipped_bins,
            "vacuous": ratio.vacuous,
            "pass": ratio.passed(),
        }

    entry = {
        "name": name,
        "d": None if rep is None else float(rep.d),
        "total": float(report.total),
        "mean_noise": float(report.mean_noise),
        "peak": peak_dict,
        "theorem_checks": {
            "total_spectrum": {
                "expected": float(expected_total),
                "measured": float(report.total),
                "pass": bool(total_pass),
            },
            "snr_ratio": ratio_dict,
        },
    }
    return entry, report


def _entry_checks_pass(entry) -> bool:
    checks = entry["theorem_checks"]
    return checks["total_spectrum"]["pass"] and checks["snr_ratio"]["pass"]


# -- per-bin profiles --------------------------------------------------------


def _float_strings(values: np.ndarray, for_json: bool = False) -> list[str]:
    """``repr`` of each value, as csv.writer and json.dumps write finite floats.

    A column that reads the same both ways bit for bit, as power[1:] and snr
    do (P(k) = P(m - k), see ``spectral._power``), is formatted for its first
    half only and the strings are mirrored. json.dumps spells non-finite
    values NaN, Infinity and -Infinity, so a JSON column holding any is
    formatted by json.dumps itself.
    """
    values = np.asarray(values, dtype=np.float64)
    fmt = json.dumps if for_json and not np.isfinite(values).all() else float.__repr__
    n = values.size
    bits = values.view(np.uint64)
    if n > 1 and np.array_equal(bits, bits[::-1]):
        head = list(map(fmt, values[: (n + 1) // 2].tolist()))
        return head + head[n // 2 - 1 :: -1]
    return list(map(fmt, values.tolist()))


def _csv_cell(text: str) -> str:
    """*text* quoted as csv.writer quotes it inside a row (an empty cell stays empty)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _blocks(items):
    """Consecutive lists of up to _BLOCK_ITEMS items."""
    items = iter(items)
    while block := list(islice(items, _BLOCK_ITEMS)):
        yield block


def _write_profile_csv(args, named_reports, with_rep_column: bool) -> None:
    """One CSV row per bin k = 1 .. m-1 of each report; the reports share m,
    so k and frequency are formatted once."""
    m = named_reports[0][1].m
    k_freq = list(map(",".join, zip(map(str, range(1, m)), _float_strings(np.arange(1, m) / m))))
    header = "k,frequency,power,snr\n"
    with _output(args) as out:
        out.write("representation," + header if with_rep_column else header)
        for name, report in named_reports:
            columns = [k_freq, _float_strings(report.power[1:]), _float_strings(report.snr)]
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
    arrays = {
        "k": lambda: list(map(str, range(1, m))),
        "frequency": lambda: _float_strings(np.arange(1, m) / m),
        "power": lambda: _float_strings(report.power[1:], for_json=True),
        "snr": lambda: _float_strings(report.snr, for_json=True),
    }
    with _output(args) as out:
        for i, key in enumerate(sorted(fields.keys() | arrays.keys())):
            out.write(("{\n  " if i == 0 else ",\n  ") + json.dumps(key) + ": ")
            if key in fields:
                out.write(json.dumps(fields[key]))
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


# -- analyze -----------------------------------------------------------------


def cmd_analyze(args) -> int:
    _check_period(args)
    seq, label = _load_single(args)
    ind = build_indicators(seq)
    base = spectral.spectrum_base(ind)
    rep_names = args.reps or ["base"]
    entries = []
    reports = []
    for rep_name in rep_names:
        rep = _resolve_rep(rep_name, seq.alphabet)
        entry, report = _analysis_entry(ind, rep, args.period, base)
        entries.append(entry)
        reports.append(report)

    notes = [_TOTALS_NOTE]
    if args.period > seq.m:
        notes.append(f"period {args.period} exceeds sequence length {seq.m}; no peak bin")

    if args.format == "json":
        obj = {
            "input": label,
            "record": seq.id,
            "m": seq.m,
            "alphabet": str(seq.alphabet),
            "period": args.period,
            "representations": entries,
            "notes": notes,
        }
        _write(args, _json_text(obj))
    elif args.format == "csv":
        _write_profile_csv(args, [(e["name"], r) for e, r in zip(entries, reports)], True)
    else:
        lines = [
            f"input: {label}" + (f" (record {seq.id!r})" if seq.id else ""),
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

    return 0 if all(_entry_checks_pass(e) for e in entries) else 1


# -- compare -----------------------------------------------------------------


def cmd_compare(args) -> int:
    _check_period(args)
    seq, label = _load_single(args)
    rep_names = args.reps or []
    if len(rep_names) < 2:
        raise ValueError("compare needs at least two --rep selections")
    ind = build_indicators(seq)
    base = spectral.spectrum_base(ind)
    entries = []
    reports = []
    for rep_name in rep_names:
        rep = _resolve_rep(rep_name, seq.alphabet)
        entry, report = _analysis_entry(ind, rep, args.period, base)
        entries.append(entry)
        reports.append(report)

    T = seq.alphabet.size
    amplification = [1.0 if e["d"] is None else T / (T - 1.0) for e in entries]
    ref = entries[0]
    peak_k = ref["peak"]["k"] if ref["peak"] else None

    ratios = []
    for idx, entry in enumerate(entries[1:], start=1):
        theoretical = amplification[idx] / amplification[0]
        if peak_k is None or ref["peak"]["snr"] <= spectral.BASE_SNR_FLOOR:
            measured = None
        else:
            measured = entry["peak"]["snr"] / ref["peak"]["snr"]
        ratios.append(
            {
                "method": entry["name"],
                "reference": ref["name"],
                "measured": measured,
                "theoretical": theoretical,
                "indeterminate": measured is None,
            }
        )

    notes = [_TOTALS_NOTE]
    if peak_k is None:
        notes.append(f"period {args.period} exceeds sequence length {seq.m}; no peak bin")

    def peak_cell(entry, field):
        return entry["peak"][field] if entry["peak"] else None

    if args.format == "json":
        obj = {
            "input": label,
            "record": seq.id,
            "m": seq.m,
            "alphabet": str(seq.alphabet),
            "period": args.period,
            "methods": [
                {
                    "method": e["name"],
                    "length": seq.m,
                    "total_spectra": e["total"],
                    "mean_noise": e["mean_noise"],
                    "periodicity_power": peak_cell(e, "power"),
                    "periodicity_snr": peak_cell(e, "snr"),
                    "peak_k": peak_cell(e, "k"),
                    "peak_exact": peak_cell(e, "exact"),
                }
                for e in entries
            ],
            "ratios": ratios,
            "notes": notes,
        }
        _write(args, _json_text(obj))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["method", "length", "total_spectra", "mean_noise",
             "periodicity_power", "periodicity_snr",
             "snr_ratio_measured", "snr_ratio_theoretical"]
        )
        for idx, entry in enumerate(entries):
            r = ratios[idx - 1] if idx >= 1 else None
            writer.writerow(
                [
                    entry["name"], seq.m, entry["total"], entry["mean_noise"],
                    peak_cell(entry, "power"), peak_cell(entry, "snr"),
                    "" if r is None or r["measured"] is None else r["measured"],
                    "" if r is None else r["theoretical"],
                ]
            )
        _write(args, buf.getvalue())
    else:
        names = [e["name"] for e in entries]
        def row(label_, cells):
            return [label_] + cells
        table = [
            row("Method", names),
            row("Length", [str(seq.m)] * len(entries)),
            row("Total Spectra", [_fmt_power(e["total"]) for e in entries]),
            row("Mean Noise", [_fmt_power(e["mean_noise"]) for e in entries]),
            row(
                f"{args.period}-Periodicity",
                ["n/a" if e["peak"] is None else _fmt_power(e["peak"]["power"]) for e in entries],
            ),
            row("SNR", ["n/a" if e["peak"] is None else _fmt_snr(e["peak"]["snr"]) for e in entries]),
        ]
        widths = [max(len(r[i]) for r in table) for i in range(len(table[0]))]
        lines = [
            f"input: {label}" + (f" (record {seq.id!r})" if seq.id else "")
            + f"   alphabet = {seq.alphabet} (T = {T})",
            "",
        ]
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

    return 0 if all(_entry_checks_pass(e) for e in entries) else 1


# -- verify ------------------------------------------------------------------


def cmd_verify(args) -> int:
    tol = spectral.IDENTITY_RTOL
    if args.random is not None:
        if args.random < 1:
            raise ValueError(f"--random needs a positive count, got {args.random}")
        alphabet = default_alphabet(args.alphabet_size)
        rng = np.random.default_rng(args.seed)
        lo, hi = _RANDOM_M_RANGE
        seqs = [
            random_sequence(alphabet, int(rng.integers(lo, hi + 1)), rng, id=f"random-{i:03d}")
            for i in range(args.random)
        ]
        label = None
    else:
        seqs, label = _load_many(args)
        alphabet = seqs[0].alphabet

    rep_names = args.reps
    if not rep_names:
        is_dna = set(alphabet.symbols) == set("ACGT")
        rep_names = ["zcurve", "tetrahedron", "helmert"] if is_dna else ["helmert"]
    if "base" in rep_names:
        raise ValueError(
            "verify checks channel transforms against the implicit base representation; "
            "--rep base is not a transform"
        )
    reps = [(name, _resolve_rep(name, alphabet)) for name in rep_names]

    results = []
    all_pass = True
    for i, seq in enumerate(seqs):
        ind = build_indicators(seq)
        base = spectral.spectrum_base(ind)
        tot = spectral.verify_total_spectrum(ind, report=base)
        seq_result = {
            "id": seq.id or f"record-{i:03d}",
            "m": seq.m,
            "total_spectrum": {
                "expected": tot.expected,
                "measured": tot.measured,
                "relative_error": tot.relative_error,
                "pass": tot.passed(),
            },
            "snr_ratio": [],
        }
        all_pass = all_pass and tot.passed()
        for name, rep in reps:
            rc = spectral.snr_ratio_check(ind, rep, base=base)
            seq_result["snr_ratio"].append(
                {
                    "representation": name,
                    "expected": rc.expected,
                    "max_dev": None if rc.vacuous else rc.max_deviation,
                    "checked_bins": rc.checked_bins,
                    "skipped_bins": rc.skipped_bins,
                    "vacuous": rc.vacuous,
                    "pass": rc.passed(),
                }
            )
            all_pass = all_pass and rc.passed()
        results.append(seq_result)

    n_pass = sum(
        1 for r in results
        if r["total_spectrum"]["pass"] and all(s["pass"] for s in r["snr_ratio"])
    )

    if args.format == "json":
        obj = {
            "command": "verify",
            "mode": "input" if args.random is None else "random",
            "count": len(seqs),
            "alphabet": str(alphabet),
            "alphabet_size": alphabet.size,
            "representations": list(rep_names),
            "tolerance": tol,
            "results": results,
            "all_pass": all_pass,
        }
        if args.random is not None:
            obj["seed"] = args.seed
            obj["m_range"] = list(_RANDOM_M_RANGE)
        else:
            obj["input"] = label
        _write(args, _json_text(obj))
    elif args.format == "csv":
        raise ValueError("verify supports --format text or json")
    else:
        lines = []
        if args.random is not None:
            lo, hi = _RANDOM_M_RANGE
            lines.append(
                f"verify: {len(seqs)} random sequences over {alphabet} "
                f"(T = {alphabet.size}), seed = {args.seed}, m in [{lo}, {hi}]"
            )
        else:
            lines.append(
                f"verify: {len(seqs)} sequence(s) from {label} over {alphabet} (T = {alphabet.size})"
            )
        lines.append(
            "transforms: " + ", ".join(rep_names) + f"   tolerance: {tol:g} relative"
        )
        lines.append("")
        for r in results:
            parts = [
                f"total-spectrum {_passfail(r['total_spectrum']['pass'])}"
                f" (rel err {r['total_spectrum']['relative_error']:.3g})"
            ]
            for s in r["snr_ratio"]:
                if s["vacuous"]:
                    parts.append(f"{s['representation']} PASS vacuous (no nonzero base bins)")
                else:
                    parts.append(
                        f"{s['representation']} {_passfail(s['pass'])} (max dev {s['max_dev']:.3g})"
                    )
            lines.append(f"{r['id']} (m = {r['m']}): " + " | ".join(parts))
        lines.append("")
        lines.append(f"result: {_passfail(all_pass)} ({n_pass}/{len(seqs)} sequences)")
        _write(args, "\n".join(lines))

    return 0 if all_pass else 1


# -- spectrum ----------------------------------------------------------------


def cmd_spectrum(args) -> int:
    _check_period(args)
    seq, label = _load_single(args)
    rep_names = args.reps or ["base"]
    if len(rep_names) != 1:
        raise ValueError("spectrum needs exactly one --rep selection")
    rep = _resolve_rep(rep_names[0], seq.alphabet)
    ind = build_indicators(seq)
    if rep is None:
        report = spectral.spectrum_base(ind)
    else:
        report = spectral.spectrum_transformed(apply_representation(ind, rep))

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
    sys.exit(main())
