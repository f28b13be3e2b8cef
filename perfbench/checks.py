"""Output checks that do not rely on the code under test.

Every expected value here is derived from the generated input and the
paper's identities, using the benchmark's own copies of the transform
matrices:

* a per-bin profile has m - 1 rows, k = 1 .. m-1;
* snr = power / E at every bin, where E = expected total / m;
* sum of power over k >= 1, plus P(0) computed from the symbol counts,
  equals the exact total (m^2 for base, d^2 (T-1)/T m^2 for a transform)
  within IDENTITY_RTOL;
* the power at the peak bin equals a direct single-bin DFT of the input,
  computed here in O(T m).

Output bytes are never compared: a different FFT kernel may legitimately
change the last bits of every value.
"""
from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from workloads import PERIOD, VERIFY_M_RANGE, Input, Invocation

IDENTITY_RTOL = 1e-9  # the paper's gate for both identities


def _helmert(size: int) -> np.ndarray:
    rows = np.zeros((size - 1, size))
    for l in range(1, size):
        rows[l - 1, :l] = 1.0 / math.sqrt(l * (l + 1.0))
        rows[l - 1, l] = -l / math.sqrt(l * (l + 1.0))
    return rows


_R2, _R6 = math.sqrt(2.0), math.sqrt(6.0)
# name -> (column symbols, rows); helmert binds positionally to the alphabet.
_NAMED = {
    "zcurve": ("ACGT", [[1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]),
    "tetrahedron": ("ATCG", [[0, 2 * _R2 / 3, -_R2 / 3, -_R2 / 3],
                             [0, 0, _R6 / 3, -_R6 / 3],
                             [1, -1 / 3, -1 / 3, -1 / 3]]),
}


@dataclass(frozen=True)
class Reference:
    """Exact spectrum facts of one representation of one input."""

    matrix: np.ndarray  # rows over the input's alphabet order (identity for base)
    expected_total: float
    p0: float  # power at k = 0


def reference(inp: Input, rep: str) -> Reference:
    T, m = len(inp.alphabet), inp.m
    if rep == "base":
        M, d2 = np.eye(T), 1.0
    elif rep == "helmert":
        M, d2 = _helmert(T), 1.0
    else:
        order, rows = _NAMED[rep]
        rows = np.asarray(rows, dtype=np.float64)
        M = rows[:, [order.index(s) for s in inp.alphabet]]
        d2 = float(rows[0] @ rows[0])
    total = float(m) ** 2 * (1.0 if rep == "base" else d2 * (T - 1) / T)
    p0 = float(np.sum((M @ inp.counts.astype(np.float64)) ** 2))
    return Reference(M, total, p0)


def peak_bin(m: int) -> tuple[int, bool]:
    """Bin of the period-3 peak: m/3, rounded when 3 does not divide m."""
    k, rem = divmod(m, PERIOD)
    return (k, True) if rem == 0 else (round(m / PERIOD), False)


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    symbols: int = 0
    gate_use: float = 0.0  # worst use of an identity gate the program itself reported

    def expect(self, ok, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def close(self, label: str, got, want, scale) -> None:
        got, want = float(got), float(want)
        if not abs(got - want) <= IDENTITY_RTOL * scale:
            self.problems.append(f"{label}: got {got!r}, expected {want!r}")


class Checker:
    """Checks one invocation's output; caches the direct DFT bins it computes."""

    def __init__(self):
        self._bins: dict[tuple[str, int], np.ndarray] = {}

    def _dft(self, inp: Input, k: int) -> np.ndarray:
        """Per-symbol DFT U_t(k) of the indicator rows, by direct summation."""
        key = (inp.digest, k)
        if key not in self._bins:
            j = np.arange(inp.m, dtype=np.int64)
            angle = (k * j % inp.m) * (2.0 * math.pi / inp.m)
            T = len(inp.alphabet)
            re = np.bincount(inp.codes, weights=np.cos(angle), minlength=T)
            im = np.bincount(inp.codes, weights=np.sin(angle), minlength=T)
            self._bins[key] = re - 1j * im
        return self._bins[key]

    def direct_power(self, inp: Input, ref: Reference, k: int) -> float:
        return float(np.sum(np.abs(ref.matrix @ self._dft(inp, k)) ** 2))

    def check(self, inv: Invocation, exit_code: int, text: str) -> Outcome:
        out = Outcome()
        out.expect(exit_code == 0, f"exit status {exit_code}")
        try:
            if inv.command == "verify":
                self._verify(inv, json.loads(text), out)
            elif inv.output_format == "csv":
                self._profile_csv(inv, text, out)
            elif inv.command == "spectrum":
                self._profile_json(inv, json.loads(text), out)
            elif inv.command == "analyze":
                self._analyze_json(inv, json.loads(text), out)
            else:
                self._compare_json(inv, json.loads(text), out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            out.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        if inv.input is not None:
            out.symbols = inv.input.m
        return out

    # -- per-bin profiles ------------------------------------------------------

    def _profile(self, inp, rep, k, freq, power, snr, out: Outcome) -> None:
        m = inp.m
        ref = reference(inp, rep)
        E = ref.expected_total / m
        if len(k) != m - 1 or not np.array_equal(k, np.arange(1, m)):
            out.problems.append(f"{rep}: {len(k)} rows, expected k = 1..{m - 1}")
            return
        out.expect(np.all(np.abs(freq - k / m) <= 1e-12), f"{rep}: frequency != k/m")
        bad = np.abs(snr * E - power) > IDENTITY_RTOL * np.maximum(np.abs(power), E)
        out.expect(not bad.any(), f"{rep}: snr != power/E at {int(bad.sum())} bins")
        out.close(f"{rep}: sum(power) + P(0)", math.fsum(power) + ref.p0,
                  ref.expected_total, ref.expected_total)
        kp = int(k[np.argmax(power)])
        want = self.direct_power(inp, ref, kp)
        out.close(f"{rep}: power at peak bin {kp}", power[kp - 1], want, max(want, E))

    def _profile_csv(self, inv, text, out) -> None:
        with_rep = inv.command == "analyze"
        head = (["representation"] if with_rep else []) + ["k", "frequency", "power", "snr"]
        first = text.split("\n", 1)[0]
        out.expect(first.split(",") == head, f"csv header {first!r}")
        table = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2,
                           usecols=(1, 2, 3, 4) if with_rep else None)
        n = inv.input.m - 1
        out.expect(len(table) == n * len(inv.reps), f"{len(table)} csv rows")
        if with_rep:  # each representation's rows form one block, in --rep order
            starts = [text.find(f"\n{rep},") for rep in inv.reps]
            out.expect(starts == sorted(starts) and -1 not in starts
                       and all(text.count(f"\n{rep},") == n for rep in inv.reps),
                       "csv rows not in one block per representation")
        for i, rep in enumerate(inv.reps):
            rows = table[i * n : (i + 1) * n]
            self._profile(inv.input, rep, rows[:, 0].astype(np.int64), *rows[:, 1:].T, out)

    def _profile_json(self, inv, obj, out) -> None:
        (rep,) = inv.reps
        out.expect(obj["m"] == inv.input.m and obj["representation"] == rep, "spectrum header")
        cols = [np.asarray(obj[c], dtype=np.float64) for c in ("k", "frequency", "power", "snr")]
        self._profile(inv.input, rep, cols[0].astype(np.int64), *cols[1:], out)

    # -- summaries ---------------------------------------------------------------

    def _peak(self, inp, rep, k, exact, power, snr, out) -> None:
        ref = reference(inp, rep)
        E = ref.expected_total / inp.m
        want_k, want_exact = peak_bin(inp.m)
        out.expect(k == want_k and exact == want_exact, f"{rep}: peak bin {k}, expected {want_k}")
        want = self.direct_power(inp, ref, want_k)
        out.close(f"{rep}: peak power", power, want, max(want, E))
        out.close(f"{rep}: peak snr * E", snr * E, power, max(abs(power), E))

    def _summary_totals(self, inp, rep, total, mean_noise, out) -> None:
        ref = reference(inp, rep)
        out.close(f"{rep}: total", total, ref.expected_total, ref.expected_total)
        out.close(f"{rep}: mean noise", mean_noise, ref.expected_total / inp.m,
                  ref.expected_total / inp.m)

    def _analyze_json(self, inv, obj, out) -> None:
        inp = inv.input
        T = len(inp.alphabet)
        out.expect(obj["m"] == inp.m and obj["alphabet"] == inp.alphabet, "analyze header")
        entries = obj["representations"]
        out.expect([e["name"] for e in entries] == list(inv.reps), "analyze representations")
        for rep, e in zip(inv.reps, entries):
            self._summary_totals(inp, rep, e["total"], e["mean_noise"], out)
            pk = e["peak"]
            self._peak(inp, rep, pk["k"], pk["exact"], pk["power"], pk["snr"], out)
            tc, sr = e["theorem_checks"]["total_spectrum"], e["theorem_checks"]["snr_ratio"]
            out.expect(tc["pass"] and sr["pass"], f"{rep}: identity check reports FAIL")
            out.expect(sr["checked_bins"] + sr["skipped_bins"] == inp.m - 1, f"{rep}: ratio bins")
            want_ratio = 1.0 if rep == "base" else T / (T - 1.0)
            out.close(f"{rep}: expected ratio", sr["expected"], want_ratio, want_ratio)
            use = abs(tc["measured"] - tc["expected"]) / (IDENTITY_RTOL * tc["expected"])
            if sr["max_dev"] is not None:
                use = max(use, sr["max_dev"] / (IDENTITY_RTOL * sr["expected"]))
            out.gate_use = max(out.gate_use, use)

    def _compare_json(self, inv, obj, out) -> None:
        inp = inv.input
        T = len(inp.alphabet)
        out.expect(obj["m"] == inp.m and obj["alphabet"] == inp.alphabet, "compare header")
        methods = obj["methods"]
        out.expect([e["method"] for e in methods] == list(inv.reps), "compare methods")
        for rep, e in zip(inv.reps, methods):
            out.expect(e["length"] == inp.m, f"{rep}: length")
            self._summary_totals(inp, rep, e["total_spectra"], e["mean_noise"], out)
            self._peak(inp, rep, e["peak_k"], e["peak_exact"], e["periodicity_power"],
                       e["periodicity_snr"], out)
        amp = [1.0 if rep == "base" else T / (T - 1.0) for rep in inv.reps]
        out.expect(len(obj["ratios"]) == len(inv.reps) - 1, "compare ratio count")
        for i, r in enumerate(obj["ratios"], start=1):
            want = amp[i] / amp[0]
            out.close(f"{r['method']}: theoretical ratio", r["theoretical"], want, want)
            out.expect(not r["indeterminate"], f"{r['method']}: indeterminate ratio")
            if r["measured"] is not None:
                out.close(f"{r['method']}: measured ratio", r["measured"], want, want)

    # -- verify ------------------------------------------------------------------

    def _verify(self, inv, obj, out) -> None:
        T = inv.alphabet_size
        lo, hi = VERIFY_M_RANGE
        out.expect(obj["count"] == inv.count and len(obj["results"]) == inv.count, "verify count")
        out.expect(obj["alphabet_size"] == T and obj["representations"] == list(inv.reps),
                   "verify header")
        out.expect(obj["all_pass"] is True, "verify reports FAIL")
        ratio = T / (T - 1.0)
        for r in obj["results"]:
            m = r["m"]
            out.expect(lo <= m <= hi, f"{r['id']}: m = {m} outside {lo}..{hi}")
            tot = r["total_spectrum"]
            out.expect(tot["expected"] == float(m) ** 2, f"{r['id']}: expected total != m^2")
            out.close(f"{r['id']}: total", tot["measured"], float(m) ** 2, float(m) ** 2)
            out.expect(tot["pass"], f"{r['id']}: total-spectrum FAIL")
            out.gate_use = max(out.gate_use, tot["relative_error"] / IDENTITY_RTOL)
            out.expect([s["representation"] for s in r["snr_ratio"]] == list(inv.reps),
                       f"{r['id']}: ratio checks not one per representation")
            for s in r["snr_ratio"]:
                name = f"{r['id']}/{s['representation']}"
                out.expect(s["pass"], f"{name}: FAIL")
                out.close(f"{name}: expected ratio", s["expected"], ratio, ratio)
                out.expect(s["checked_bins"] + s["skipped_bins"] == m - 1, f"{name}: bins")
                out.expect(s["vacuous"] == (s["checked_bins"] == 0), f"{name}: vacuous flag")
                if not s["vacuous"]:
                    use = s["max_dev"] / (IDENTITY_RTOL * s["expected"])
                    out.expect(use <= 1.0, f"{name}: ratio deviation over the gate")
                    out.gate_use = max(out.gate_use, use)
            out.symbols += m
