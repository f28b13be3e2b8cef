"""DFT power spectra and signal-to-noise ratios of sequence representations.

For a T-symbol sequence of length m with indicator rows u_t and their DFTs
U_t(k) = sum_j u_t(j) exp(-i 2 pi k j / m):

    P(k)   = sum_t |U_t(k)|^2        base (T-vector) power spectrum
    total  = sum_k P(k) = m^2        exact identity, any sequence
    E      = total / m               mean noise (includes the k = 0 term)
    SNR(k) = P(k) / E                reported for k = 1 .. m-1 only

A (T-1)-channel transform with common row norm d and rows orthogonal to the
constant row (see symspec.representations) rescales but never reshapes the
spectrum away from k = 0:

    P_rep(k)   = d^2 P(k)                 for k != 0
    total_rep  = d^2 (T-1)/T m^2          exact identity
    SNR_rep(k) = T/(T-1) SNR(k)           independent of d

``verify_total_spectrum`` measures the total of a base or a transformed
report against m^2 or d^2 (T-1)/T m^2, and ``snr_ratio_check`` the SNR
ratio; both accept reports the caller already holds, so a command computes
each spectrum once. ``check_record`` makes the same checks, bit for bit,
for one record and several transforms, without building a report. Each
identity value is stated once, in ``_total_checks`` and ``_ratio_check``,
which all three use, and each pass rule once, in ``TotalSpectrumCheck``
and ``RatioCheck``: callers read the verdicts from the check objects.

Every representation is a table gathered at the sequence's codes (see
symspec.representations): the identity for the indicator rows, the
transform in alphabet column order for the channels. Reports and
``check_record`` take their power from one kernel, ``_powers(tables,
codes)``. It packs whole tables, in order, while their rows fit one batch
of rows of ``table[:, codes]``, and takes a table with more rows alone, a
batch at a time; each batch is one real-input FFT, and each row's power
goes into its table's running sum, so no dense T x m array is ever held.
The FFT's output is squared in place and a bin's power formed in its real
slot; a row alone in its batch is added straight into its table's sum, so
the power step allocates no array of its own.
It hands over each pack as one array, one row per table, so
``check_record`` checks all the tables of a small record together. Real
rows give P(k) = P(m - k) exactly, so a report stores bins k = 0 .. m//2
only: its ``power`` and ``snr`` are mirrored from them on first access,
and the checks and lookups here read the half. A ``RatioCheck`` likewise
stores its ratios at k = 0 .. m//2 and mirrors ``ratios`` on access.
A power or total that overflows float64 is judged by its total check,
at every entry point: the kernel's sums, the total and the ratios are
computed with numpy's warnings for it silenced, so the check holds a
total that is not finite, and fails.
``dft_naive`` is the O(m^2) direct-summation reference that reports' power
and the public complex-input ``dft_fast`` are both tested against, bin for
bin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .representations import IndicatorMatrix, RepresentationMatrix, TransformedSignal, _check_table, apply_representation
from .sequences import _read_only

__all__ = [
    "IDENTITY_RTOL",
    "DFT_MATCH_TOL",
    "BASE_SNR_FLOOR",
    "SpectrumReport",
    "TotalSpectrumCheck",
    "RatioCheck",
    "PeriodicityPeak",
    "dft_naive",
    "dft_fast",
    "spectrum_base",
    "spectrum_transformed",
    "snr_ratio_check",
    "verify_total_spectrum",
    "check_record",
    "periodicity_query",
]

IDENTITY_RTOL = 1e-9   # relative tolerance for the spectral identities
DFT_MATCH_TOL = 1e-9   # per-bin fast-vs-naive tolerance (relative, floor 1e-9)
BASE_SNR_FLOOR = 1e-12  # ratio bins with base SNR at or below this are skipped

# Samples (rows x m) per batch of rows gathered by _powers: from m > 2**19 a
# batch is one row; at verify's m <= 2000, one batch holds every row of a
# record (13 for DNA with three transforms, 39 for protein with Helmert).
# Measured with numpy 2.4 at m = 1e6, glibc's malloc tuned as cli.entry()
# tunes it (medians of 15 calls): one rfft call took 19.8 ms on one row,
# 26.0 ms on two and 44.6 ms on three. A third row costs as much as a lone
# one, so pocketfft transforms rows two at a time; a plan built once per
# call is not what a second row saves. Yet 2**21 (two rows per call) raised
# the peak RSS of a three-rep DNA analyze from 74 to 112 MB with no
# end-to-end speed-up. One row in flight holds about 32 B/sample (the
# input, the half-length complex output, pocketfft's twiddles and
# scratch); and a length with a large prime factor costs about
# 18x the time and 5x the memory per row (m = 999 983: 310 ms and 153 MiB
# in flight, against 17 ms and 31 MiB at m = 1e6).
_BLOCK_BINS = 2**20


def _dft_input(x) -> np.ndarray:
    """*x* as a complex array: the input rule of both DFTs."""
    xc = np.asarray(x, dtype=np.complex128)
    if xc.ndim != 1 or xc.size == 0:
        raise ValueError("input must be a non-empty 1-D sequence")
    return xc


def dft_naive(x) -> np.ndarray:
    """Direct-summation DFT, X(k) = sum_j x(j) exp(-i 2 pi k j / m).

    O(m^2); the independent reference implementation for dft_fast. Each
    phase is reduced exactly, as (k*j) mod m, into one table of the m roots
    exp(-i 2 pi n / m), so no FFT and no per-element exp is involved.
    """
    xc = _dft_input(x)
    m = xc.size
    j = np.arange(m)
    roots = np.exp((-2j * np.pi / m) * j)
    out = np.empty(m, dtype=np.complex128)
    for k in range(m):
        out[k] = np.sum(xc * roots[k * j % m])
    return out


def dft_fast(x) -> np.ndarray:
    """Fast DFT for arbitrary lengths (not just powers of two).

    Same contract as dft_naive; per-bin agreement within DFT_MATCH_TOL.
    """
    return np.fft.fft(_dft_input(x))


@dataclass(frozen=True, repr=False)
class SpectrumReport:
    """Per-frequency power, its total and average, and the SNR profile.

    Only ``half_power``, bins k = 0 .. m//2, is stored; ``power`` (k = 0 ..
    m-1) and ``snr`` are mirrored from it on first access, read-only.
    ``snr[i]`` is the ratio at frequency bin k = i + 1; the trivial k = 0
    bin is excluded from the profile but counted in ``mean_noise``.
    ``d`` is None for the base representation.
    """

    representation: str
    m: int
    alphabet_size: int
    d: float | None
    half_power: np.ndarray
    total: float
    mean_noise: float

    def __post_init__(self):
        object.__setattr__(self, "half_power", _read_only(self.half_power, np.float64))

    @cached_property
    def power(self) -> np.ndarray:
        return _mirror(self.half_power, self.m)

    @cached_property
    def snr(self) -> np.ndarray:
        return _mirror(self.half_power / self.mean_noise, self.m)[1:]

    def snr_at(self, k: int) -> float:
        """SNR at frequency bin k, 1 <= k <= m-1."""
        if not 1 <= k <= self.m - 1:
            raise ValueError(f"k must be in 1..{self.m - 1}, got {k}")
        return float(self.half_power[min(k, self.m - k)] / self.mean_noise)

    def __repr__(self) -> str:
        return (
            f"SpectrumReport({self.representation!r}, m={self.m}, "
            f"total={self.total:.6g}, mean_noise={self.mean_noise:.6g})"
        )


def _mirror(half: np.ndarray, m: int) -> np.ndarray:
    """Bins k = 0 .. m-1, read-only, from bins 0 .. m//2 (along the last
    axis, row by row): bin k > m//2 is bin m - k."""
    h = half.shape[-1]
    full = np.empty((*half.shape[:-1], m))
    full[..., :h] = half
    full[..., h:] = half[..., m - h : 0 : -1]
    full.setflags(write=False)
    return full


def _powers(tables, codes: np.ndarray):
    """Yield the half powers sum_l |DFT(table[l, codes])(k)|^2, k = 0 .. m//2,
    of the tables, in order: one array per pack, one row per table in it.

    Row l of a table's signal is its row l gathered at the codes: the
    identity table gives the indicator rows, a transform's table (columns in
    alphabet order) its channels. A batch is at most _BLOCK_BINS / m rows
    (at least one). A pack is whole tables, in order, while their rows fit
    one batch, or one table with more rows than that, alone. Whole tables
    are one ``np.take`` over their joined rows and one ``rfft``; a table
    alone takes a batch of its rows at a time. So the gathered rows and
    their spectra together take about as much memory as _BLOCK_BINS complex
    bins (16 MiB), and the dense rows are never held.
    ``np.take`` widens one-byte codes to intp on each call: at m = 1e6
    about 0.6 ms and 8 B/symbol for the length of the gather, against some
    25 ms for the row's rfft. A record of a few thousand bins is one pack
    and one yield; at large m each pack is one table. The generator keeps
    no reference to an array it has yielded.

    Real rows have Hermitian spectra, so rfft's bins 0 .. m//2 carry all the
    power: P(k) = P(m - k) for the rest. Each table's row powers go into one
    running sum, row after row, carried from batch to batch only by a table
    alone, so its power is bit for bit that of one rfft over all its dense
    rows summed with ``sum(axis=0)``, whatever the batch size and whatever
    the other tables.

    The power step makes no array: the batch's rfft output is squared in
    place on its float64 view, and each bin's im^2 is added into the re^2
    slot beside it, which then holds the bin's power. A row alone in its
    batch (every row from m > 2**19) goes straight into its table's running
    sum: re^2 + im^2 written there on the table's first batch, p + sum
    after, the very sums the reduce forms. So no power array (8 B/bin) and
    no im^2 temporary (8 B/bin) is allocated per batch, the sums are not
    zero-filled (the first batch writes every row whole), and a lone row
    is not copied through ``np.add.reduce``.
    """
    m = codes.size
    batch = max(1, _BLOCK_BINS // m)  # rows gathered and transformed at once
    sizes = [table.shape[0] for table in tables]
    i = 0
    while i < len(tables):
        j = i + 1  # the pack is tables i .. j-1
        while j < len(tables) and sum(sizes[i : j + 1]) <= batch:
            j += 1
        # The running sums are allocated before the batch's arrays: after them,
        # they raised the peak RSS of analyze at m = 1e6 by 4 MB. A list, so
        # that the sums leave the generator with the yield. Every row of them
        # is written whole by the first batch, so they are not zero-filled.
        sums = [np.empty((j - i, m // 2 + 1))]
        # A table alone is sliced, never copied, so a T x T identity costs only its batch.
        rows = tables[i] if j == i + 1 else np.concatenate(tables[i:j])
        for first in range(0, len(rows), batch):  # one batch, unless the table is alone
            squares = np.fft.rfft(rows[first : first + batch].take(codes, axis=1), axis=1).view(np.float64)
            with np.errstate(over="ignore"):  # judged by the total check; never across a yield, which would leak it
                np.multiply(squares, squares, out=squares)  # re^2 and im^2, in place
                power, im = squares[:, 0::2], squares[:, 1::2]
                if len(power) > 1:
                    power += im  # each bin's power, in its real slot
                    if first:
                        power[0] += sums[0][0]  # so the sum below continues the table's running sum
                    lo = 0
                    for r, size in enumerate(sizes[i:j]):  # the batch's rows of each table
                        np.add.reduce(power[lo : lo + size], axis=0, out=sums[0][r])
                        lo += size
                elif first:  # a lone row after its table's first: p + sum, as the reduce above forms it
                    power += im
                    np.add(power, sums[0], out=sums[0])
                else:  # a table's first lone row: its power starts the running sum
                    np.add(power, im, out=sums[0])
            del squares, power, im  # before the next batch, and before the pack is handed over
        yield sums.pop()
        i = j


def _totals(halves: np.ndarray, m: int) -> np.ndarray:
    """The total power of each row of half powers, summed over all m bins: a
    weighted sum of the half changes the last bits. Overflow is left to the
    caller's errstate, as an overflowing total is judged by its total check."""
    return np.add.reduce(_mirror(halves, m), axis=-1)


def _report(name: str, size: int, d: float | None, table: np.ndarray, codes: np.ndarray) -> SpectrumReport:
    (halves,) = _powers([table], codes)
    halves.setflags(write=False)  # kept by the report as it is
    m = codes.size
    with np.errstate(over="ignore"):
        (total,) = _totals(halves, m).tolist()
    return SpectrumReport(
        representation=name,
        m=m,
        alphabet_size=size,
        d=d,
        half_power=halves[0],
        total=total,
        mean_noise=total / m,
    )


def spectrum_base(ind: IndicatorMatrix) -> SpectrumReport:
    """Power spectrum of the indicator (base-vector) representation.

    Its total is exactly m^2 and its mean noise exactly m, so the SNR
    profile is sum_t |U_t(k)|^2 / m.
    """
    return _report("base", ind.alphabet.size, None, ind.table, ind.codes)


def spectrum_transformed(sig: TransformedSignal) -> SpectrumReport:
    """Power spectrum summed over the T-1 transform channels.

    Total equals d^2 (T-1)/T m^2; the SNR profile is T/(T-1) times the base
    profile regardless of d.
    """
    return _report(sig.name, sig.size, sig.d, sig.table, sig.codes)


@dataclass(frozen=True)
class TotalSpectrumCheck:
    """Measured total spectrum against its exact identity value."""

    expected: float
    measured: float
    relative_error: float

    def passed(self) -> bool:
        return self.relative_error <= IDENTITY_RTOL


def _require_match(report: SpectrumReport, ind: IndicatorMatrix, role: str) -> None:
    if report.m != ind.m or report.alphabet_size != ind.alphabet.size:
        raise ValueError(
            f"{role} report has m = {report.m}, T = {report.alphabet_size}; "
            f"the indicators have m = {ind.m}, T = {ind.alphabet.size}"
        )


def verify_total_spectrum(
    ind: IndicatorMatrix, *, report: SpectrumReport | None = None
) -> TotalSpectrumCheck:
    """Check the total spectrum of *ind*: m^2 for the base representation,
    d^2 (T-1)/T m^2 for a transform with row norm d.

    Pass *report*, the ``spectrum_base`` of *ind* or a ``spectrum_transformed``
    of it, to check that one instead of computing the base spectrum.
    """
    if report is None:
        report = spectrum_base(ind)
    else:
        _require_match(report, ind, "base" if report.d is None else "transformed")
    with np.errstate(over="ignore", invalid="ignore"):
        (check,) = _total_checks(ind.alphabet.size, [report.d], ind.m, np.array([report.total]))
    return check


def _total_checks(T: int, ds, m: int, measured: np.ndarray) -> list[TotalSpectrumCheck]:
    """The check of each *measured* total against its identity: m^2 for the
    base (d None), d^2 (T-1)/T m^2 for a transform of row norm d, one d per
    total. Overflow and inf - inf are left to the caller's errstate: a total
    that is not finite fails its check."""
    expected = np.array([1.0 if d is None else d**2 * (T - 1) / T for d in ds]) * float(m) ** 2
    errors = np.abs(measured - expected) / expected
    return list(map(TotalSpectrumCheck, expected.tolist(), measured.tolist(), errors.tolist()))


@dataclass(frozen=True, repr=False)
class RatioCheck:
    """Per-frequency transformed/base SNR ratios against T/(T-1).

    Only ``half_ratios``, bins k = 0 .. m//2, is stored, NaN at k = 0 and
    at skipped bins (base SNR at or below BASE_SNR_FLOOR); ``ratios``
    (k = 1 .. m-1) is mirrored from it on first access, read-only.
    ``max_deviation`` is max |ratio - expected| over the checked bins, NaN
    when every bin was skipped.
    """

    expected: float
    half_ratios: np.ndarray
    max_deviation: float
    checked_bins: int
    skipped_bins: int

    def __post_init__(self):
        object.__setattr__(self, "half_ratios", _read_only(self.half_ratios, np.float64))

    @cached_property
    def ratios(self) -> np.ndarray:
        return _mirror(self.half_ratios, self.checked_bins + self.skipped_bins + 1)[1:]

    @property
    def vacuous(self) -> bool:
        return self.checked_bins == 0

    def passed(self) -> bool:
        return self.vacuous or self.max_deviation <= IDENTITY_RTOL * self.expected

    def __repr__(self) -> str:
        dev = "vacuous" if self.vacuous else f"max_dev={self.max_deviation:.3g}"
        return f"RatioCheck(expected={self.expected:.6g}, {dev}, checked={self.checked_bins})"


def snr_ratio_check(
    ind: IndicatorMatrix,
    rep: RepresentationMatrix,
    *,
    base: SpectrumReport | None = None,
    transformed: SpectrumReport | None = None,
) -> RatioCheck:
    """Measure SNR_rep(k) / SNR_base(k) at every usable frequency bin.

    *base* (the ``spectrum_base`` of *ind*) and *transformed* (the
    ``spectrum_transformed`` of *ind* under *rep*) are reused when given and
    computed otherwise; the result is the same either way.
    """
    if base is None:
        base = spectrum_base(ind)
    else:
        _require_match(base, ind, "base")
    if transformed is None:
        transformed = spectrum_transformed(apply_representation(ind, rep))
    else:
        _require_match(transformed, ind, "transformed")
    snr = base.half_power / base.mean_noise
    mask, checked = _checked_bins(snr, ind.m)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        (check,) = _ratio_check(ind.alphabet.size, ind.m, snr, mask, checked,
                                transformed.half_power[np.newaxis], np.array([transformed.mean_noise]))
    return check


def _checked_bins(snr: np.ndarray, m: int) -> tuple[np.ndarray, int]:
    """The bins of the base SNR *snr* (k = 0 .. m//2) that ratios are
    checked at, and how many of the bins k = 1 .. m-1 they stand for."""
    mask = snr > BASE_SNR_FLOOR
    mask[0] = False  # k = 0 has no SNR; bin k < m/2 is counted for m - k too
    return mask, 2 * int(np.add.reduce(mask)) - int(m % 2 == 0 and mask[-1])


def _ratio_check(T: int, m: int, snr, mask, checked: int, halves, noises) -> list[RatioCheck]:
    """The SNR-ratio check of each row of half powers *halves* (mean noise
    *noises*) against the base SNR *snr*, at the *checked* bins *mask* picks
    (``_checked_bins``), against the ratio T/(T-1): all from one block,
    each check's ``half_ratios`` a read-only row of it. The bins it skips
    are divided too, then set to NaN, and an inf / inf where a power
    overflowed is judged by the total check: the caller's errstate
    silences both."""
    expected = T / (T - 1.0)
    ratios = halves / noises[:, np.newaxis]
    ratios /= snr  # in place, bin by bin (half / noise) / snr
    ratios[:, ~mask] = np.nan
    if checked:
        devs = ratios - expected
        devs = np.maximum.reduce(np.abs(devs, out=devs), axis=1, where=mask, initial=-np.inf).tolist()
    else:
        devs = [math.nan] * len(ratios)
    ratios.setflags(write=False)  # kept by the results as it is
    return [RatioCheck(expected, row, dev, checked, m - 1 - checked) for row, dev in zip(ratios, devs)]


def check_record(ind: IndicatorMatrix, transforms):
    """The identity checks of one record, in one pass and without a report.

    *transforms* holds one (table, d) pair per transform: its (T-1) x T
    table with columns in the alphabet's order (``alphabet_table``) and its
    row norm. Yields the base ``TotalSpectrumCheck``, then, for each
    transform in turn, its ``TotalSpectrumCheck`` and its ``RatioCheck``:
    the results, bit for bit, of ``verify_total_spectrum`` and
    ``snr_ratio_check`` on ``spectrum_base`` and ``spectrum_transformed``.
    A table that is not (T-1) x T for the record's T is refused with
    ``MatrixError`` before any FFT.

    All the record's tables go through one ``_powers`` pass, so while its
    rows fit one batch they are one pack, one ``np.take`` and one ``rfft``.
    Each pack's array of half powers is checked at once: every total with
    one row-wise sum, every ratio from one block against the base SNR. The
    base SNR, its mask and its bin counts are computed once, the SNR in
    place of the base half, which is kept until the last ratio; where the
    record takes several packs, each transform's half is kept only until
    its checks are made.
    """
    T, m = ind.alphabet.size, ind.m
    for table, _ in transforms:
        _check_table(table, T)
    ds = [None, *[d for _, d in transforms]]  # the base's, then each transform's row norm
    i, snr = 0, None
    for halves in _powers([ind.table, *[table for table, _ in transforms]], ind.codes):
        n = halves.shape[0]
        # A total that is not finite fails its check; a skipped ratio bin is overwritten.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            measured = _totals(halves, m)
            totals = _total_checks(T, ds[i : i + n], m, measured)
            if snr is None:  # the base, whose SNR takes its half's place
                snr = halves[0]
                snr /= measured[0] / m
                mask, checked = _checked_bins(snr, m)
                halves = halves[1:]
            ratios = _ratio_check(T, m, snr, mask, checked, halves, measured[n - halves.shape[0] :] / m)
        i += n
        del halves  # not held while the next tables are computed
        if i == len(ds):
            del snr, mask  # the last ratio is done
        if len(totals) > len(ratios):  # the base's block
            yield totals.pop(0)
        yield from zip(totals, ratios)
        del totals, ratios  # not held while the next block is computed


@dataclass(frozen=True)
class PeriodicityPeak:
    """Power and SNR at the frequency bin of a given periodicity.

    ``exact`` is False when the period does not divide m and k was rounded.
    """

    period: int
    k: int
    exact: bool
    power: float
    snr: float


def periodicity_query(report: SpectrumReport, period: int) -> PeriodicityPeak:
    """Look up the bin k = m/period (rounded when the period does not divide m)."""
    if period < 2:
        raise ValueError(f"period must be at least 2, got {period}")
    if period > report.m:
        raise ValueError(f"period {period} exceeds sequence length {report.m}")
    k, rem = divmod(report.m, period)
    exact = rem == 0
    if not exact:
        k = round(report.m / period)
    return PeriodicityPeak(
        period=period,
        k=k,
        exact=exact,
        power=float(report.half_power[min(k, report.m - k)]),
        snr=report.snr_at(k),
    )
