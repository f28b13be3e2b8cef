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
each spectrum once.

Every representation is a table gathered at the sequence's codes (see
symspec.representations): the identity for the indicator rows, the
transform in alphabet column order for the channels. Base and transformed
reports take their power from one kernel, ``_power(table, codes)``, which
gathers a few rows of ``table[:, codes]`` at a time, runs a real-input
FFT on them and adds each row's power into one running sum; no dense
T x m array is ever held. Real rows give P(k) = P(m - k) exactly, so a
report stores bins k = 0 .. m//2 only: its ``power`` and ``snr`` are
mirrored from them on first access, and the checks and lookups here read
the half. A ``RatioCheck`` likewise stores its ratios at k = 0 .. m//2 and
mirrors ``ratios`` on access. ``dft_naive`` is the O(m^2) direct-summation
reference that reports' power and the public complex-input ``dft_fast``
are both tested against, bin for bin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .representations import IndicatorMatrix, RepresentationMatrix, TransformedSignal, apply_representation
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
    "periodicity_query",
]

IDENTITY_RTOL = 1e-9   # relative tolerance for the spectral identities
DFT_MATCH_TOL = 1e-9   # per-bin fast-vs-naive tolerance (relative, floor 1e-9)
BASE_SNR_FLOOR = 1e-12  # ratio bins with base SNR at or below this are skipped

# Samples (rows x m) per batch of rows gathered by _power: from m > 2**19 a
# batch is one row. Measured with numpy 2.4 at m = 1e6, glibc's malloc tuned
# as cli.entry() tunes it: numpy builds a new rfft plan on every call, and a
# one-row call took 16-19 ms against 12-13 ms per row in a two-row call, yet
# 2**21 (two rows per call) raised the peak RSS of a three-rep DNA analyze
# from 74 to 112 MB with no end-to-end speed-up. One row in flight holds
# about 32 B/sample (the input, the half-length complex output, the plan's
# twiddles and scratch); and a length with a large prime factor costs about
# 18x the time and 5x the memory per row (m = 999 983: 310 ms and 153 MiB
# in flight, against 17 ms and 31 MiB at m = 1e6).
_BLOCK_BINS = 2**20


def dft_naive(x) -> np.ndarray:
    """Direct-summation DFT, X(k) = sum_j x(j) exp(-i 2 pi k j / m).

    O(m^2); the independent reference implementation for dft_fast. Each
    phase is reduced exactly, as (k*j) mod m, into one table of the m roots
    exp(-i 2 pi n / m), so no FFT and no per-element exp is involved.
    """
    xc = np.asarray(x, dtype=np.complex128)
    if xc.ndim != 1 or xc.size == 0:
        raise ValueError("input must be a non-empty 1-D sequence")
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
    xc = np.asarray(x, dtype=np.complex128)
    if xc.ndim != 1 or xc.size == 0:
        raise ValueError("input must be a non-empty 1-D sequence")
    return np.fft.fft(xc)


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
    """Bins k = 0 .. m-1, read-only, from bins 0 .. m//2: bin k > m//2 is bin m - k."""
    full = np.empty(m)
    full[: half.size] = half
    full[half.size :] = half[m - half.size : 0 : -1]
    full.setflags(write=False)
    return full


def _power(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Summed power spectrum sum_l |DFT(table[l, codes])(k)|^2 at k = 0 .. m//2.

    Row l of the signal is table row l gathered at the codes: the identity
    table gives the indicator rows, a transform's table (columns in alphabet
    order) its channels. Rows are gathered a batch at a time, about
    _BLOCK_BINS / m rows, so the gathered rows and their spectra together
    take about as much memory as _BLOCK_BINS complex bins (16 MiB), and the
    dense rows are never held. ``np.take`` widens one-byte codes to intp
    on each call: at m = 1e6 about 0.6 ms and 8 B/symbol for the length of
    the gather, against some 25 ms for the row's rfft.

    Real rows have Hermitian spectra, so rfft's bins 0 .. m//2 carry all the
    power: P(k) = P(m - k) for the rest. Row powers go into one running sum,
    row after row, so the power is bit for bit that of one rfft over all the
    dense rows summed with ``sum(axis=0)``, whatever the batch size.
    """
    m = codes.size
    half = np.zeros(m // 2 + 1)
    batch = max(1, _BLOCK_BINS // m)  # rows gathered and transformed at once
    for first in range(0, table.shape[0], batch):
        spectra = np.fft.rfft(np.take(table[first : first + batch], codes, axis=1), axis=1)
        power = spectra.real**2
        power += spectra.imag**2
        power[0] += half  # so the sum below continues the running sum
        power.sum(axis=0, out=half)
        del spectra, power  # before the next batch is gathered
    return half


def _report(name: str, size: int, d: float | None, table: np.ndarray, codes: np.ndarray) -> SpectrumReport:
    half_power = _power(table, codes)
    half_power.setflags(write=False)  # kept by the report as it is
    m = codes.size
    # Summed over all m bins: a weighted sum of the half changes the last bits.
    total = float(np.sum(_mirror(half_power, m)))
    return SpectrumReport(
        representation=name,
        m=m,
        alphabet_size=size,
        d=d,
        half_power=half_power,
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

    def passed(self, rtol: float = IDENTITY_RTOL) -> bool:
        return self.relative_error <= rtol


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
    T = ind.alphabet.size
    expected = float(ind.m) ** 2 if report.d is None else report.d**2 * (T - 1) / T * float(ind.m) ** 2
    return TotalSpectrumCheck(
        expected=expected,
        measured=report.total,
        relative_error=abs(report.total - expected) / expected,
    )


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

    def passed(self, rtol: float = IDENTITY_RTOL) -> bool:
        return self.vacuous or self.max_deviation <= rtol * self.expected

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
    T, m = ind.alphabet.size, ind.m
    expected = T / (T - 1.0)
    base_snr = base.half_power / base.mean_noise
    mask = base_snr > BASE_SNR_FLOOR
    mask[0] = False  # k = 0 has no SNR; bin k < m/2 is counted for m - k too
    half = np.full(mask.size, np.nan)
    half[mask] = (transformed.half_power[mask] / transformed.mean_noise) / base_snr[mask]
    checked = 2 * int(np.count_nonzero(mask)) - int(m % 2 == 0 and mask[-1])
    max_dev = float(np.max(np.abs(half[mask] - expected))) if checked else math.nan
    half.setflags(write=False)  # kept by the result as it is
    return RatioCheck(
        expected=expected,
        half_ratios=half,
        max_deviation=max_dev,
        checked_bins=checked,
        skipped_bins=m - 1 - checked,
    )


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
