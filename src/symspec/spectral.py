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

``snr_ratio_check`` and ``verify_total_spectrum`` measure those identities
numerically; both accept reports the caller already holds, so a command
computes each spectrum once.

Every representation is a table gathered at the sequence's codes (see
symspec.representations): the identity for the indicator rows, the
transform in alphabet column order for the channels. Base and transformed
reports take their power from one kernel, ``_power(table, codes)``, which
gathers a few rows of ``table[:, codes]`` at a time and runs a real-input
FFT on them, using P(k) = P(m - k) to transform only half the bins; no
dense T x m array is ever held. ``dft_naive`` is the O(m^2)
direct-summation reference that ``_power`` and the public complex-input
``dft_fast`` are both tested against, bin for bin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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

_BLOCK_BINS = 2**20  # complex rfft bins per block of rows summed by _power


def dft_naive(x) -> np.ndarray:
    """Direct-summation DFT, X(k) = sum_j x(j) exp(-i 2 pi k j / m).

    O(m^2); the independent reference implementation for dft_fast.
    """
    xc = np.asarray(x, dtype=np.complex128)
    if xc.ndim != 1 or xc.size == 0:
        raise ValueError("input must be a non-empty 1-D sequence")
    m = xc.size
    j = np.arange(m)
    out = np.empty(m, dtype=np.complex128)
    for k in range(m):
        out[k] = np.sum(xc * np.exp((-2j * np.pi * k / m) * j))
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

    ``snr[i]`` is the ratio at frequency bin k = i + 1; the trivial k = 0
    bin is excluded from the profile but counted in ``mean_noise``.
    ``d`` is None for the base representation.
    """

    representation: str
    m: int
    alphabet_size: int
    d: float | None
    power: np.ndarray
    total: float
    mean_noise: float
    snr: np.ndarray

    def __post_init__(self):
        for name in ("power", "snr"):
            object.__setattr__(self, name, _read_only(getattr(self, name), np.float64))

    def snr_at(self, k: int) -> float:
        """SNR at frequency bin k, 1 <= k <= m-1."""
        if not 1 <= k <= self.m - 1:
            raise ValueError(f"k must be in 1..{self.m - 1}, got {k}")
        return float(self.snr[k - 1])

    def __repr__(self) -> str:
        return (
            f"SpectrumReport({self.representation!r}, m={self.m}, "
            f"total={self.total:.6g}, mean_noise={self.mean_noise:.6g})"
        )


def _power(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Summed power spectrum sum_l |DFT(table[l, codes])(k)|^2, k = 0 .. m-1.

    Row l of the signal is table row l gathered at the codes: the identity
    table gives the indicator rows, a transform's table (columns in alphabet
    order) its channels. Rows are gathered a batch at a time, about
    _BLOCK_BINS / m rows, so the gathered rows and their spectra together
    take about as much memory as _BLOCK_BINS complex bins (16 MiB), and the
    dense rows are never held.

    Real rows have Hermitian spectra, so rfft's bins 0 .. m//2 carry all the
    power and the rest is mirrored: P(k) = P(m - k). Row powers are summed
    in blocks of about _BLOCK_BINS half-spectrum bins, row after row within
    a block, and each block's sum is added into the total. That order does
    not depend on the batches, so the power is bit for bit the same as that
    of one rfft over each whole block of dense rows.

    The mirror is a copy, so P(k) == P(m - k) holds exactly, bit for bit, and
    so does snr[k - 1] == snr[m - k - 1]. The CLI's profile renderers rely
    on it: they format half of each column and mirror the strings (after
    checking the column reads the same both ways).
    """
    n_rows, m = table.shape[0], codes.size
    half = np.zeros(m // 2 + 1)
    step = max(1, _BLOCK_BINS // half.size)  # rows per summed block
    batch = max(1, _BLOCK_BINS // m)  # rows gathered and transformed at once
    for start in range(0, n_rows, step):
        stop = min(start + step, n_rows)
        block = 0.0
        for first in range(start, stop, batch):
            spectra = np.fft.rfft(np.take(table[first : min(first + batch, stop)], codes, axis=1), axis=1)
            power = spectra.real**2
            power += spectra.imag**2
            power[0] += block  # so the sum below continues the block's running sum
            block = power.sum(axis=0)
            del spectra, power  # before the next batch is gathered
        half += block
    full = np.empty(m)
    full[: half.size] = half
    full[half.size :] = half[m - half.size : 0 : -1]
    return full


def _report(name: str, size: int, d: float | None, table: np.ndarray, codes: np.ndarray) -> SpectrumReport:
    power = _power(table, codes)
    total = float(np.sum(power))
    m = codes.size
    mean_noise = total / m
    snr = power[1:] / mean_noise
    for arr in (power, snr):
        arr.setflags(write=False)  # kept by the report as they are
    return SpectrumReport(
        representation=name,
        m=m,
        alphabet_size=size,
        d=d,
        power=power,
        total=total,
        mean_noise=mean_noise,
        snr=snr,
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
    """Measured total base spectrum against the exact m^2 identity."""

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
    """Check sum_k sum_t |U_t(k)|^2 = m^2 on the given indicators.

    Pass *report*, the ``spectrum_base`` of *ind*, to reuse it instead of
    computing it again.
    """
    if report is None:
        report = spectrum_base(ind)
    else:
        _require_match(report, ind, "base")
    expected = float(ind.m) ** 2
    return TotalSpectrumCheck(
        expected=expected,
        measured=report.total,
        relative_error=abs(report.total - expected) / expected,
    )


@dataclass(frozen=True, repr=False)
class RatioCheck:
    """Per-frequency transformed/base SNR ratios against T/(T-1).

    ``ratios`` spans k = 1 .. m-1 with NaN at skipped bins (base SNR at or
    below BASE_SNR_FLOOR). ``max_deviation`` is max |ratio - expected| over
    the checked bins, NaN when every bin was skipped.
    """

    expected: float
    ratios: np.ndarray
    max_deviation: float
    checked_bins: int
    skipped_bins: int

    def __post_init__(self):
        object.__setattr__(self, "ratios", _read_only(self.ratios, np.float64))

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
    T = ind.alphabet.size
    expected = T / (T - 1.0)
    ratios = np.full(ind.m - 1, np.nan)
    mask = base.snr > BASE_SNR_FLOOR
    ratios[mask] = transformed.snr[mask] / base.snr[mask]
    checked = int(np.count_nonzero(mask))
    max_dev = float(np.max(np.abs(ratios[mask] - expected))) if checked else math.nan
    ratios.setflags(write=False)
    return RatioCheck(
        expected=expected,
        ratios=ratios,
        max_deviation=max_dev,
        checked_bins=checked,
        skipped_bins=int(ind.m - 1 - checked),
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
        power=float(report.power[k]),
        snr=report.snr_at(k),
    )
