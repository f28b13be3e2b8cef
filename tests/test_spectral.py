import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dft_max_deviation
from symspec import spectral
from symspec import (
    DFT_MATCH_TOL,
    DNA,
    PROTEIN,
    SymbolicSequence,
    apply_representation,
    build_helmert,
    build_indicators,
    build_tetrahedron,
    build_zcurve,
    default_alphabet,
    dft_fast,
    dft_naive,
    periodicity_query,
    random_sequence,
    sequence_from_string,
    snr_ratio_check,
    spectrum_base,
    spectrum_transformed,
    validate_row_orthogonal,
    verify_total_spectrum,
)

TOL = 1e-9


def dna(text):
    return sequence_from_string(text, DNA)


class TestDftNaive:
    def test_delta_input(self):
        np.testing.assert_allclose(dft_naive([1, 0, 0, 0]), np.ones(4), atol=1e-15)

    def test_constant_input(self):
        np.testing.assert_allclose(dft_naive([1, 1, 1, 1]), [4, 0, 0, 0], atol=1e-14)

    def test_square_wave(self):
        spectrum = dft_naive([1, 1, -1, -1])
        np.testing.assert_allclose(spectrum[1], 2 - 2j, atol=1e-14)
        np.testing.assert_allclose(spectrum[2], 0, atol=1e-14)
        np.testing.assert_allclose(spectrum[3], 2 + 2j, atol=1e-14)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dft_naive([])


class TestDftFast:
    def test_length_one_identity(self):
        np.testing.assert_allclose(dft_fast([3.5 - 1.25j]), [3.5 - 1.25j])

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 12, 17, 31, 64, 97])
    def test_matches_naive_real(self, m):
        x = np.random.default_rng(m).standard_normal(m)
        assert dft_max_deviation(dft_fast(x), dft_naive(x)) < TOL

    @pytest.mark.parametrize("m", [2, 7, 16, 45])
    def test_matches_naive_complex(self, m):
        rng = np.random.default_rng(1000 + m)
        x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        assert dft_max_deviation(dft_fast(x), dft_naive(x)) < TOL

    def test_genomic_length_1236(self):
        x = np.random.default_rng(1236).standard_normal(1236)
        assert dft_max_deviation(dft_fast(x), dft_naive(x)) < TOL


def _power_of_dense_rows(rows):
    """The kernel as it was before rows were gathered from a table: one rfft
    over each whole block of dense rows, kept as the bit-for-bit reference."""
    n_rows, m = rows.shape
    half = np.zeros(m // 2 + 1)
    step = max(1, spectral._BLOCK_BINS // half.size)
    for start in range(0, n_rows, step):
        spectra = np.fft.rfft(rows[start : start + step], axis=1)
        block = spectra.real**2
        block += spectra.imag**2
        half += block.sum(axis=0)
    full = np.empty(m)
    full[: half.size] = half
    full[half.size :] = half[m - half.size : 0 : -1]
    return full


class TestPowerKernel:
    """The kernel every report takes its power from, against the naive DFT."""

    @staticmethod
    def _check(size, m):
        rng = np.random.default_rng([size, m])
        ind = build_indicators(random_sequence(default_alphabet(size), m, rng))
        naive = np.array([dft_naive(row) for row in ind.rows])
        sig = apply_representation(ind, build_helmert(size))
        # The DFT is linear, so the channels' spectra are the same mix of the rows'.
        for table, spectra in ((ind.table, naive), (sig.table, sig.table @ naive)):
            expected = np.sum(np.abs(spectra) ** 2, axis=0)
            assert np.max(np.abs(spectral._power(table, ind.codes) - expected)) <= DFT_MATCH_TOL * m

    @pytest.mark.parametrize("size", [2, 4, 20])
    def test_every_length_up_to_64(self, size):
        for m in range(1, 65):
            self._check(size, m)

    @pytest.mark.parametrize("m", [257, 512, 999, 1236, 1499, 1500])
    @pytest.mark.parametrize("size", [2, 4, 20])
    def test_longer_odd_and_even_lengths(self, size, m):
        self._check(size, m)

    def test_blocks_cover_every_row(self, monkeypatch):
        rng = np.random.default_rng(9)
        table, codes = rng.standard_normal((7, 5)), rng.integers(0, 5, 40)
        expected = np.sum(np.abs([dft_naive(row) for row in table[:, codes]]) ** 2, axis=0)
        whole = spectral._power(table, codes)
        monkeypatch.setattr(spectral, "_BLOCK_BINS", 40)  # 21 half bins: one row per block
        forced = spectral._power(table, codes)
        np.testing.assert_allclose(forced, whole, rtol=1e-12)
        assert np.max(np.abs(forced - expected)) <= DFT_MATCH_TOL * 40

    @pytest.mark.parametrize(
        "block_bins, size, m",
        [
            (2**20, 4, 1000),  # one block, one batch
            (2**20, 20, 65537),  # one block of 20 rows, in batches of 15 and 5
            (2**20, 20, 200_001),  # blocks of 10 rows, each in batches of 5
            (300, 20, 100),  # blocks of 5 rows, each in batches of 3 and 2
            (120, 7, 60),  # blocks of 3 rows, in batches of 2 and 1
            (8, 5, 33),  # one row per block and per batch
        ],
    )
    def test_bit_identical_to_dense_blocks(self, monkeypatch, block_bins, size, m):
        monkeypatch.setattr(spectral, "_BLOCK_BINS", block_bins)
        rng = np.random.default_rng([block_bins, size, m])
        ind = build_indicators(random_sequence(default_alphabet(size), m, rng))
        for sig in (ind, apply_representation(ind, build_helmert(size))):
            got = spectral._power(sig.table, ind.codes)
            want = _power_of_dense_rows(sig.rows if sig is ind else sig.channels)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestNoDenseMatrix:
    """Indicators and transforms hold codes and a table; a spectrum holds a
    few gathered rows at a time, never the dense T x m matrix."""

    def test_indicators_share_the_sequence_codes(self):
        seq = random_sequence(PROTEIN, 1000, np.random.default_rng(5))
        ind = build_indicators(seq)
        assert np.shares_memory(ind.codes, seq.codes)
        assert np.shares_memory(apply_representation(ind, build_helmert(20)).codes, seq.codes)

    def test_spectra_peak_below_one_dense_matrix(self):
        size, m = 20, 200_000
        seq = random_sequence(PROTEIN, m, np.random.default_rng(20))
        dense_bytes = size * m * 8  # 32 MB
        tracemalloc.start()
        try:
            ind = build_indicators(seq)
            spectrum_base(ind)
            spectrum_transformed(apply_representation(ind, build_helmert(size)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes


class TestExactSymmetry:
    """P(k) == P(m - k) bit for bit: the CLI's renderers format half of each
    profile column and mirror the strings."""

    @staticmethod
    def _reports(size, m):
        ind = build_indicators(random_sequence(default_alphabet(size), m, np.random.default_rng([m, size])))
        yield spectrum_base(ind)
        yield spectrum_transformed(apply_representation(ind, build_helmert(size)))
        if size == 4:
            yield spectrum_transformed(apply_representation(ind, build_zcurve()))

    @pytest.mark.parametrize("m", [2, 3, 8, 9, 1000, 1001, 65536, 65537])
    @pytest.mark.parametrize("size", [4, 20])
    def test_power_and_snr_read_the_same_both_ways(self, size, m):
        for report in self._reports(size, m):
            for col in (report.power[1:], report.snr):  # k = 1 .. m-1
                assert np.array_equal(col, col[::-1])
                assert np.array_equal(col.view(np.uint64), col[::-1].view(np.uint64))


class TestSpectrumBase:
    def test_all_four_symbols(self):
        report = spectrum_base(build_indicators(dna("ACGT")))
        np.testing.assert_allclose(report.power, np.full(4, 4.0), atol=1e-12)
        assert report.total == pytest.approx(16.0, rel=1e-12)
        assert report.mean_noise == pytest.approx(4.0, rel=1e-12)
        np.testing.assert_allclose(report.snr, np.ones(3), atol=1e-12)

    def test_single_symbol_sequence(self):
        report = spectrum_base(build_indicators(dna("AAAA")))
        assert report.power[0] == pytest.approx(16.0, rel=1e-12)
        np.testing.assert_allclose(report.power[1:], np.zeros(3), atol=1e-12)
        assert report.total == pytest.approx(16.0, rel=1e-12)
        np.testing.assert_allclose(report.snr, np.zeros(3), atol=1e-12)

    def test_length_one(self):
        report = spectrum_base(build_indicators(dna("A")))
        assert report.total == pytest.approx(1.0)
        assert report.mean_noise == pytest.approx(1.0)
        assert report.snr.size == 0

    def test_mean_snr_over_all_bins_is_one(self):
        report = spectrum_base(build_indicators(dna("ACCGTTTACG")))
        assert float(np.mean(report.power / report.mean_noise)) == pytest.approx(1.0, rel=1e-12)


class TestSpectrumTransformed:
    def test_acgt_zcurve(self):
        sig = apply_representation(build_indicators(dna("ACGT")), build_zcurve())
        report = spectrum_transformed(sig)
        np.testing.assert_allclose(report.power, [0, 16, 16, 16], atol=1e-12)
        assert report.total == pytest.approx(48.0, rel=1e-12)
        assert report.mean_noise == pytest.approx(12.0, rel=1e-12)
        np.testing.assert_allclose(report.snr, np.full(3, 4 / 3), rtol=1e-12)

    def test_acgt_helmert(self):
        sig = apply_representation(build_indicators(dna("ACGT")), build_helmert(4))
        report = spectrum_transformed(sig)
        assert report.total == pytest.approx(12.0, rel=1e-12)
        np.testing.assert_allclose(report.snr, np.full(3, 4 / 3), rtol=1e-12)

    @pytest.mark.parametrize("m", [7, 64, 501])
    def test_total_identity_random(self, m):
        seq = random_sequence(DNA, m, np.random.default_rng(m))
        ind = build_indicators(seq)
        for rep in (build_zcurve(), build_tetrahedron(), build_helmert(4)):
            report = spectrum_transformed(apply_representation(ind, rep))
            expected = rep.d**2 * (3 / 4) * m**2
            assert report.total == pytest.approx(expected, rel=TOL)


class TestSnrRatio:
    @pytest.mark.parametrize("m", [2, 3, 10, 255, 1236])
    def test_zcurve_ratio_is_four_thirds(self, m):
        seq = random_sequence(DNA, m, np.random.default_rng(m))
        check = snr_ratio_check(build_indicators(seq), build_zcurve())
        assert check.expected == pytest.approx(4 / 3)
        assert check.passed()

    def test_protein_helmert_ratio(self):
        seq = random_sequence(PROTEIN, 400, np.random.default_rng(20))
        check = snr_ratio_check(build_indicators(seq), build_helmert(20))
        assert check.expected == pytest.approx(20 / 19)
        assert not check.vacuous
        assert check.passed()

    def test_single_symbol_is_vacuous(self):
        check = snr_ratio_check(build_indicators(dna("AAAA")), build_zcurve())
        assert check.vacuous
        assert check.checked_bins == 0
        assert check.skipped_bins == 3
        assert math.isnan(check.max_deviation)
        assert check.passed()

    def test_tetrahedron_profile_equals_zcurve(self):
        seq = random_sequence(DNA, 321, np.random.default_rng(5))
        ind = build_indicators(seq)
        snr_z = spectrum_transformed(apply_representation(ind, build_zcurve())).snr
        snr_t = spectrum_transformed(apply_representation(ind, build_tetrahedron())).snr
        np.testing.assert_allclose(snr_z, snr_t, rtol=TOL, atol=1e-12)

    @pytest.mark.parametrize("size", [2, 4, 7, 20])
    def test_random_orthonormal_completions_amplify(self, size):
        # A random rotation of the Helmert rows is again orthonormal and
        # orthogonal to the constant row, so the same amplification holds.
        rng = np.random.default_rng(size)
        q, _ = np.linalg.qr(rng.standard_normal((size - 1, size - 1)))
        rep = validate_row_orthogonal(q @ build_helmert(size).rows, name="random-rotation")
        assert rep.kind == "orthonormal"
        seq = random_sequence(default_alphabet(size), 300, rng)
        check = snr_ratio_check(build_indicators(seq), rep)
        assert check.expected == pytest.approx(size / (size - 1))
        assert check.passed()

    def test_scaled_matrix_leaves_snr_unchanged(self):
        z = build_zcurve()
        scaled = validate_row_orthogonal(2.5 * z.rows, z.alphabet_order, name="scaled")
        ind = build_indicators(random_sequence(DNA, 100, np.random.default_rng(8)))
        sig = apply_representation(ind, z)
        sig_scaled = apply_representation(ind, scaled)
        np.testing.assert_allclose(sig_scaled.channels, 2.5 * sig.channels, rtol=1e-12)
        np.testing.assert_allclose(
            spectrum_transformed(sig_scaled).snr,
            spectrum_transformed(sig).snr,
            rtol=TOL,
            atol=1e-12,
        )


class TestGivenReports:
    """Reports passed in are reused; the result is the same as computing them."""

    def setup_method(self):
        self.ind = build_indicators(random_sequence(DNA, 301, np.random.default_rng(31)))
        self.rep = build_tetrahedron()
        self.base = spectrum_base(self.ind)
        self.transformed = spectrum_transformed(apply_representation(self.ind, self.rep))

    def test_same_result_either_way(self):
        fresh = snr_ratio_check(self.ind, self.rep)
        given_ = snr_ratio_check(self.ind, self.rep, base=self.base, transformed=self.transformed)
        np.testing.assert_array_equal(given_.ratios, fresh.ratios)
        assert given_.max_deviation == fresh.max_deviation
        assert verify_total_spectrum(self.ind, report=self.base) == verify_total_spectrum(self.ind)

    def test_mismatched_length_is_rejected(self):
        other = build_indicators(random_sequence(DNA, 300, np.random.default_rng(1)))
        with pytest.raises(ValueError, match="m = 301"):
            verify_total_spectrum(other, report=self.base)
        with pytest.raises(ValueError, match="base report"):
            snr_ratio_check(other, self.rep, base=self.base)
        with pytest.raises(ValueError, match="transformed report"):
            snr_ratio_check(other, self.rep, transformed=self.transformed)

    def test_mismatched_alphabet_size_is_rejected(self):
        ind20 = build_indicators(random_sequence(PROTEIN, 301, np.random.default_rng(2)))
        with pytest.raises(ValueError, match="T = 4"):
            verify_total_spectrum(ind20, report=self.base)
        with pytest.raises(ValueError, match="T = 4"):
            snr_ratio_check(ind20, build_helmert(20), base=self.base)
        with pytest.raises(ValueError, match="T = 4"):
            snr_ratio_check(ind20, build_helmert(20), transformed=self.transformed)


class TestTotalSpectrum:
    @pytest.mark.parametrize("text", ["ACGT", "AAAA", "ACCA", "TTTG"])
    def test_m_four_is_sixteen(self, text):
        check = verify_total_spectrum(build_indicators(dna(text)))
        assert check.expected == 16.0
        assert check.measured == pytest.approx(16.0, rel=TOL)
        assert check.passed()

    def test_random_thousand(self):
        seq = random_sequence(DNA, 1000, np.random.default_rng(99))
        check = verify_total_spectrum(build_indicators(seq))
        assert check.expected == 1.0e6
        assert check.relative_error < TOL

    def test_per_channel_energy_mirrors_counts(self):
        seq = random_sequence(DNA, 777, np.random.default_rng(77))
        ind = build_indicators(seq)
        spectra = np.fft.fft(ind.rows, axis=1)
        energy = np.sum(np.abs(spectra) ** 2, axis=1)
        np.testing.assert_allclose(energy, ind.m * ind.counts, rtol=TOL)


class TestProofIdentities:
    def test_parseval_per_channel(self):
        seq = random_sequence(DNA, 620, np.random.default_rng(6))
        sig = apply_representation(build_indicators(seq), build_zcurve())
        for channel in sig.channels:
            time_energy = float(np.sum(channel**2))
            freq_energy = float(np.sum(np.abs(dft_fast(channel)) ** 2)) / sig.m
            assert freq_energy == pytest.approx(time_energy, rel=TOL)

    def test_conjugate_symmetry_real_input(self):
        x = np.random.default_rng(3).standard_normal(101)
        spectrum = dft_fast(x)
        np.testing.assert_allclose(
            spectrum[1:], np.conj(spectrum[1:][::-1]), rtol=TOL, atol=1e-9
        )

    def test_power_symmetry_of_base_spectrum(self):
        report = spectrum_base(build_indicators(dna("ACCGTTTACGAC")))
        np.testing.assert_allclose(
            report.power[1:], report.power[1:][::-1], rtol=TOL, atol=1e-9
        )

    def test_indicator_row_sum_transforms_to_impulse(self):
        seq = random_sequence(DNA, 417, np.random.default_rng(4))
        ind = build_indicators(seq)
        spectrum = dft_fast(ind.rows.sum(axis=0))
        assert spectrum[0] == pytest.approx(ind.m, rel=1e-12)
        assert float(np.max(np.abs(spectrum[1:]))) < 1e-9


class TestPeriodicityQuery:
    def test_exact_division(self):
        seq = random_sequence(DNA, 1236, np.random.default_rng(12))
        report = spectrum_base(build_indicators(seq))
        peak = periodicity_query(report, 3)
        assert peak.k == 412
        assert peak.exact
        assert peak.power == pytest.approx(float(report.power[412]))
        assert peak.snr == pytest.approx(report.snr_at(412))

    def test_rounding_is_flagged(self):
        seq = random_sequence(DNA, 100, np.random.default_rng(10))
        report = spectrum_base(build_indicators(seq))
        peak = periodicity_query(report, 3)
        assert peak.k == 33
        assert not peak.exact

    def test_half_period(self):
        report = spectrum_base(build_indicators(dna("ACGTAC")))
        peak = periodicity_query(report, 2)
        assert peak.k == 3
        assert peak.exact

    def test_period_larger_than_length(self):
        report = spectrum_base(build_indicators(dna("ACG")))
        with pytest.raises(ValueError, match="exceeds"):
            periodicity_query(report, 4)

    def test_period_below_two(self):
        report = spectrum_base(build_indicators(dna("ACG")))
        with pytest.raises(ValueError, match="at least 2"):
            periodicity_query(report, 1)


@settings(deadline=None, max_examples=60)
@given(
    size=st.sampled_from([2, 4]),
    codes=st.lists(st.integers(0, 3), min_size=1, max_size=160),
)
def test_total_spectrum_identity_property(size, codes):
    alphabet = default_alphabet(size)
    seq = SymbolicSequence(alphabet, np.array(codes) % size)
    assert verify_total_spectrum(build_indicators(seq)).passed()


@settings(deadline=None, max_examples=30)
@given(codes=st.lists(st.integers(0, 3), min_size=1, max_size=100))
def test_report_entries_nonnegative(codes):
    ind = build_indicators(SymbolicSequence(DNA, np.array(codes)))
    for report in (
        spectrum_base(ind),
        spectrum_transformed(apply_representation(ind, build_zcurve())),
    ):
        assert np.all(report.power >= 0)
        assert np.all(report.snr >= 0)
        assert report.mean_noise > 0


@settings(deadline=None, max_examples=40)
@given(
    size=st.integers(2, 8),
    data=st.data(),
)
def test_snr_amplification_property(size, data):
    codes = data.draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=120))
    seq = SymbolicSequence(default_alphabet(size), np.array(codes))
    check = snr_ratio_check(build_indicators(seq), build_helmert(size))
    assert check.expected == pytest.approx(size / (size - 1))
    assert check.passed()
