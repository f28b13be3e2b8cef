import math
import re
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dft_max_deviation, traced
from symspec import spectral
from symspec import (
    DFT_MATCH_TOL,
    DNA,
    PROTEIN,
    MatrixError,
    SymbolicSequence,
    alphabet_table,
    apply_representation,
    build_helmert,
    build_indicators,
    build_tetrahedron,
    build_zcurve,
    check_record,
    default_alphabet,
    dft_fast,
    dft_naive,
    load_matrix,
    periodicity_query,
    random_sequence,
    sequence_from_string,
    snr_ratio_check,
    spectrum_base,
    spectrum_transformed,
    save_matrix,
    validate_row_orthogonal,
    verify_total_spectrum,
)

TOL = 1e-9


def dna(text):
    return sequence_from_string(text, DNA)


def _bits(x):
    """The IEEE bits of a float or of each float in an array."""
    return np.asarray(x, dtype=np.float64).view(np.uint64)


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

    @pytest.mark.parametrize("x", [[], [[1.0, 2.0], [3.0, 4.0]]], ids=["empty", "2-D"])
    def test_refuses_what_dft_naive_refuses(self, x):
        for dft in (dft_naive, dft_fast):
            with pytest.raises(ValueError, match="^input must be a non-empty 1-D sequence$"):
                dft(x)

    def test_genomic_length_1236(self):
        x = np.random.default_rng(1236).standard_normal(1236)
        assert dft_max_deviation(dft_fast(x), dft_naive(x)) < TOL


def _power_of_dense_rows(rows):
    """The plain reference for the kernel: one rfft over all the dense rows,
    re^2 + im^2, summed row by row with sum(axis=0), mirrored to k = 0 .. m-1."""
    m = rows.shape[1]
    spectra = np.fft.rfft(rows, axis=1)
    power = spectra.real**2
    power += spectra.imag**2
    half = power.sum(axis=0)
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
        # Every bin k = 0 .. m-1 is checked, the mirrored half included.
        for report, spectra in ((spectrum_base(ind), naive), (spectrum_transformed(sig), sig.table @ naive)):
            expected = np.sum(np.abs(spectra) ** 2, axis=0)
            assert np.max(np.abs(report.power - expected)) <= DFT_MATCH_TOL * m

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
        whole = spectral._report("t", 5, None, table, codes).power
        monkeypatch.setattr(spectral, "_BLOCK_BINS", 40)  # 40 samples: one row per batch
        forced = spectral._report("t", 5, None, table, codes).power
        np.testing.assert_allclose(forced, whole, rtol=1e-12)
        assert np.max(np.abs(forced - expected)) <= DFT_MATCH_TOL * 40

    def test_a_yielded_pack_is_not_kept(self, monkeypatch):
        monkeypatch.setattr(spectral, "_BLOCK_BINS", 40)  # 40 samples: one row per batch, each table a pack
        halves = spectral._powers([np.eye(4), np.eye(4)[1:]], np.arange(40) % 4)
        first = weakref.ref(next(halves))
        assert first() is None  # while the generator is suspended
        assert [half.shape for half in halves] == [(1, 21)]

    @pytest.mark.parametrize(
        "block_bins, size, m",
        [
            (2**20, 4, 1000),  # one batch
            (2**20, 20, 65537),  # batches of 15 and 5 rows
            (2**20, 20, 200_001),  # four batches of 5 rows
            (300, 20, 100),  # batches of 3 rows, the last of 2
            (120, 7, 60),  # batches of 2 rows, the last of 1
            (8, 5, 33),  # one row per batch
            (2**20, 4, 1_000_001),  # the scan size: one row per batch
        ],
    )
    def test_bit_identical_to_dense_blocks(self, monkeypatch, block_bins, size, m):
        """The running sum over batches is bit for bit one sum over all rows."""
        monkeypatch.setattr(spectral, "_BLOCK_BINS", block_bins)
        rng = np.random.default_rng([block_bins, size, m])
        ind = build_indicators(random_sequence(default_alphabet(size), m, rng))
        sig = apply_representation(ind, build_helmert(size))
        for report, rows in ((spectrum_base(ind), ind.rows), (spectrum_transformed(sig), sig.channels)):
            got = report.power
            want = _power_of_dense_rows(rows)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestCheckRecord:
    """check_record is bit for bit the checks of the reports it does not
    make: spectrum_base and spectrum_transformed, then verify_total_spectrum
    and snr_ratio_check, field by field, whatever the batches."""

    LENGTHS = [1, 2, 3, 5, 7, 13, 101, 1009, 1999, 4, 8, 64, 1024, 2048, *range(2001, 2101)]

    @staticmethod
    def _transforms(size, tmp_path):
        """The built-in transforms for *size* symbols, and a file: matrix with no alphabet order."""
        rng = np.random.default_rng(size)
        q, _ = np.linalg.qr(rng.standard_normal((size - 1, size - 1)))
        path = tmp_path / f"rotated-{size}.json"
        save_matrix(validate_row_orthogonal(3.7 * q @ build_helmert(size).rows, name="rotated"), path)
        built_in = [build_zcurve(), build_tetrahedron()] if size == 4 else []
        return [*built_in, build_helmert(size), load_matrix(path)]

    @staticmethod
    def _fields(check):
        """Every field of a check, floats and arrays by their bits."""
        return [
            value.tobytes() if isinstance(value, np.ndarray) else _bits(value).tobytes() if isinstance(value, float)
            else value
            for value in vars(check).values()
        ]

    def _assert_same(self, ind, reps):
        alphabet = ind.alphabet
        got = list(check_record(ind, [(alphabet_table(rep, alphabet), rep.d) for rep in reps]))
        base = spectrum_base(ind)
        assert self._fields(got[0]) == self._fields(verify_total_spectrum(ind, report=base))
        assert len(got) == 1 + len(reps)
        for (total, ratio), rep in zip(got[1:], reps):
            report = spectrum_transformed(apply_representation(ind, rep))
            assert self._fields(total) == self._fields(verify_total_spectrum(ind, report=report)), (ind.m, rep.name)
            want = snr_ratio_check(ind, rep, base=base, transformed=report)
            assert self._fields(ratio) == self._fields(want), (ind.m, rep.name)

    # Rows per batch, as a multiple of m: 0 leaves _BLOCK_BINS as it is (one
    # pack); 1 is one row per batch; 3 packs tables of up to 3 rows, alone or
    # together, and splits larger tables.
    @pytest.mark.parametrize("rows_per_batch", [0, 1, 3])
    @pytest.mark.parametrize("size", [2, 3, 4, 20, 36])  # 36: the largest default alphabet, 36 + 35 + 35 rows
    def test_bit_identical_to_the_reports(self, monkeypatch, tmp_path, size, rows_per_batch):
        reps = self._transforms(size, tmp_path)
        rng = np.random.default_rng([size, rows_per_batch])
        for m in self.LENGTHS:
            if rows_per_batch:
                monkeypatch.setattr(spectral, "_BLOCK_BINS", rows_per_batch * m)
            self._assert_same(build_indicators(random_sequence(default_alphabet(size), m, rng)), reps)

    @pytest.mark.parametrize("m", [1, 2, 9, 64])
    def test_vacuous_record(self, tmp_path, m):
        ind = build_indicators(dna("G" * m))
        self._assert_same(ind, self._transforms(4, tmp_path))
        checks = list(check_record(ind, [(alphabet_table(build_zcurve(), DNA), 2.0)]))
        assert checks[1][1].vacuous and checks[1][1].passed()

    def test_keeps_only_the_base_half(self, monkeypatch, kernel):
        """Each transform's half is dropped before the next is made; the
        base's is dropped once the last ratio is done."""
        monkeypatch.setattr(spectral, "_BLOCK_BINS", 100)  # one row per batch
        ind = build_indicators(random_sequence(DNA, 100, np.random.default_rng(3)))
        reps = [build_zcurve(), build_tetrahedron(), build_helmert(4)]
        checks = check_record(ind, [(alphabet_table(rep, DNA), rep.d) for rep in reps])
        for check in checks:
            del check
        assert kernel.alive == [[], [True], [True, False], [True, False, False]]
        assert kernel.live() == [False] * 4

    def test_overflow_fails_the_total_without_a_warning(self):
        # At 1e153, d^2 (T-1)/T m^2 overflows at m = 15, and so does the k = 0 bin's power.
        ind = build_indicators(dna("ACGTTGCAACGGTAC"))
        _, (total, _) = check_record(ind, [(alphabet_table(build_zcurve(), DNA) * 1e153, 2e153)])
        assert not (math.isfinite(total.expected) and math.isfinite(total.measured))
        assert not total.passed()

    @pytest.mark.parametrize("shape", [(4, 4), (3, 2), (2, 3)])
    def test_a_malformed_table_is_refused_before_any_fft(self, kernel, shape):
        # Regression: (4, 4) was accepted and failed silently; (3, 2) raised numpy's concatenation error.
        ind = build_indicators(dna("ACGTTGCA"))
        with pytest.raises(MatrixError, match=re.escape(f"(T-1) x T with T >= 2; got shape {shape} for T = 4")):
            next(check_record(ind, [(alphabet_table(build_zcurve(), DNA), 2.0), (np.ones(shape), 1.0)]))
        assert kernel.tables == []


class TestLargeLengthOracle:
    """dft_naive stops near m = 1500. At the scan size, m = 1e6 (one row per
    batch), and at the prime m = 999 983 (pocketfft's Bluestein path),
    sampled bins of the reports' power are checked against a direct
    single-bin sum: each phase reduced exactly as (k*j) mod m, and each
    symbol's cosines and sines summed with math.fsum."""

    @staticmethod
    def _check(m):
        seq = random_sequence(DNA, m, np.random.default_rng(m))
        ind = build_indicators(seq)
        sig = apply_representation(ind, build_tetrahedron())
        base, tetrahedron = spectrum_base(ind), spectrum_transformed(sig)
        positions = [np.flatnonzero(seq.codes == s) for s in range(DNA.size)]
        j = np.arange(m, dtype=np.int64)
        for k in (1, 2, m // 3, m // 3 + 1, m // 2 - 1, m // 2):
            angle = (k * j % m) * (2 * math.pi / m)
            # X_s(k), the DFT at bin k of symbol s's indicator row.
            x = np.array([complex(math.fsum(np.cos(angle[p])), -math.fsum(np.sin(angle[p]))) for p in positions])
            for report, spectra in ((base, x), (tetrahedron, sig.table @ x)):
                expected = math.fsum(abs(v) ** 2 for v in spectra)
                assert abs(report.half_power[k] - expected) <= DFT_MATCH_TOL * m, (report.representation, k)

    def test_base_and_tetrahedron_at_sampled_bins(self):
        self._check(1_000_000)

    def test_prime_length_at_sampled_bins(self):
        self._check(999_983)


class TestNoDenseMatrix:
    """Indicators and transforms hold codes and a table; a spectrum holds a
    few gathered rows at a time, never the dense T x m matrix."""

    def test_indicators_share_the_sequence_codes(self):
        seq = random_sequence(PROTEIN, 1000, np.random.default_rng(5))
        ind = build_indicators(seq)
        assert np.shares_memory(ind.codes, seq.codes)
        assert np.shares_memory(apply_representation(ind, build_helmert(20)).codes, seq.codes)

    def test_one_byte_codes_give_the_same_bits(self):
        seq = sequence_from_string("".join(np.random.default_rng(6).choice(list("ACGT"), 3001)), DNA)
        wide = build_indicators(SymbolicSequence(DNA, seq.codes.astype(np.int64)))
        ind = build_indicators(seq)
        assert ind.codes.dtype == np.uint8
        assert spectrum_base(ind).half_power.tobytes() == spectrum_base(wide).half_power.tobytes()
        for rep in (build_zcurve(), build_tetrahedron()):
            got = spectrum_transformed(apply_representation(ind, rep))
            want = spectrum_transformed(apply_representation(wide, rep))
            assert got.half_power.tobytes() == want.half_power.tobytes()

    def test_spectra_peak_below_one_dense_matrix(self):
        size, m = 20, 200_000
        seq = random_sequence(PROTEIN, m, np.random.default_rng(20))
        dense_bytes = size * m * 8  # 32 MB

        def spectra():
            ind = build_indicators(seq)
            spectrum_base(ind)
            spectrum_transformed(apply_representation(ind, build_helmert(size)))

        _, _, peak = traced(spectra)
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


class TestHalfSpectrum:
    """A report stores bins k = 0 .. m//2; power and snr are mirrored from
    them on first access, and the checks and lookups read the half."""

    @pytest.mark.parametrize("m", [1, 2, 7, 8])
    def test_stores_only_the_half(self, m):
        report = spectrum_base(build_indicators(random_sequence(DNA, m, np.random.default_rng(m))))
        assert report.half_power.shape == (m // 2 + 1,)
        assert not report.half_power.flags.writeable
        assert not {"power", "snr"} & vars(report).keys()
        assert report.power.shape == (m,) and report.snr.shape == (m - 1,)
        assert report.power is report.power and report.snr is report.snr  # built once
        assert not report.power.flags.writeable and not report.snr.flags.writeable
        assert np.array_equal(_bits(report.power[: m // 2 + 1]), _bits(report.half_power))

    def test_checks_and_lookups_keep_only_the_half_spectra(self):
        """The calls the CLI makes on its reports keep 3 x 8 (m//2 + 1) bytes
        for three reports, and never fill the power or snr caches."""
        m = 200_000
        ind = build_indicators(random_sequence(DNA, m, np.random.default_rng(200)))
        reps = [build_zcurve(), build_helmert(4)]
        sigs = [apply_representation(ind, rep) for rep in reps]
        snr_ratio_check(ind, reps[0])  # numpy.fft and the rest are imported before tracing

        def checks_and_lookups():
            base = spectrum_base(ind)
            reports = [base] + [spectrum_transformed(sig) for sig in sigs]
            for rep, report in zip(reps, reports[1:]):
                snr_ratio_check(ind, rep, base=base, transformed=report)
            for report in reports:
                verify_total_spectrum(ind, report=report)
                periodicity_query(report, 3)
                report.snr_at(m - 7)  # a bin on the mirrored side
            return reports

        reports, retained, _ = traced(checks_and_lookups)
        assert retained <= 3 * 8 * (m // 2 + 1) + 64 * 1024
        assert all(not {"power", "snr"} & vars(r).keys() for r in reports)


class TestRatioCheckHalf:
    """A RatioCheck stores its ratios at k = 0 .. m//2; ``ratios`` is mirrored
    from them on first access."""

    @pytest.mark.parametrize("m", [1, 2, 7, 8])
    def test_stores_only_the_half(self, m):
        ind = build_indicators(random_sequence(DNA, m, np.random.default_rng(m)))
        check = snr_ratio_check(ind, build_zcurve())
        assert check.half_ratios.shape == (m // 2 + 1,)
        assert not check.half_ratios.flags.writeable
        assert math.isnan(check.half_ratios[0])  # k = 0 has no SNR
        assert "ratios" not in vars(check)
        assert check.ratios.shape == (m - 1,)
        assert check.ratios is check.ratios  # built once
        assert not check.ratios.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            check.ratios[...] = 1.0
        assert np.array_equal(_bits(check.ratios[: m // 2]), _bits(check.half_ratios[1:]))

    def test_result_keeps_only_the_half(self):
        """With both reports given, the result keeps 8 (m//2 + 1) bytes: the
        full-length ratios of 8 (m - 1) bytes are never built."""
        m = 200_000
        ind = build_indicators(random_sequence(DNA, m, np.random.default_rng(201)))
        rep = build_tetrahedron()
        base = spectrum_base(ind)
        transformed = spectrum_transformed(apply_representation(ind, rep))
        snr_ratio_check(ind, rep, base=base, transformed=transformed)  # imports done before tracing
        check, retained, _ = traced(snr_ratio_check, ind, rep, base=base, transformed=transformed)
        assert check.checked_bins == m - 1
        assert retained <= 8 * (m // 2 + 1) + 16 * 1024


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

    def test_large_scale_tetrahedron_passes(self):
        tet = build_tetrahedron()
        scaled = validate_row_orthogonal(tet.rows * 1e3, tet.alphabet_order, name="scaled")
        seq = random_sequence(DNA, 500, np.random.default_rng(13))
        check = snr_ratio_check(build_indicators(seq), scaled)
        assert not check.vacuous
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

    @pytest.mark.parametrize("alphabet, rep", [
        (DNA, build_zcurve()),
        (DNA, build_tetrahedron()),
        (DNA, build_helmert(4)),
        (PROTEIN, build_helmert(20)),
        (DNA, validate_row_orthogonal(3 * build_helmert(4).rows, name="helmert x 3")),
    ], ids=["zcurve", "tetrahedron", "helmert-4", "helmert-20", "matrix-d3"])
    def test_transformed_report_checks_its_own_identity(self, alphabet, rep):
        ind = build_indicators(random_sequence(alphabet, 523, np.random.default_rng(523)))
        report = spectrum_transformed(apply_representation(ind, rep))
        check = verify_total_spectrum(ind, report=report)
        T = alphabet.size
        assert check.expected == report.d**2 * (T - 1) / T * float(ind.m) ** 2
        assert check.measured == report.total
        assert check.passed()
        assert check.relative_error < TOL

    def test_mismatched_transformed_report_is_named(self):
        ind = build_indicators(random_sequence(DNA, 300, np.random.default_rng(3)))
        for other in (
            build_indicators(random_sequence(DNA, 301, np.random.default_rng(4))),
            build_indicators(random_sequence(PROTEIN, 300, np.random.default_rng(5))),
        ):
            report = spectrum_transformed(apply_representation(other, build_helmert(other.alphabet.size)))
            with pytest.raises(ValueError, match="transformed report"):
                verify_total_spectrum(ind, report=report)

    # At 1e153 and m = 15 the total overflows; at 6.5e153 and m = 29 so does
    # the power at nonzero bins, and their ratios are inf / inf.
    @pytest.mark.parametrize("scale, text", [(1e153, "ACGTTGCAACGGTAC"), (6.5e153, "ACGTTGCAACGGTAC" + "A" * 14)],
                             ids=["total", "bins"])
    def test_overflow_fails_the_total_without_a_warning(self, scale, text):
        """Every entry point judges overflow alike: no numpy warning (tier-1
        makes one an error), only a total check and a ratio check that fail."""
        ind = build_indicators(dna(text))
        rep = validate_row_orthogonal(build_zcurve().rows * scale, build_zcurve().alphabet_order, name="huge")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = spectrum_transformed(apply_representation(ind, rep))
            ratio = snr_ratio_check(ind, rep)
            total = verify_total_spectrum(ind, report=report)
            _, (record_total, record_ratio) = check_record(ind, [(alphabet_table(rep, DNA), rep.d)])
        for check in (total, record_total):
            assert not (math.isfinite(check.expected) and math.isfinite(check.measured))
            assert not check.passed()
        assert not ratio.passed() and not record_ratio.passed()

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
    def test_bin_on_the_mirrored_side(self):
        report = spectrum_base(build_indicators(dna("ACGTTGA")))
        peak = periodicity_query(report, 2)
        assert (peak.k, peak.exact) == (4, False)  # round(7 / 2) = 4 > m // 2
        assert _bits(peak.power) == _bits(report.power[4])
        assert _bits(peak.snr) == _bits(report.snr[3])

    @pytest.mark.parametrize("m", [301, 302])
    def test_every_bin_and_period_matches_the_full_arrays(self, m):
        ind = build_indicators(random_sequence(DNA, m, np.random.default_rng(m)))
        report = spectrum_transformed(apply_representation(ind, build_tetrahedron()))
        for k in range(1, m):
            assert _bits(report.snr_at(k)) == _bits(report.snr[k - 1])
        for k in (0, m):
            with pytest.raises(ValueError, match=f"^k must be in 1..{m - 1}, got {k}$"):
                report.snr_at(k)
        for period in range(2, m + 1):
            peak = periodicity_query(report, period)
            assert _bits(peak.power) == _bits(report.power[peak.k])
            assert _bits(peak.snr) == _bits(report.snr[peak.k - 1])

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


def _full_array_ratio_check(ind, base, transformed):
    """snr_ratio_check over the full snr arrays, k = 1 .. m-1: the reference
    for the half-spectrum bookkeeping."""
    T = ind.alphabet.size
    expected = T / (T - 1.0)
    ratios = np.full(ind.m - 1, np.nan)
    mask = base.snr > spectral.BASE_SNR_FLOOR
    ratios[mask] = transformed.snr[mask] / base.snr[mask]
    checked = int(np.count_nonzero(mask))
    max_dev = float(np.max(np.abs(ratios[mask] - expected))) if checked else math.nan
    return ratios, max_dev, checked, ind.m - 1 - checked


@settings(deadline=None, max_examples=200)
@given(
    # None draws a random sequence; a unit repeated gives exactly-zero bins:
    # "A" all but k = 0, "AC" all but k = 0 and the Nyquist bin at even m.
    unit=st.sampled_from([None, "A", "AC", "ACGT"]),
    m=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    rep=st.sampled_from([build_zcurve(), build_tetrahedron(), build_helmert(4)]),
)
def test_ratio_check_over_half_bins_matches_full_arrays(unit, m, seed, rep):
    if unit is None:
        seq = random_sequence(DNA, m, np.random.default_rng(seed))
    else:
        seq = dna((unit * m)[:m])
    ind = build_indicators(seq)
    base = spectrum_base(ind)
    transformed = spectrum_transformed(apply_representation(ind, rep))
    check = snr_ratio_check(ind, rep, base=base, transformed=transformed)
    ratios, max_dev, checked, skipped = _full_array_ratio_check(ind, base, transformed)
    assert (check.checked_bins, check.skipped_bins) == (checked, skipped)
    assert _bits(check.max_deviation) == _bits(max_dev)
    assert np.array_equal(_bits(check.ratios), _bits(ratios))
