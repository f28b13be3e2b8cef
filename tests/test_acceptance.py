"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 5 needs the user-supplied 1236 bp coding sequence of the
F56F11.4 exon regions (GenBank NM_171086 CDS): point SYMSPEC_F56F11_FASTA
at the FASTA file or drop it at data/NM_171086_cds.fasta. Without the file
that criterion is reported as waived and skipped.
"""
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

import symspec as ss
from conftest import dft_max_deviation, run_child

SEED = 20250809
M_RANGE = (1, 2000)
SIZES = (2, 4, 20)
RTOL = 1e-9


def _line(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def corpus():
    """200 seeded random sequences, m in [1, 2000], T cycling {2, 4, 20}."""
    rng = np.random.default_rng(SEED)
    seqs = []
    for i in range(200):
        size = SIZES[i % len(SIZES)]
        m = int(rng.integers(M_RANGE[0], M_RANGE[1] + 1))
        seqs.append(ss.random_sequence(ss.default_alphabet(size), m, rng, id=f"c{i:03d}"))
    return seqs


def test_criterion_1_total_spectrum(corpus):
    start = time.perf_counter()
    worst = 0.0
    for seq in corpus:
        check = ss.verify_total_spectrum(ss.build_indicators(seq))
        worst = max(worst, check.relative_error)
    elapsed = time.perf_counter() - start
    ok = worst <= RTOL and elapsed < 60
    _line(1, ok, f"total base spectrum = m^2 on {len(corpus)} sequences, "
                 f"worst rel err {worst:.3g}, {elapsed:.1f}s")
    assert worst <= RTOL
    assert elapsed < 60


def test_criterion_2_snr_ratio():
    rng = np.random.default_rng(SEED + 1)
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    vacuous = 0
    for i in range(100):
        size = SIZES[i % len(SIZES)]
        alphabet = ss.default_alphabet(size)
        seq = ss.random_sequence(alphabet, int(rng.integers(M_RANGE[0], M_RANGE[1] + 1)), rng)
        ind = ss.build_indicators(seq)
        reps = [ss.build_helmert(size)]
        if size == 4:
            reps += [ss.build_zcurve(), ss.build_tetrahedron()]
        for rep in reps:
            check = ss.snr_ratio_check(ind, rep)
            if check.vacuous:
                vacuous += 1
                continue
            worst = max(worst, check.max_deviation / check.expected)
            checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= RTOL and elapsed < 60 and checked > 0
    _line(2, ok, f"per-bin SNR ratio = T/(T-1) over {checked} sequence/transform pairs "
                 f"({vacuous} vacuous), worst rel dev {worst:.3g}, {elapsed:.1f}s")
    assert worst <= RTOL
    assert elapsed < 60


def test_criterion_3_proof_identities(corpus):
    worst_energy = 0.0
    worst_parseval = 0.0
    worst_symmetry = 0.0
    worst_rowsum = 0.0
    for seq in corpus:
        ind = ss.build_indicators(seq)
        m = ind.m
        spectra = np.fft.fft(ind.rows, axis=1)

        # per-channel energy equals m times the symbol count
        energy = np.sum(np.abs(spectra) ** 2, axis=1)
        expected = m * ind.counts.astype(float)
        nonzero = expected > 0
        if np.any(nonzero):
            worst_energy = max(
                worst_energy,
                float(np.max(np.abs(energy[nonzero] - expected[nonzero]) / expected[nonzero])),
            )
        if np.any(~nonzero):
            worst_energy = max(worst_energy, float(np.max(energy[~nonzero])))

        # Parseval per channel
        time_energy = np.sum(ind.rows**2, axis=1)
        freq_energy = np.sum(np.abs(spectra) ** 2, axis=1) / m
        scale = np.maximum(time_energy, 1.0)
        worst_parseval = max(
            worst_parseval, float(np.max(np.abs(freq_energy - time_energy) / scale))
        )

        # conjugate symmetry of every real-input channel spectrum
        if m > 1:
            flipped = np.conj(spectra[:, 1:][:, ::-1])
            denom = np.maximum(np.abs(spectra[:, 1:]), 1.0)
            worst_symmetry = max(
                worst_symmetry, float(np.max(np.abs(spectra[:, 1:] - flipped) / denom))
            )

        # the indicator row-sum is all ones: DFT is m at k=0, 0 elsewhere
        rowsum_spectrum = np.fft.fft(ind.rows.sum(axis=0))
        worst_rowsum = max(worst_rowsum, abs(rowsum_spectrum[0] - m) / m)
        if m > 1:
            worst_rowsum = max(worst_rowsum, float(np.max(np.abs(rowsum_spectrum[1:]))))

    ok = max(worst_energy, worst_parseval, worst_symmetry, worst_rowsum) <= RTOL
    _line(3, ok, "proof identities on the same corpus: "
                 f"channel energy {worst_energy:.3g}, parseval {worst_parseval:.3g}, "
                 f"conj symmetry {worst_symmetry:.3g}, row-sum DFT {worst_rowsum:.3g}")
    assert worst_energy <= RTOL
    assert worst_parseval <= RTOL
    assert worst_symmetry <= RTOL
    assert worst_rowsum <= RTOL


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(SEED + 2)
    start = time.perf_counter()
    worst = 0.0
    for m in range(1, 257):
        x = rng.standard_normal(m)
        worst = max(worst, dft_max_deviation(ss.dft_fast(x), ss.dft_naive(x)))
    lengths = [int(v) for v in rng.integers(1, 5001, size=50)]
    for m in lengths:
        x = rng.standard_normal(m)
        worst = max(worst, dft_max_deviation(ss.dft_fast(x), ss.dft_naive(x)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 120
    _line(4, ok, f"dft_fast vs dft_naive on lengths 1..256 and 50 random lengths "
                 f"(max {max(lengths)}), worst per-bin dev {worst:.3g}, {elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 120


def _benchmark_fasta() -> Path | None:
    env = os.environ.get("SYMSPEC_F56F11_FASTA")
    candidates = [Path(env)] if env else []
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "NM_171086_cds.fasta")
    for path in candidates:
        if path.is_file():
            return path
    return None


def test_criterion_5_f56f11_benchmark():
    path = _benchmark_fasta()
    if path is None:
        _line(5, True, "waived: benchmark FASTA not supplied "
                       "(set SYMSPEC_F56F11_FASTA or add data/NM_171086_cds.fasta)")
        pytest.skip("F56F11.4 benchmark FASTA not supplied; criterion waived")

    seqs = ss.parse_fasta(path.read_text(), ss.DNA)
    codes = np.concatenate([s.codes for s in seqs])
    seq = ss.SymbolicSequence(ss.DNA, codes, id="F56F11.4-exons")
    assert seq.m == 1236, f"expected 1236 bp, got {seq.m}"

    ind = ss.build_indicators(seq)
    base = ss.spectrum_base(ind)
    zsig = ss.apply_representation(ind, ss.build_zcurve())
    zrep = ss.spectrum_transformed(zsig)

    failures = []

    def expect(label, value, target, tol):
        if not abs(value - target) <= tol:
            failures.append(f"{label}: {value!r} not within {tol} of {target}")

    expect("base mean noise", base.mean_noise, 1236.0, 1e-6)
    expect("base P(412)", float(base.power[412]), 15780.0, 1.0)
    expect("base SNR(412)", base.snr_at(412), 12.7670, 0.005)
    expect("base total", base.total, 1_527_696.0, RTOL * 1_527_696.0)
    expect("zcurve mean noise", zrep.mean_noise, 3708.0, 1e-6)
    expect("zcurve P(412)", float(zrep.power[412]), 63120.0, 4.0)
    expect("zcurve SNR(412)", zrep.snr_at(412), 17.0227, 0.005)
    expect("zcurve total", zrep.total, 4_583_088.0, RTOL * 4_583_088.0)
    ratio = zrep.snr_at(412) / base.snr_at(412)
    expect("SNR ratio at 412", ratio, 4.0 / 3.0, RTOL * (4.0 / 3.0))

    ok = not failures
    _line(5, ok, "F56F11.4 exon benchmark reproduced" if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_6_degenerate_inputs():
    cases = []

    code, out, _ = run_child(["analyze", "--alphabet", "ACGT", "--rep", "base", "--rep", "zcurve"], "AAAA")
    cases.append(("single-symbol analyze", code == 0 and "vacuous" in out))

    code, out, _ = run_child(["analyze", "--alphabet", "ACGT"], "A")
    cases.append(("m=1 analyze (period 3)", code == 0 and "none" in out))

    code, out, _ = run_child(["verify", "--alphabet", "ACGT"], "AAAA")
    cases.append(("single-symbol verify", code == 0 and "vacuous (no nonzero base bins)" in out))

    code, _, _ = run_child(["analyze", "--alphabet", "AB", "--rep", "helmert"], "ABBABBAB")
    cases.append(("T=2 alphabet analyze", code == 0))

    code, out, _ = run_child(["analyze", "--alphabet", "ACGT", "--period", "3"], "ACGTACGTAC")
    cases.append(("non-divisible period query", code == 0 and "rounded, not exact" in out))

    code, out, _ = run_child(["spectrum", "--alphabet", "ACGT"], "A")
    cases.append(("m=1 spectrum", code == 0 and out.strip() == "k,frequency,power,snr"))

    failures = [name for name, passed in cases if not passed]
    ok = not failures
    _line(6, ok, f"degenerate-input suite, {len(cases)} cases"
                 + ("" if ok else f"; failed: {', '.join(failures)}"))
    assert ok, failures


def test_criterion_7_cli_determinism():
    argv = ["verify", "--random", "50", "--seed", "7", "--format", "json"]
    first_code, first, first_err = run_child(argv)
    second_code, second, second_err = run_child(argv)
    identical = first == second
    ok = first_code == 0 and second_code == 0 and identical and first
    _line(7, bool(ok), f"verify --random 50 --seed 7: {len(first)} bytes, "
                       f"repeat run {'identical' if identical else 'DIFFERS'}")
    assert first_code == 0, first_err
    assert second_code == 0, second_err
    assert identical
    obj = json.loads(first)
    assert obj["all_pass"] is True
    assert obj["seed"] == 7
    assert len(obj["results"]) == 50
