import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import traced
from symspec import representations, sequences
from symspec import (
    DNA,
    Alphabet,
    IndicatorMatrix,
    MatrixError,
    SequenceError,
    SymbolicSequence,
    TransformedSignal,
    apply_representation,
    build_helmert,
    build_indicators,
    build_tetrahedron,
    build_zcurve,
    cumulative_coordinates,
    load_matrix,
    matrix_from_dict,
    matrix_to_dict,
    parse_fasta,
    save_matrix,
    sequence_from_string,
    validate_row_orthogonal,
)

dna_codes = st.lists(st.integers(0, 3), min_size=1, max_size=200)


def dna(text):
    return sequence_from_string(text, DNA)


def random_sequence_dna(m):
    return SymbolicSequence(DNA, np.random.default_rng(m).integers(0, 4, m))


class TestIndicators:
    def test_one_of_each_symbol(self):
        ind = build_indicators(dna("ACGT"))
        np.testing.assert_array_equal(ind.rows, np.eye(4))

    def test_single_symbol(self):
        ind = build_indicators(dna("AAAA"))
        np.testing.assert_array_equal(ind.rows[0], np.ones(4))
        np.testing.assert_array_equal(ind.rows[1:], np.zeros((3, 4)))

    def test_mixed_counts(self):
        ind = build_indicators(dna("ACCA"))
        np.testing.assert_array_equal(ind.rows[0], [1, 0, 0, 1])
        np.testing.assert_array_equal(ind.rows[1], [0, 1, 1, 0])
        np.testing.assert_array_equal(ind.rows[2:], np.zeros((2, 4)))
        assert list(ind.counts) == [2, 2, 0, 0]

    def test_support_sets(self):
        ind = build_indicators(dna("ACCA"))
        assert list(ind.support("A")) == [0, 3]
        assert list(ind.support("C")) == [1, 2]
        assert list(ind.support("G")) == []

    @given(codes=dna_codes)
    def test_columns_partition_positions(self, codes):
        ind = build_indicators(SymbolicSequence(DNA, np.array(codes)))
        np.testing.assert_array_equal(ind.rows.sum(axis=0), np.ones(len(codes)))
        assert int(ind.counts.sum()) == len(codes)

    def test_constructor_takes_codes(self):
        ind = IndicatorMatrix(DNA, [0, 1, 1, 3])
        np.testing.assert_array_equal(ind.rows, [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 0], [0, 0, 0, 1]])
        np.testing.assert_array_equal(ind.table, np.eye(4))
        assert not ind.table.flags.writeable and ind.table is IndicatorMatrix(DNA, [2]).table  # one per T
        assert ind.m == 4 and list(ind.counts) == [1, 2, 0, 1]

    @pytest.mark.parametrize("codes", [[], [[0, 1]], [0, 4], [-1, 0]])
    def test_constructor_rejects_bad_codes(self, codes):
        with pytest.raises(MatrixError, match="codes"):
            IndicatorMatrix(DNA, codes)
        with pytest.raises(SequenceError, match="^(sequence codes .*|empty sequence)$"):  # and so does a sequence
            SymbolicSequence(DNA, np.array(codes))

    def test_derived_arrays_are_read_only(self):
        ind = build_indicators(dna("ACGTT"))
        sig = apply_representation(ind, build_zcurve())
        for arr in (ind.codes, ind.rows, sig.table, sig.codes, sig.channels):
            assert not arr.flags.writeable


class TestSharedCodes:
    """Indicators and transforms keep the sequence's one-byte codes as they
    are: one buffer from the encoder to the spectral kernel."""

    def test_parsed_codes_are_shared(self):
        seq = parse_fasta(">x\nACGTTGCAACGGTTA\n", DNA)[0]
        ind = build_indicators(seq)
        sigs = [apply_representation(ind, rep) for rep in (build_zcurve(), build_tetrahedron(), build_helmert(4))]
        assert seq.codes.dtype == np.uint8
        assert ind.codes is seq.codes
        for arr in [ind.codes] + [sig.codes for sig in sigs]:
            assert np.shares_memory(arr, seq.codes) and arr.dtype == np.uint8

    def test_one_byte_codes_give_the_int64_results(self):
        seq = sequence_from_string("ACGTTGCAACGGTTAGGA", DNA)
        wide = SymbolicSequence(DNA, seq.codes.astype(np.int64))
        narrow, broad = build_indicators(seq), build_indicators(wide)
        assert np.array_equal(narrow.rows, broad.rows) and np.array_equal(narrow.counts, broad.counts)
        assert np.array_equal(narrow.support("G"), broad.support("G"))
        narrow_sig = apply_representation(narrow, build_tetrahedron())
        wide_sig = apply_representation(broad, build_tetrahedron())
        assert narrow_sig.channels.tobytes() == wide_sig.channels.tobytes()
        assert np.array_equal(cumulative_coordinates(narrow_sig), cumulative_coordinates(wide_sig))

    def test_constructors_keep_read_only_integer_codes(self):
        codes = np.array([0, 1, 3, 2], dtype=np.uint8)
        codes.setflags(write=False)
        assert IndicatorMatrix(DNA, codes).codes is codes
        assert TransformedSignal(build_zcurve().rows, codes, "zcurve", 2.0).codes is codes

    def test_a_sequence_is_checked_once(self, monkeypatch):
        """build_indicators and apply_representation trust the codes that the
        sequence has checked, and pass over them no more; raw codes given to
        a constructor are still checked."""
        calls = []
        for module, name in [(representations, "_checked_codes"), (sequences, "_read_only_codes")]:
            monkeypatch.setattr(module, name, lambda *args, f=getattr(module, name), n=name: calls.append(n) or f(*args))
        seq = dna("ACGTTGCA")
        assert calls == ["_read_only_codes"]  # the sequence checks its codes
        calls.clear()
        ind = build_indicators(seq)
        sig = apply_representation(ind, build_zcurve())
        assert calls == []
        assert ind.codes is seq.codes and sig.codes is seq.codes
        with pytest.raises(MatrixError, match="codes"):
            IndicatorMatrix(DNA, np.array([0, 4]))
        with pytest.raises(MatrixError, match="codes"):
            TransformedSignal(build_zcurve().rows, np.array([0, 4]), "zcurve", 2.0)
        assert calls == ["_checked_codes"] * 2


class TestValidateRowOrthogonal:
    def test_zcurve_rows_are_valid(self):
        rep = validate_row_orthogonal(
            [[1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], "ACGT"
        )
        assert rep.d == pytest.approx(2.0, abs=1e-15)
        assert rep.kind == "row-orthogonal"

    def test_two_symbol_single_row(self):
        rep = validate_row_orthogonal([[1, -1]])
        assert rep.d == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert rep.alphabet_order is None

    def test_rejects_row_with_constant_component(self):
        with pytest.raises(MatrixError, match="rows not orthogonal to constant row"):
            validate_row_orthogonal([[1, 1, 0, 0], [0, 0, 1, -1], [1, -1, 0, 0]])

    def test_rejects_nonorthogonal_rows(self):
        with pytest.raises(MatrixError, match=r"rows not orthogonal$"):
            validate_row_orthogonal([[1, -1, 1, -1], [1, 1, -1, -1], [1, 1, 1, -3]])

    def test_rejects_unequal_row_norms(self):
        with pytest.raises(MatrixError, match="row norms differ"):
            validate_row_orthogonal([[1, -1, 1, -1], [1, 1, -1, -1], [2, -2, -2, 2]])

    def test_rejects_wrong_shape(self):
        with pytest.raises(MatrixError, match="T-1"):
            validate_row_orthogonal([[1, -1, 0]])
        with pytest.raises(MatrixError, match="^matrix must be two-dimensional$"):
            validate_row_orthogonal([1, -1])

    def test_rejects_nonfinite_entries(self):
        with pytest.raises(MatrixError, match="finite"):
            validate_row_orthogonal([[np.inf, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])

    def test_rejects_mismatched_alphabet_order(self):
        with pytest.raises(MatrixError, match="alphabet_order"):
            validate_row_orthogonal([[1, -1]], alphabet_order=("A", "B", "C"))
        with pytest.raises(MatrixError, match="^alphabet_order symbols are not distinct$"):
            validate_row_orthogonal([[1, -1]], alphabet_order=("A", "A"))

    @pytest.mark.parametrize("scale", [1e-7, 1e3, 1e7])
    def test_verdict_does_not_depend_on_scale(self, scale):
        # Regression: row dot products were held to an absolute 1e-12, so
        # the tetrahedron times 1e3 was rejected as "rows not orthogonal".
        tet = build_tetrahedron()
        rep = validate_row_orthogonal(tet.rows * scale, tet.alphabet_order)
        assert rep.d == pytest.approx(tet.d * scale, rel=1e-15)
        assert rep.kind == "row-orthogonal"

    @pytest.mark.parametrize("scale", [1e-7, 1.0])
    def test_rejects_rows_80_degrees_apart_at_any_scale(self, scale):
        # Regression: at scale 1e-7 both row checks passed and only the
        # column identities caught these rows.
        u = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
        v = np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0)
        angle = math.radians(80.0)
        rows = np.array([u, math.cos(angle) * u + math.sin(angle) * v])
        with pytest.raises(MatrixError, match=r"rows not orthogonal$"):
            validate_row_orthogonal(rows * scale)

    @pytest.mark.parametrize("scale", [1e154, 1e-160])
    def test_rejects_squared_norms_outside_the_normal_range(self, scale):
        # Regression: at 1e154 the Gram overflowed, the row checks compared
        # against NaN and passed, and both scales read "column identity violated".
        with pytest.raises(MatrixError, match=re.escape(f"matrix scale out of range: its largest entry is {scale:.3g},")):
            validate_row_orthogonal(build_zcurve().rows * scale)

    @pytest.mark.parametrize("scale", [1e153, 1e-150])
    def test_accepts_squared_norms_in_the_normal_range(self, scale):
        assert validate_row_orthogonal(build_zcurve().rows * scale).d == pytest.approx(2 * scale, rel=1e-15)

    def test_rejects_a_zero_row_by_name(self):
        rows = build_zcurve().rows.copy()
        rows[1] = 0.0
        with pytest.raises(MatrixError, match="^rows must be nonzero$"):
            validate_row_orthogonal(rows)

    def test_holds_about_three_square_arrays_at_once(self):
        # Regression: the builder's rows, their copy, the row Gram, its off-diagonal
        # part, rows/d, the column Gram and a dense identity were alive together: 8.0 T^2 floats.
        T = 1000
        _, _, peak = traced(build_helmert, T)
        assert peak <= 3.5 * 8 * T**2


class TestBuilders:
    def test_zcurve_column_order_and_norm(self):
        rep = build_zcurve()
        assert rep.alphabet_order == ("A", "C", "G", "T")
        assert rep.d == pytest.approx(2.0, abs=1e-15)

    def test_zcurve_single_nucleotide_channels(self):
        rep = build_zcurve()
        a = apply_representation(build_indicators(dna("A")), rep)
        np.testing.assert_allclose(a.channels[:, 0], [1, 1, 1])
        t = apply_representation(build_indicators(dna("T")), rep)
        np.testing.assert_allclose(t.channels[:, 0], [-1, -1, 1])

    def test_tetrahedron_rows_and_norm(self):
        rep = build_tetrahedron()
        assert rep.alphabet_order == ("A", "T", "C", "G")
        r2 = math.sqrt(2.0)
        np.testing.assert_allclose(
            rep.rows[0], [0.0, 2 * r2 / 3, -r2 / 3, -r2 / 3], atol=1e-15
        )
        assert rep.d == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-15)
        assert rep.kind == "row-orthogonal"

    def test_helmert_two_symbols(self):
        rep = build_helmert(2)
        inv_r2 = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(rep.rows, [[inv_r2, -inv_r2]], atol=1e-16)
        assert rep.kind == "orthonormal"

    def test_helmert_four_symbol_column_identities(self):
        rep = build_helmert(4)
        assert rep.d == pytest.approx(1.0, abs=1e-15)
        gram = rep.rows.T @ rep.rows
        np.testing.assert_allclose(np.diag(gram), np.full(4, 3 / 4), atol=1e-14)
        off = gram[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, np.full(12, -1 / 4), atol=1e-14)

    @pytest.mark.parametrize("size", list(range(2, 65)))
    def test_helmert_validates_across_sizes(self, size):
        rep = build_helmert(size)
        assert rep.d == pytest.approx(1.0, abs=1e-12)
        assert rep.rows.shape == (size - 1, size)

    def test_helmert_rejects_tiny_alphabet(self):
        with pytest.raises(MatrixError):
            build_helmert(1)


class TestApplyRepresentation:
    @pytest.mark.parametrize(
        "rep", [build_zcurve(), build_tetrahedron(), build_helmert(4), build_helmert(4, "TGCA")],
        ids=lambda rep: f"{rep.name}-{rep.alphabet_order}",
    )
    def test_channels_equal_the_dense_product(self, rep):
        # The table gather gives bit for bit what the matrix times the
        # (permuted) dense indicator rows gave.
        ind = build_indicators(random_sequence_dna(500))
        order = rep.alphabet_order or ind.alphabet.symbols
        dense = rep.rows @ ind.rows[[ind.alphabet.index(s) for s in order]]
        sig = apply_representation(ind, rep)
        assert np.array_equal(sig.channels.view(np.uint64), dense.view(np.uint64))

    def test_negative_zero_entries_read_as_zero(self):
        tet = build_tetrahedron()
        signed = validate_row_orthogonal(np.where(tet.rows == 0.0, -0.0, tet.rows), tet.alphabet_order)
        assert np.signbit(signed.rows[signed.rows == 0.0]).all()
        ind = build_indicators(dna("ACGTTGCA"))
        sig = apply_representation(ind, signed)
        assert not np.signbit(sig.table[sig.table == 0.0]).any()
        assert sig.table.tobytes() == apply_representation(ind, tet).table.tobytes()

    def test_acgt_under_zcurve(self):
        sig = apply_representation(build_indicators(dna("ACGT")), build_zcurve())
        np.testing.assert_allclose(
            sig.channels,
            [[1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]],
        )
        assert sig.d == 2.0
        assert sig.size == 4

    def test_constant_sequence_constant_channels(self):
        sig = apply_representation(build_indicators(dna("AAAA")), build_zcurve())
        np.testing.assert_allclose(sig.channels, np.ones((3, 4)))

    def test_helmert_columns_are_basis_images(self):
        rep = build_helmert(4)
        sig = apply_representation(build_indicators(dna("ACGT")), rep)
        np.testing.assert_allclose(sig.channels, rep.rows)

    def test_matching_is_by_symbol_not_position(self):
        z = build_zcurve()
        perm = [3, 1, 0, 2]
        shuffled = validate_row_orthogonal(
            z.rows[:, perm], tuple(z.alphabet_order[i] for i in perm), name="zperm"
        )
        ind = build_indicators(dna("ACGTTGCA"))
        np.testing.assert_array_equal(
            apply_representation(ind, z).channels,
            apply_representation(ind, shuffled).channels,
        )

    def test_unbound_matrix_binds_positionally(self):
        rep = build_helmert(4)
        assert rep.alphabet_order is None
        ind = build_indicators(sequence_from_string("AB", Alphabet("ABCD")))
        sig = apply_representation(ind, rep)
        np.testing.assert_allclose(sig.channels, rep.rows[:, :2])

    def test_mismatched_alphabet_names_symbol(self):
        ind = build_indicators(sequence_from_string("ACGU", Alphabet("ACGU")))
        with pytest.raises(MatrixError, match="'T'"):
            apply_representation(ind, build_zcurve())

    def test_wrong_column_count(self):
        ind = build_indicators(sequence_from_string("AB", Alphabet("AB")))
        with pytest.raises(MatrixError, match="columns"):
            apply_representation(ind, build_zcurve())


class TestCumulativeCoordinates:
    def test_constant_sequence_counts_up(self):
        sig = apply_representation(build_indicators(dna("AAAA")), build_zcurve())
        coords = cumulative_coordinates(sig)
        np.testing.assert_allclose(coords[0], [1, 2, 3, 4])

    def test_acgt_prefix_sums(self):
        sig = apply_representation(build_indicators(dna("ACGT")), build_zcurve())
        coords = cumulative_coordinates(sig)
        np.testing.assert_allclose(coords[0], [1, 0, 1, 0])

    @given(codes=dna_codes)
    def test_final_value_is_count_difference(self, codes):
        seq = SymbolicSequence(DNA, np.array(codes))
        ind = build_indicators(seq)
        coords = cumulative_coordinates(apply_representation(ind, build_zcurve()))
        f_a, f_c, f_g, f_t = (int(c) for c in ind.counts)
        assert coords[0, -1] == pytest.approx(f_a + f_g - f_c - f_t)
        assert coords[1, -1] == pytest.approx(f_a + f_c - f_g - f_t)
        assert coords[2, -1] == pytest.approx(f_a + f_t - f_c - f_g)


class TestMatrixJson:
    def test_round_trip_bound_matrix(self, tmp_path):
        rep = build_tetrahedron()
        path = tmp_path / "tetra.json"
        save_matrix(rep, path)
        loaded = load_matrix(path)
        assert loaded.name == "tetrahedron"
        assert loaded.alphabet_order == ("A", "T", "C", "G")
        np.testing.assert_array_equal(loaded.rows, rep.rows)
        assert loaded.d == rep.d

    def test_round_trip_unbound_matrix(self, tmp_path):
        rep = build_helmert(5)
        path = tmp_path / "helmert.json"
        save_matrix(rep, path)
        loaded = load_matrix(path)
        assert loaded.alphabet_order is None
        np.testing.assert_array_equal(loaded.rows, rep.rows)

    def test_dict_schema(self):
        obj = matrix_to_dict(build_zcurve())
        assert set(obj) == {"name", "alphabet_order", "rows", "d"}
        assert obj["alphabet_order"] == ["A", "C", "G", "T"]
        assert obj["d"] == 2.0

    def test_load_rejects_nonorthogonal(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "name": "bad",
            "alphabet_order": None,
            "rows": [[1, -1, 1, -1], [1, 1, -1, -1], [1, 1, 1, -3]],
            "d": 2.0,
        }))
        with pytest.raises(MatrixError, match=r"rows not orthogonal$"):
            load_matrix(path)

    def test_load_rejects_wrong_declared_norm(self, tmp_path):
        obj = matrix_to_dict(build_zcurve())
        obj["d"] = 3.0
        path = tmp_path / "wrong_d.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(MatrixError, match="does not match"):
            load_matrix(path)

    def test_lower_case_alphabet_order_is_folded(self):
        # Regression: "acgt" was rejected against the upper-cased sequence
        # alphabet ACGT ("column symbol 'a' is missing").
        obj = matrix_to_dict(build_tetrahedron())
        obj["alphabet_order"] = "atcg"
        rep = matrix_from_dict(obj)
        assert rep.alphabet_order == ("A", "T", "C", "G")
        ind = build_indicators(dna("ACGTTGCA"))
        np.testing.assert_array_equal(
            apply_representation(ind, rep).channels,
            apply_representation(ind, build_tetrahedron()).channels,
        )

    @pytest.mark.parametrize("symbol, upper", [("\u00df", "SS"), ("\ufb01", "FI")], ids=["sharp-s", "fi-ligature"])
    def test_column_symbol_with_longer_upper_case_is_named(self, symbol, upper):
        # Regression: refused as "alphabet_order symbols must be single
        # characters", which the symbol as written is.
        obj = {**matrix_to_dict(build_zcurve()), "alphabet_order": ["a", symbol, "g", "t"]}
        message = f"character {symbol!r} at position 2 of alphabet_order upper-cases to {upper!r}, not one character"
        with pytest.raises(MatrixError, match=f"^{re.escape(message)}$"):
            matrix_from_dict(obj)

    # Regression: the first three escaped as TypeError (a traceback and exit 1
    # in the CLI), the last three as ValueError with numpy's text.
    @pytest.mark.parametrize("field, value, message", [
        ("rows", [[{}, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], "matrix must be rows of numbers, all of one length"),
        ("alphabet_order", 5, "'alphabet_order' must be a list of symbols"),
        ("alphabet_order", [["A"], "C", "G", "T"], "alphabet_order symbols must be single characters"),
        ("rows", [[1, -1, 1], [1, 1, -1, -1], [1, -1, -1, 1]], "matrix must be rows of numbers, all of one length"),
        ("rows", [["x", -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], "matrix must be rows of numbers, all of one length"),
        ("rows", "ACGT", "matrix must be rows of numbers, all of one length"),
    ], ids=["object-cell", "order-number", "order-nested", "ragged", "string-cell", "rows-string"])
    def test_malformed_fields_raise_matrix_error(self, field, value, message):
        obj = {**matrix_to_dict(build_zcurve()), field: value}
        with pytest.raises(MatrixError, match=f"^{re.escape(message)}$"):
            matrix_from_dict(obj)

    # json.loads reads these as str, bool or an int beyond float64; numpy
    # would read the first two as numbers and refuse the last with an
    # OverflowError, a traceback in the CLI.
    @pytest.mark.parametrize("field, value, message", [
        ("rows", [["1", -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], "matrix must be rows of numbers, all of one length"),
        ("rows", [[True, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], "matrix must be rows of numbers, all of one length"),
        ("rows", [[10**400, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], "matrix entries must be finite"),
        ("d", "2", "matrix JSON needs 'rows' and a numeric 'd'"),
        ("d", True, "matrix JSON needs 'rows' and a numeric 'd'"),
        ("d", 10**400, "matrix JSON needs 'rows' and a numeric 'd'"),
    ], ids=["string-number-cell", "bool-cell", "huge-int-cell", "string-d", "bool-d", "huge-int-d"])
    def test_numbers_only(self, field, value, message):
        obj = {**matrix_to_dict(build_zcurve()), field: value}
        with pytest.raises(MatrixError, match=f"^{re.escape(message)}$"):
            matrix_from_dict(obj)

    def test_int_cells_load(self):
        obj = {**matrix_to_dict(build_zcurve()), "rows": [[1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], "d": 2}
        rep = matrix_from_dict(json.loads(json.dumps(obj)))
        assert rep.rows.tobytes() == build_zcurve().rows.tobytes()
        assert rep.d == 2.0

    def test_alphabet_order_symbols_are_single_characters(self):
        # Regression: "AC" passed validation and failed only when applied.
        with pytest.raises(MatrixError, match="^alphabet_order symbols must be single characters$"):
            validate_row_orthogonal(build_zcurve().rows, alphabet_order=["AC", "G", "T", "X"])

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(MatrixError, match="not valid JSON"):
            load_matrix(path)
        path.write_text("[[1, -1]]")  # valid JSON, but not a matrix object
        with pytest.raises(MatrixError, match="^matrix JSON must be an object$"):
            load_matrix(path)
