import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symspec import (
    DNA,
    Alphabet,
    IndicatorMatrix,
    MatrixError,
    SymbolicSequence,
    apply_representation,
    build_helmert,
    build_indicators,
    build_tetrahedron,
    build_zcurve,
    cumulative_coordinates,
    load_matrix,
    matrix_from_dict,
    matrix_to_dict,
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
        assert ind.m == 4 and list(ind.counts) == [1, 2, 0, 1]

    @pytest.mark.parametrize("codes", [[], [[0, 1]], [0, 4], [-1, 0]])
    def test_constructor_rejects_bad_codes(self, codes):
        with pytest.raises(MatrixError, match="codes"):
            IndicatorMatrix(DNA, codes)

    def test_derived_arrays_are_read_only(self):
        ind = build_indicators(dna("ACGTT"))
        sig = apply_representation(ind, build_zcurve())
        for arr in (ind.codes, ind.rows, sig.table, sig.codes, sig.channels):
            assert not arr.flags.writeable


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

    def test_rejects_nonfinite_entries(self):
        with pytest.raises(MatrixError, match="finite"):
            validate_row_orthogonal([[np.inf, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])

    def test_rejects_mismatched_alphabet_order(self):
        with pytest.raises(MatrixError, match="alphabet_order"):
            validate_row_orthogonal([[1, -1]], alphabet_order=("A", "B", "C"))


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

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(MatrixError, match="not valid JSON"):
            load_matrix(path)
