import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symspec import (
    DNA,
    PROTEIN,
    Alphabet,
    SequenceError,
    default_alphabet,
    parse_fasta,
    random_sequence,
    sequence_from_string,
    to_fasta,
)


class TestAlphabet:
    def test_keeps_explicit_order(self):
        assert Alphabet("TGCA").symbols == ("T", "G", "C", "A")

    def test_rejects_duplicates(self):
        with pytest.raises(SequenceError, match="not distinct"):
            Alphabet("AAC")

    def test_rejects_singleton(self):
        with pytest.raises(SequenceError, match="at least 2"):
            Alphabet("A")

    def test_rejects_multichar_symbols(self):
        with pytest.raises(SequenceError, match="single characters"):
            Alphabet(("AB", "C"))

    def test_index_is_bijection(self):
        a = Alphabet("ACGT")
        assert [a.index(s) for s in a] == [0, 1, 2, 3]
        assert "G" in a and "U" not in a
        with pytest.raises(SequenceError, match="'U'"):
            a.index("U")


def test_default_alphabet_sizes():
    assert default_alphabet(4) == DNA
    assert default_alphabet(20) == PROTEIN
    assert str(default_alphabet(7)) == "ABCDEFG"
    with pytest.raises(SequenceError):
        default_alphabet(1)


class TestParseFasta:
    def test_single_record_explicit_alphabet(self):
        (seq,) = parse_fasta(">x\nACGT\n", DNA)
        assert seq.id == "x"
        assert seq.m == 4
        assert list(seq.codes) == [0, 1, 2, 3]

    def test_headerless_infers_sorted_alphabet(self):
        (seq,) = parse_fasta("acg\ntt")
        assert str(seq.alphabet) == "ACGT"
        assert seq.m == 5
        assert seq.id is None

    def test_character_outside_explicit_alphabet(self):
        with pytest.raises(SequenceError, match=r"'U' at position 4"):
            parse_fasta(">x\nACGU\n", DNA)

    def test_empty_record(self):
        with pytest.raises(SequenceError, match="empty sequence"):
            parse_fasta(">x\n>y\nACGT\n", DNA)

    def test_blank_input(self):
        with pytest.raises(SequenceError, match="no sequence records"):
            parse_fasta("  \n ", DNA)

    @pytest.mark.parametrize("width", [1, 2, 3, 7, 60])
    def test_line_wrapping_is_irrelevant(self, width):
        body = "ACGTACGTACGTAC"
        wrapped = "\n".join(body[i : i + width] for i in range(0, len(body), width))
        assert parse_fasta(f">x\n{wrapped}\n", DNA) == parse_fasta(f">x\n{body}\n", DNA)

    def test_multiple_records_share_inferred_alphabet(self):
        seqs = parse_fasta(">a\nAC\n>b\nGT\n")
        assert [str(s.alphabet) for s in seqs] == ["ACGT", "ACGT"]
        assert [s.id for s in seqs] == ["a", "b"]

    def test_semicolon_comment_lines_are_skipped(self):
        # Regression: ';' comment lines used to be read as sequence symbols,
        # so the inferred alphabet gained ';' and the comment's letters.
        seqs = parse_fasta(";file comment\n>r1\n;comment\nACGT\n;x\nAC\n>r2\nGT\n")
        assert [s.id for s in seqs] == ["r1", "r2"]
        assert str(seqs[0].alphabet) == "ACGT"
        assert seqs[0].as_string() == "ACGTAC"


class TestSequenceFromString:
    def test_single_symbol_repeated(self):
        seq = sequence_from_string("AAAA", DNA)
        assert seq.m == 4
        assert list(seq.codes) == [0, 0, 0, 0]

    def test_empty_errors(self):
        with pytest.raises(SequenceError, match="empty sequence"):
            sequence_from_string("", DNA)

    def test_twenty_letter_protein(self):
        seq = sequence_from_string("ACDEFGHIKLMNPQRSTVWY", PROTEIN)
        assert seq.m == 20
        assert seq.alphabet.size == 20
        assert list(seq.codes) == list(range(20))

    def test_case_is_folded(self):
        assert sequence_from_string("acgt", DNA) == sequence_from_string("ACGT", DNA)

    def test_error_names_character_and_position(self):
        with pytest.raises(SequenceError, match=r"'X' at position 3"):
            sequence_from_string("ACXT", DNA)

    def test_ambiguity_codes_are_ordinary_symbols(self):
        extended = Alphabet("ACGTN-")
        seq = sequence_from_string("ACN-GT", extended)
        assert seq.m == 6
        assert list(seq.codes) == [0, 1, 4, 5, 2, 3]
        with pytest.raises(SequenceError, match="'N'"):
            sequence_from_string("ACGTN", DNA)


dna_bodies = st.text(alphabet="ACGT", min_size=1, max_size=120)


@given(bodies=st.lists(dna_bodies, min_size=1, max_size=4))
def test_fasta_round_trip(bodies):
    text = "".join(f">r{i}\n{body}\n" for i, body in enumerate(bodies))
    seqs = parse_fasta(text, DNA)
    assert parse_fasta(to_fasta(seqs), DNA) == seqs


@given(body=dna_bodies)
def test_headerless_round_trip(body):
    (seq,) = parse_fasta(body, DNA)
    assert parse_fasta(to_fasta(seq), DNA) == [seq]


def test_random_sequence_is_seed_deterministic():
    a = random_sequence(DNA, 50, np.random.default_rng(11))
    b = random_sequence(DNA, 50, np.random.default_rng(11))
    assert a == b
    assert a.m == 50


def _encode_per_character(text, alphabet, id=None):
    """The original per-character encoder, kept as the reference."""
    folded = text.upper()
    codes = []
    for pos, ch in enumerate(folded):
        if ch not in alphabet:
            where = f" of record {id!r}" if id else ""
            raise SequenceError(
                f"character {ch!r} at position {pos + 1}{where} is not in alphabet {alphabet}"
            )
        codes.append(alphabet.index(ch))
    return codes


_ENCODER_CASES = [
    (DNA, "ACGTacgt"),
    (PROTEIN, "ACDEFGHIKLMNPQRSTVWYacdefghiklmnpqrstvwy"),
    (Alphabet("ACGTN-"), "ACGTNacgtn-"),
    (Alphabet("ΑΒΓ"), "ΑΒΓαβγ"),  # Greek capitals; the lower-case forms fold onto them
    (Alphabet("αβγ"), "αβγ"),  # lower-case symbols never match folded text
]
_STRAY = "XxUu*.ßéİ\U0001f600\ud800"


@given(data=st.data())
def test_encoder_matches_per_character_reference(data):
    alphabet, valid = data.draw(st.sampled_from(_ENCODER_CASES))
    text = data.draw(st.text(alphabet=valid + _STRAY, min_size=1, max_size=80))
    rid = data.draw(st.one_of(st.none(), st.sampled_from(["", "r1", "chr 2"])))
    try:
        expected = _encode_per_character(text, alphabet, rid)
    except SequenceError as exc:
        with pytest.raises(SequenceError) as got:
            sequence_from_string(text, alphabet, id=rid)
        assert str(got.value) == str(exc)
    else:
        assert sequence_from_string(text, alphabet, id=rid).codes.tolist() == expected


@given(data=st.data())
def test_encoder_matches_reference_on_valid_text(data):
    alphabet, valid = data.draw(st.sampled_from(_ENCODER_CASES[:4]))
    text = data.draw(st.text(alphabet=valid, min_size=1, max_size=200))
    seq = sequence_from_string(text, alphabet)
    assert seq.codes.tolist() == _encode_per_character(text, alphabet)
