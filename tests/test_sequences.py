import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symspec import (
    DNA,
    PROTEIN,
    Alphabet,
    SequenceError,
    SymbolicSequence,
    default_alphabet,
    parse_fasta,
    random_sequence,
    sequence_from_string,
    to_fasta,
)
from symspec.cli import main


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

    def test_headerless_comment_lines_are_skipped(self):
        # Regression: in headerless input ';' lines were read as sequence
        # data, so ';c\nACGT' inferred the alphabet ';ACGT'.
        (seq,) = parse_fasta(";c\nAC\n;x\nGT\n")
        assert str(seq.alphabet) == "ACGT"
        assert seq.as_string() == "ACGT"

    def test_indented_header_keeps_its_record(self):
        # Regression: '\t>x' was taken for text before the first header, so
        # record x was dropped without an error and only y was parsed.
        seqs = parse_fasta("\t>x\nACGTACGT\n>y\nGT\n", DNA)
        assert [(s.id, s.as_string()) for s in seqs] == [("x", "ACGTACGT"), ("y", "GT")]

    def test_indented_first_header(self):
        # Regression: '  >id\nACGT' failed with "empty sequence".
        (seq,) = parse_fasta("  >id\nACGT\n", DNA)
        assert (seq.id, seq.as_string()) == ("id", "ACGT")

    @pytest.mark.parametrize("text, rid", [("  ;c\nACGT\n", None), ("  ;c\n>id\nACGT\n", "id")])
    def test_indented_comment_is_skipped(self, text, rid):
        (seq,) = parse_fasta(text)
        assert (seq.id, str(seq.alphabet), seq.as_string()) == (rid, "ACGT", "ACGT")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("AC>GT 12\n", "'>' at position 3 marks"),
            ("ACGT;x\n", "';' at position 5 marks"),
            ("AC;G>T", "';' at position 3 marks"),
            (">r1\nAC\nG>T\n", "'>' at position 4 of record 'r1' marks"),
            (">r1\nACGT\n>r2\nA;\n", "';' at position 2 of record 'r2' marks"),
        ],
    )
    def test_markers_are_never_inferred(self, text, message):
        with pytest.raises(SequenceError, match=message):
            parse_fasta(text)

    def test_digits_are_inferred_symbols(self):
        (seq,) = parse_fasta("AC 12\n")
        assert str(seq.alphabet) == "12AC"


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


# Characters a FASTA round trip keeps: not whitespace, not a marker, and
# unchanged by the upper-casing every input goes through.
_symbols = st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")).filter(
    lambda c: not c.isspace() and c not in ">;" and c.upper() == c
)
_alphabets = st.lists(_symbols, min_size=2, max_size=8, unique=True).map(lambda s: Alphabet(tuple(s)))
_ids = st.one_of(
    st.none(),
    st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), min_size=1, max_size=12).filter(
        lambda s: s.strip() == s
    ),
)


def _draw_records(data, alphabet):
    """A few sequences over *alphabet*, each with a random id."""
    n = data.draw(st.integers(1, 4))
    codes = st.lists(st.integers(0, alphabet.size - 1), min_size=1, max_size=100)
    return [SymbolicSequence(alphabet, data.draw(codes), id=data.draw(_ids)) for _ in range(n)]


@given(data=st.data())
def test_fasta_round_trip_random_alphabets_ids_and_widths(data):
    alphabet = data.draw(_alphabets)
    seqs = _draw_records(data, alphabet)
    width = data.draw(st.integers(1, 80))
    assert parse_fasta(to_fasta(seqs, width=width), alphabet) == seqs


@settings(deadline=None)
@given(data=st.data())
def test_stray_character_is_rejected_with_the_encoder_message(data, tmp_path_factory):
    alphabet = data.draw(_alphabets)
    seqs = _draw_records(data, alphabet)
    stray = data.draw(_symbols.filter(lambda c: c not in alphabet))
    bad = data.draw(st.integers(0, len(seqs) - 1))
    bodies = [seq.as_string() for seq in seqs]
    pos = data.draw(st.integers(0, len(bodies[bad])))
    bodies[bad] = bodies[bad][:pos] + stray + bodies[bad][pos:]
    width = data.draw(st.integers(1, 80))
    text = "".join(
        f">{seq.id or ''}\n" + "".join(body[i : i + width] + "\n" for i in range(0, len(body), width))
        for seq, body in zip(seqs, bodies)
    )
    with pytest.raises(SequenceError) as encoder:
        sequence_from_string(bodies[bad], alphabet, id=seqs[bad].id)
    message = str(encoder.value)
    assert message.startswith(f"character {stray!r} at position {pos + 1}")
    with pytest.raises(SequenceError) as parser:
        parse_fasta(text, alphabet)
    assert str(parser.value) == message
    # The command line reports the same message and exits 2.
    path = tmp_path_factory.mktemp("stray") / "input.fa"
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["verify", "--rep", "helmert", f"--alphabet={alphabet}", "--input", str(path)])
    assert code == 2
    assert err.getvalue() == f"symspec: error: {path}: {message}\n"


def _as_string_per_character(seq):
    """The original per-character as_string, kept as the reference."""
    return "".join(seq.alphabet.symbols[c] for c in seq.codes)


_AS_STRING_ALPHABETS = [
    DNA,
    PROTEIN,
    Alphabet("ACGTN-"),
    Alphabet("ΑΒΓ"),
    Alphabet(("A", "é", "\U0001f600", "\ud800", "7")),  # 1-4 byte UTF-8 and a lone surrogate
]


@given(data=st.data())
def test_as_string_matches_per_character_reference(data):
    alphabet = data.draw(st.sampled_from(_AS_STRING_ALPHABETS))
    codes = data.draw(st.lists(st.integers(0, alphabet.size - 1), min_size=1, max_size=200))
    seq = SymbolicSequence(alphabet, codes)
    assert seq.as_string() == _as_string_per_character(seq)


def test_codes_are_kept_not_copied():
    codes = np.array([0, 1, 2, 3])
    codes.setflags(write=False)
    assert SymbolicSequence(DNA, codes).codes is codes
    writable = np.array([0, 1, 2, 3])
    seq = SymbolicSequence(DNA, writable)
    writable[0] = 3
    assert seq.codes[0] == 0 and not seq.codes.flags.writeable


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
