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
from conftest import run_main, traced


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

    @pytest.mark.parametrize(
        "alphabet, message",
        [
            (None, "'>' at position 5 marks a FASTA header or comment and is never inferred"),
            (DNA, "'>' at position 5 is not in alphabet ACGT"),
        ],
    )
    def test_text_before_first_header_makes_one_headerless_record(self, alphabet, message):
        # The '>x' line inside headerless text is a marker, not a new record.
        with pytest.raises(SequenceError, match=message):
            parse_fasta("ACGT\n>x\nGG\n", alphabet)

    @pytest.mark.parametrize("text", [";only a comment\n", "  \n;c\n\t;d\n"])
    @pytest.mark.parametrize("alphabet", [None, DNA])
    def test_comment_only_input_has_no_records(self, text, alphabet):
        # Regression: comments were dropped after the blank-input check, so
        # this read as one empty record ("empty sequence").
        with pytest.raises(SequenceError, match="^no sequence records in input$"):
            parse_fasta(text, alphabet)

    def test_record_of_comments_is_empty(self):
        with pytest.raises(SequenceError, match=r"^empty sequence \(record 'x'\)$"):
            parse_fasta(">x\n;c\n")

    @pytest.mark.parametrize("alphabet", [DNA, PROTEIN])
    def test_parse_peak_memory_per_symbol(self, alphabet):
        m = 200_000
        text = to_fasta(random_sequence(alphabet, m, np.random.default_rng(3), id="r"))
        _, _, peak = traced(parse_fasta, text, alphabet)
        assert peak <= 16 * m


def _case_stable_alphabet(size):
    """*size* symbols from U+4E00 up that upper-casing leaves as they are."""
    points = (p for p in range(0x4E00, 0x110000) if chr(p).upper() == chr(p))
    return Alphabet(tuple(chr(p) for _, p in zip(range(size), points)))


class TestCodesDtype:
    """Encoded codes take the narrowest unsigned dtype that holds every
    alphabet index: one byte per symbol up to T = 256."""

    @pytest.mark.parametrize("alphabet", [DNA, PROTEIN])
    def test_parsed_codes_are_one_byte(self, alphabet):
        text = to_fasta(random_sequence(alphabet, 1000, np.random.default_rng(8), id="r"))
        for given_alphabet in (alphabet, None):
            (seq,) = parse_fasta(text, given_alphabet)
            assert seq.codes.dtype == np.uint8
            assert seq.codes.tolist() == parse_fasta(text, alphabet)[0].codes.tolist()

    @pytest.mark.parametrize(
        "size, dtype",
        [(255, np.uint8), (256, np.uint8), (257, np.uint16), (65536, np.uint16), (65537, np.uint32)],
    )
    def test_narrowest_dtype_that_holds_every_index(self, size, dtype):
        alphabet = _case_stable_alphabet(size)
        text = "".join(reversed(alphabet.symbols))
        seq = sequence_from_string(text, alphabet)
        assert alphabet._lookup.dtype == dtype and seq.codes.dtype == dtype
        assert seq.codes.tolist() == list(range(size))[::-1]
        assert seq.as_string() == text

    @pytest.mark.parametrize("size", [255, 256, 257])
    def test_off_alphabet_characters_beside_the_last_symbol(self, size):
        # At T = 256 the last symbol's code is the value the table gives
        # every character off the symbols.
        alphabet = _case_stable_alphabet(size)
        last = alphabet.symbols[-1]
        assert sequence_from_string(last * 3, alphabet).codes.tolist() == [size - 1] * 3
        for stray in ("!", chr(ord(last) + 1), "\U0010ffff"):
            with pytest.raises(SequenceError) as exc:
                sequence_from_string(last + stray + last, alphabet, id="r")
            assert str(exc.value) == f"character {stray!r} at position 2 of record 'r' is not in alphabet {alphabet}"

    def test_random_sequence_keeps_its_int64_draw(self):
        # Drawing narrower codes would change numpy's random stream.
        assert random_sequence(DNA, 10, np.random.default_rng(0)).codes.dtype == np.int64


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

    def test_symbol_at_the_largest_code_point(self):
        alphabet = Alphabet(("A", "\U0010ffff"))
        assert sequence_from_string("A\U0010ffffA", alphabet).codes.tolist() == [0, 1, 0]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("ACZT", "character 'Z' at position 3 is not in alphabet ACGT"),  # above 'T'
            ("AC\U0001f600", "character '\U0001f600' at position 3 is not in alphabet ACGT"),
            ("AC!T", "character '!' at position 3 is not in alphabet ACGT"),  # below 'A'
        ],
    )
    def test_characters_outside_the_symbol_range(self, text, message):
        with pytest.raises(SequenceError) as exc:
            sequence_from_string(text, DNA)
        assert str(exc.value) == message

    def test_lone_surrogate_symbol(self):
        alphabet = Alphabet(("A", "\ud800"))
        assert sequence_from_string("\ud800Aa", alphabet).codes.tolist() == [1, 0, 0]
        with pytest.raises(SequenceError, match="at position 2"):
            sequence_from_string("A\udfff", alphabet)

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


@pytest.mark.parametrize("text, id, message", [
    # Regression: written as '>r\nA\n>\nC\n', which reads back as two records of m = 1.
    ("A>C", "r", "symbol '>' at position 2 of record 'r' does not read back from FASTA"),
    ("A;C", "r", "symbol ';' at position 2 of record 'r' does not read back from FASTA"),
    ("AC A", None, "symbol ' ' at position 3 does not read back from FASTA"),
    ("ACa", "r", "symbol 'a' at position 3 of record 'r' does not read back from FASTA"),
    ("\u00dfA", "r", "symbol '\u00df' at position 1 of record 'r' does not read back from FASTA"),
    ("AC", "", "record id '' does not read back from a FASTA header"),
    ("AC", " r", "record id ' r' does not read back from a FASTA header"),
    ("AC", "r\t", "record id 'r\\t' does not read back from a FASTA header"),
    ("AC", "a\nb", "record id 'a\\nb' does not read back from a FASTA header"),
    ("AC", "a\u2028b", "record id 'a\\u2028b' does not read back from a FASTA header"),
], ids=["gt", "semicolon", "space", "lower", "sharp-s", "empty-id", "leading-space-id", "trailing-tab-id",
        "newline-id", "line-separator-id"])
def test_to_fasta_refuses_what_does_not_read_back(text, id, message):
    alphabet = Alphabet(tuple(dict.fromkeys("AC" + text)))
    seq = SymbolicSequence(alphabet, [alphabet.index(c) for c in text], id=id)
    with pytest.raises(SequenceError) as exc:
        to_fasta(seq, width=1)
    assert str(exc.value) == message


def test_a_character_whose_upper_case_is_longer_is_refused():
    # Regression: 'ß' upper-cased to 'SS' and lengthened the sequence by one.
    message = "character '\u00df' at position {} of record 'r' upper-cases to 'SS', not one character"
    with pytest.raises(SequenceError) as exc:
        sequence_from_string("ACGT\u00dfACGT", Alphabet("ACGST"), id="r")
    assert str(exc.value) == message.format(5)
    with pytest.raises(SequenceError) as exc:
        parse_fasta(">r\nACG\nT\u00df AC\n")  # counted in the cleaned body, as the encoder counts
    assert str(exc.value) == message.format(5)


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
    code, _, err = run_main(["verify", "--rep", "helmert", f"--alphabet={alphabet}", "--input", str(path)])
    assert code == 2
    assert err == f"symspec: error: {path}: {message}\n"


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
    for dtype in (np.uint8, np.int8, np.uint16, np.int32, np.uint32, np.int64):
        codes = np.array([0, 1, 2, 3], dtype=dtype)
        codes.setflags(write=False)
        assert SymbolicSequence(DNA, codes).codes is codes
        writable = np.array([0, 1, 2, 3], dtype=dtype)
        seq = SymbolicSequence(DNA, writable)
        writable[0] = 3
        assert seq.codes[0] == 0 and not seq.codes.flags.writeable and seq.codes.dtype == dtype
    # numpy does not index with uint64; that and non-integer codes become int64.
    for codes in (np.array([0, 3], dtype=np.uint64), [0, 3], [0.0, 3.0]):
        assert SymbolicSequence(DNA, codes).codes.dtype == np.int64


def test_random_sequence_is_seed_deterministic():
    a = random_sequence(DNA, 50, np.random.default_rng(11))
    b = random_sequence(DNA, 50, np.random.default_rng(11))
    assert a == b
    assert a.m == 50


def test_random_sequence_draws_from_a_fresh_generator_and_refuses_length_0():
    assert random_sequence(DNA, 5).m == 5
    with pytest.raises(SequenceError, match="^empty sequence$"):
        random_sequence(DNA, 0)


def test_random_sequence_keeps_its_draw_uncopied():
    m = 1_000_000
    rng = np.random.default_rng(12)
    seq, _, peak = traced(random_sequence, DNA, m, rng)
    assert peak <= 8 * m + 64 * 1024
    assert not seq.codes.flags.writeable


def _encode_per_character(text, alphabet, id=None):
    """The original per-character encoder, kept as the reference: each
    character is folded to upper on its own, all before any is encoded."""
    where = f" of record {id!r}" if id else ""
    folded = []
    for pos, ch in enumerate(text):
        if len(ch.upper()) != 1:
            raise SequenceError(
                f"character {ch!r} at position {pos + 1}{where} upper-cases to {ch.upper()!r}, not one character"
            )
        folded.append(ch.upper())
    codes = []
    for pos, ch in enumerate(folded):
        if ch not in alphabet:
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
