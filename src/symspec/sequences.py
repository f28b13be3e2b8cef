"""Symbolic sequences over explicit alphabets, with FASTA ingestion.

Sequences are stored as integer codes into an ordered alphabet. Ordering is
load-bearing: channel transforms bind to alphabet symbols, so inferred
alphabets are sorted to keep results reproducible across runs. Encoded
text gets codes of the narrowest unsigned dtype that holds the alphabet's
indices: one byte per symbol for up to 256 symbols.

Input text is case-folded to upper before validation; a character whose
upper case is more than one character is refused. Ambiguity codes such
as 'N' or '-' get no special treatment: they are ordinary symbols when the
alphabet contains them and errors otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from string import ascii_uppercase, digits
from typing import Iterable

import numpy as np

__all__ = [
    "SequenceError",
    "Alphabet",
    "SymbolicSequence",
    "DNA",
    "PROTEIN",
    "default_alphabet",
    "parse_fasta",
    "sequence_from_string",
    "to_fasta",
    "random_sequence",
]


class SequenceError(ValueError):
    """Malformed sequence input or alphabet violation."""


def _read_only(values, dtype) -> np.ndarray:
    """*values* as a read-only array of *dtype*.

    A read-only array of that dtype is kept as it is, so objects built from
    one another share its buffer (a sequence's codes and its indicators'
    codes are one array); anything else is copied first, so that no caller
    can write to the stored array afterwards.
    """
    arr = np.asarray(values)
    if arr.dtype != dtype or arr.flags.writeable:
        arr = np.array(arr, dtype=dtype)
        arr.setflags(write=False)
    return arr


def _read_only_codes(values) -> np.ndarray:
    """*values* as read-only integer codes, kept in their own integer dtype.

    Integer arrays that numpy can index with (every integer dtype but
    uint64) keep their dtype, so one-byte codes stay one byte; anything
    else is cast to int64.
    """
    arr = np.asarray(values)
    keep = arr.dtype.kind in "iu" and np.can_cast(arr.dtype, np.intp)
    return _read_only(arr, arr.dtype if keep else np.int64)


@dataclass(frozen=True)
class Alphabet:
    """Ordered collection of distinct single-character symbols.

    Accepts any iterable of characters, including a plain string:
    ``Alphabet("ACGT")``. Symbol order is preserved and meaningful.
    """

    symbols: tuple[str, ...]

    def __post_init__(self):
        symbols = tuple(self.symbols)
        object.__setattr__(self, "symbols", symbols)
        if any(not isinstance(s, str) or len(s) != 1 for s in symbols):
            raise SequenceError("alphabet symbols must be single characters")
        if len(set(symbols)) != len(symbols):
            raise SequenceError(f"alphabet symbols {''.join(symbols)!r} are not distinct")
        if len(symbols) < 2:
            raise SequenceError("alphabet needs at least 2 symbols")

    @cached_property
    def _index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.symbols)}

    @cached_property
    def _points(self) -> np.ndarray:
        """Code point of each symbol, in alphabet order."""
        points = np.array([ord(s) for s in self.symbols], dtype=np.uint32)
        points.setflags(write=False)
        return points

    @cached_property
    def _lookup(self) -> np.ndarray:
        """Alphabet index by code point, in the narrowest unsigned dtype that
        holds every index (uint8 up to 256 symbols).

        Code points off the symbols, and one slot past the largest symbol's,
        hold the dtype's largest value. In an alphabet that fills the dtype
        (T = 256 or 65536) that is also the last symbol's index, so there
        the encoder compares code points before it reports an error.
        """
        dtype = np.min_scalar_type(self.size - 1)
        lookup = np.full(int(self._points.max()) + 2, np.iinfo(dtype).max, dtype=dtype)
        lookup[self._points] = np.arange(self.size)
        lookup.setflags(write=False)
        return lookup

    @cached_property
    def size(self) -> int:
        return len(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def __str__(self) -> str:
        return "".join(self.symbols)

    def index(self, symbol: str) -> int:
        """0-based position of *symbol*; raises SequenceError if absent."""
        try:
            return self._index[symbol]
        except KeyError:
            raise SequenceError(f"symbol {symbol!r} is not in alphabet {self}") from None


DNA = Alphabet(tuple("ACGT"))
PROTEIN = Alphabet(tuple("ACDEFGHIKLMNPQRSTVWY"))

# Lowercase is deliberately absent: inputs are folded to upper first.
_SYMBOL_POOL = ascii_uppercase + digits


def default_alphabet(size: int) -> Alphabet:
    """Conventional alphabet of a given size: 4 is DNA, 20 is amino acids,
    anything else draws from an A-Z0-9 pool (size capped at 36)."""
    if size == 4:
        return DNA
    if size == 20:
        return PROTEIN
    if not 2 <= size <= len(_SYMBOL_POOL):
        raise SequenceError(f"no default alphabet of size {size} (supported: 2..{len(_SYMBOL_POOL)})")
    return Alphabet(tuple(_SYMBOL_POOL[:size]))


@dataclass(frozen=True, eq=False, repr=False)
class SymbolicSequence:
    """Length-m sequence of alphabet codes, optionally carrying a record id."""

    alphabet: Alphabet
    codes: np.ndarray
    id: str | None = None

    def __post_init__(self):
        codes = _read_only_codes(self.codes)
        if codes.ndim != 1:
            raise SequenceError("sequence codes must be 1-D")
        if codes.size == 0:
            raise SequenceError("empty sequence")
        # min() and max(), without their Python wrappers
        if np.minimum.reduce(codes) < 0 or np.maximum.reduce(codes) >= self.alphabet.size:
            raise SequenceError("sequence codes fall outside the alphabet range")
        object.__setattr__(self, "codes", codes)

    @property
    def m(self) -> int:
        return int(self.codes.size)

    def __len__(self) -> int:
        return self.m

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymbolicSequence)
            and self.alphabet == other.alphabet
            and self.id == other.id
            and np.array_equal(self.codes, other.codes)
        )

    def __repr__(self) -> str:
        return f"SymbolicSequence(id={self.id!r}, m={self.m}, alphabet={self.alphabet})"

    def as_string(self) -> str:
        """The symbols as text: one code-point lookup and one UTF-32 decode."""
        points = self.alphabet._points[self.codes]
        return points.tobytes().decode("utf-32-le", "surrogatepass")


def sequence_from_string(text: str, alphabet: Alphabet, id: str | None = None) -> SymbolicSequence:
    """Validate *text* against *alphabet* (after upper-casing) and encode it.

    Positions in error messages are 1-based within the cleaned record body.
    """
    if not text:
        raise SequenceError("empty sequence")
    return _encode(_fold(text, _of_record(id)), alphabet, id)


def _of_record(id: str | None) -> str:
    """Where a position lies, as error messages put it after the position."""
    return f" of record {id!r}" if id else ""


def _fold(text: str, where: str) -> str:
    """*text* upper-cased, one character for one character: the one case
    rule for sequence text, --alphabet and matrix column symbols.

    A character whose upper case is longer (``'ß'`` is ``'SS'``) would
    lengthen the text, so it is refused, named as written, *where* saying
    what its position is in. Upper-casing never shortens text, so one
    length comparison tells.
    """
    folded = text.upper()
    if len(folded) != len(text):
        pos = next(i for i, ch in enumerate(text) if len(ch.upper()) != 1)
        raise SequenceError(
            f"character {text[pos]!r} at position {pos + 1}{where} upper-cases to "
            f"{text[pos].upper()!r}, not one character"
        )
    return folded


def _encode(folded: str, alphabet: Alphabet, id: str | None) -> SymbolicSequence:
    """Encode non-empty upper-cased text through ``alphabet._lookup``: one gather."""
    lookup = alphabet._lookup
    # The kept codes are allocated before the transients below, so that
    # these are freed at the top of the heap, not into a hole under the
    # codes that the FFT layer's blocks do not fit (at m = 1e6 that hole
    # cost analyze 3.8 MiB of peak RSS).
    codes = np.empty(len(folded), dtype=lookup.dtype)
    # One uint32 per character (lone surrogates included), so array
    # positions are string positions; clamped and widened to intp in one
    # pass, so that the gather makes no index copy of its own. The indices
    # are in range, and mode="clip" writes into `out` without a buffer.
    points = np.frombuffer(folded.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    np.take(lookup, np.minimum(points, lookup.size - 1, dtype=np.intp), out=codes, mode="clip")
    off = lookup[-1]  # the code of every character off the symbols
    if codes.max() == off:
        bad = codes == off
        if off == alphabet.size - 1:  # also the last symbol's code, in a full dtype
            bad &= points != alphabet._points[off]
        if bad.any():
            pos = int(np.argmax(bad))
            raise SequenceError(
                f"character {folded[pos]!r} at position {pos + 1}{_of_record(id)} is not in alphabet {alphabet}"
            )
    codes.setflags(write=False)  # a fresh array: the sequence keeps it, uncopied
    return SymbolicSequence(alphabet, codes, id=id)


def _records(text: str) -> list[tuple[str | None, str]]:
    """Split raw input into (id, body) pairs.

    Blank lines and comments (first non-blank character ';') are dropped;
    input with nothing left has no records. A line whose first non-blank
    character is '>' is a header. Input whose first remaining line is a
    header is FASTA; anything else is a single headerless record.
    """
    lines = [line for line in map(str.strip, text.splitlines()) if line and line[0] != ";"]
    if not lines:
        raise SequenceError("no sequence records in input")
    if not lines[0].startswith(">"):
        return [(None, "\n".join(lines))]
    records: list[tuple[str | None, list[str]]] = []
    for line in lines:
        if line.startswith(">"):
            records.append((line[1:].strip() or None, []))
        elif records:
            records[-1][1].append(line)
    return [(rid, "".join(body)) for rid, body in records]


# Characters that mark FASTA headers and comments; never inferred as symbols.
_MARKERS = ">;"


def _infer_alphabet(records: list[tuple[str | None, str]]) -> Alphabet:
    """The sorted set of characters in the cleaned record bodies.

    A marker character in a body is an error that names its first
    occurrence (1-based within the cleaned body, as the encoder counts).
    """
    seen = set().union(*(set(body) for _, body in records))
    if not seen.isdisjoint(_MARKERS):
        for rid, body in records:
            hits = [pos for pos in map(body.find, _MARKERS) if pos >= 0]
            if hits:
                pos = min(hits)
                raise SequenceError(
                    f"character {body[pos]!r} at position {pos + 1}{_of_record(rid)} marks a "
                    "FASTA header or comment and is never inferred as a symbol"
                )
    return Alphabet(tuple(sorted(seen)))


def parse_fasta(text: str, alphabet: Alphabet | None = None) -> list[SymbolicSequence]:
    """Parse FASTA or headerless plain text into sequences.

    With ``alphabet=None`` the alphabet is inferred as the sorted set of
    distinct characters over all records, which must not include the
    markers '>' and ';'; otherwise every character must belong to the given
    alphabet. Whitespace and line wrapping inside record bodies are ignored
    and case is folded to upper, once per record. Lines whose first
    non-blank character is ';' are comments, in FASTA and in headerless input.
    """
    cleaned: list[tuple[str | None, str]] = []
    for rid, raw in _records(text):
        body = "".join(raw.split())
        if not body:
            where = f" (record {rid!r})" if rid else ""
            raise SequenceError(f"empty sequence{where}")
        cleaned.append((rid, _fold(body, _of_record(rid))))
    if alphabet is None:
        alphabet = _infer_alphabet(cleaned)
    return [_encode(body, alphabet, rid) for rid, body in cleaned]


def to_fasta(seqs: SymbolicSequence | Iterable[SymbolicSequence], width: int = 60) -> str:
    """Serialize sequences as FASTA. Re-parsing the output with the same
    alphabet reproduces the input sequences exactly.

    What would not read back is refused: an id that is empty, has leading
    or trailing whitespace or holds a line break, and a symbol in the
    sequence that is whitespace, '>' or ';', or that upper-casing changes.
    """
    if isinstance(seqs, SymbolicSequence):
        seqs = [seqs]
    lines: list[str] = []
    for seq in seqs:
        if seq.id is not None and seq.id.splitlines() != [seq.id.strip()]:  # _records reads one stripped line
            raise SequenceError(f"record id {seq.id!r} does not read back from a FASTA header")
        s = seq.as_string()
        unreadable = [c for c in seq.alphabet if c.isspace() or c in _MARKERS or c.upper() != c]
        hits = [pos for pos in map(s.find, unreadable) if pos >= 0]
        if hits:
            pos = min(hits)
            raise SequenceError(
                f"symbol {s[pos]!r} at position {pos + 1}{_of_record(seq.id)} does not read back from FASTA"
            )
        lines.append(">" + (seq.id or ""))
        lines.extend(s[i : i + width] for i in range(0, len(s), width))
    return "\n".join(lines) + "\n"


def random_sequence(
    alphabet: Alphabet,
    m: int,
    rng: np.random.Generator | None = None,
    id: str | None = None,
) -> SymbolicSequence:
    """Uniform random sequence of length *m* over *alphabet*."""
    if m < 1:
        raise SequenceError("empty sequence")
    if rng is None:
        rng = np.random.default_rng()
    codes = rng.integers(0, alphabet.size, size=m)
    codes.setflags(write=False)  # a fresh array: the sequence keeps it, uncopied
    return SymbolicSequence(alphabet, codes, id=id)
