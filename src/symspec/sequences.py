"""Symbolic sequences over explicit alphabets, with FASTA ingestion.

Sequences are stored as integer codes into an ordered alphabet. Ordering is
load-bearing: channel transforms bind to alphabet symbols, so inferred
alphabets are sorted to keep results reproducible across runs.

Input text is case-folded to upper before validation. Ambiguity codes such
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
    def _sorted_lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """Symbol code points in ascending order, and each one's alphabet index."""
        order = np.argsort(self._points)
        return self._points[order], order.astype(np.int64)

    @property
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
        codes = _read_only(self.codes, np.int64)
        if codes.ndim != 1:
            raise SequenceError("sequence codes must be 1-D")
        if codes.size == 0:
            raise SequenceError("empty sequence")
        if codes.min() < 0 or codes.max() >= self.alphabet.size:
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
    folded = text.upper()
    if not folded:
        raise SequenceError("empty sequence")
    # One uint32 per character (lone surrogates included), so array
    # positions are string positions.
    points = np.frombuffer(folded.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    sorted_points, sorted_codes = alphabet._sorted_lookup
    slots = np.searchsorted(sorted_points, points)
    np.minimum(slots, sorted_points.size - 1, out=slots)
    bad = sorted_points[slots] != points
    if bad.any():
        pos = int(np.argmax(bad))
        where = f" of record {id!r}" if id else ""
        raise SequenceError(
            f"character {folded[pos]!r} at position {pos + 1}{where} is not in alphabet {alphabet}"
        )
    codes = sorted_codes[slots]
    codes.setflags(write=False)  # a fresh array: the sequence keeps it, uncopied
    return SymbolicSequence(alphabet, codes, id=id)


def _records(text: str) -> list[tuple[str | None, str]]:
    """Split raw input into (id, body) pairs.

    A line whose first non-blank character is ';' is a comment and is
    skipped; one whose first non-blank character is '>' is a header. Input
    whose first non-blank line, after the comments, is a header is FASTA;
    anything else is a single headerless record.
    """
    lines = [line for line in map(str.strip, text.splitlines()) if not line.startswith(";")]
    if not next(filter(None, lines), "").startswith(">"):
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
                where = f" of record {rid!r}" if rid else ""
                raise SequenceError(
                    f"character {body[pos]!r} at position {pos + 1}{where} marks a "
                    "FASTA header or comment and is never inferred as a symbol"
                )
    return Alphabet(tuple(sorted(seen)))


def parse_fasta(text: str, alphabet: Alphabet | None = None) -> list[SymbolicSequence]:
    """Parse FASTA or headerless plain text into sequences.

    With ``alphabet=None`` the alphabet is inferred as the sorted set of
    distinct characters over all records, which must not include the
    markers '>' and ';'; otherwise every character must belong to the given
    alphabet. Whitespace and line wrapping inside record bodies are ignored
    and case is folded to upper. Lines whose first non-blank character is
    ';' are comments, in FASTA and in headerless input.
    """
    if not text.strip():
        raise SequenceError("no sequence records in input")
    cleaned: list[tuple[str | None, str]] = []
    for rid, raw in _records(text):
        body = "".join(raw.split()).upper()
        if not body:
            where = f" (record {rid!r})" if rid else ""
            raise SequenceError(f"empty sequence{where}")
        cleaned.append((rid, body))
    if alphabet is None:
        alphabet = _infer_alphabet(cleaned)
    return [sequence_from_string(body, alphabet, id=rid) for rid, body in cleaned]


def to_fasta(seqs: SymbolicSequence | Iterable[SymbolicSequence], width: int = 60) -> str:
    """Serialize sequences as FASTA. Re-parsing the output with the same
    alphabet reproduces the input sequences exactly."""
    if isinstance(seqs, SymbolicSequence):
        seqs = [seqs]
    lines: list[str] = []
    for seq in seqs:
        lines.append(">" + (seq.id or ""))
        s = seq.as_string()
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
    return SymbolicSequence(alphabet, rng.integers(0, alphabet.size, size=m), id=id)
