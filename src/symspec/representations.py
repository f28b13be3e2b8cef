"""Numerical representations of symbolic sequences.

Two families are provided:

* the indicator (base-vector) representation: one binary row per alphabet
  symbol, marking where that symbol occurs; and
* channel transforms of the indicator rows by a (T-1) x T matrix whose rows
  are mutually orthogonal, share a common norm d, and are orthogonal to the
  all-ones row. The all-ones row itself is a convention and never stored:
  its output channel is constantly 1 and carries no signal.

Built-in transforms:

* ``build_zcurve``      3 x 4, entries +-1, columns (A, C, G, T), d = 2.
  Channels split purine/pyrimidine, amino/keto, weak/strong hydrogen bond.
* ``build_tetrahedron`` 3 x 4, columns (A, T, C, G); maps the four
  nucleotides to tetrahedron vertices in 3-D, d = 2/sqrt(3).
* ``build_helmert``     (T-1) x T orthonormal rows for any T >= 2, d = 1.

For any matrix passing ``validate_row_orthogonal`` with norm d, the
normalized rows satisfy, column-wise,

    sum_l (m_lj / d)^2        = (T-1)/T
    sum_l (m_lj / d)(m_li / d) = -1/T      (i != j)

which is what makes every such transform's SNR profile a fixed T/(T-1)
multiple of the base representation's (see symspec.spectral).

Data model: every representation is a table gathered at the sequence's
codes. Position j holding symbol t contributes column t of the table, so
the signal is ``table[:, codes]``: the T x T identity for the indicator
rows, and the transform with its columns put in the alphabet's order for
the channels (each channel entry is the one nonzero term of the matrix-row
by indicator-column product). ``IndicatorMatrix`` and ``TransformedSignal``
store only that table and the codes, shared with the ``SymbolicSequence``
and never copied; ``rows`` and ``channels`` are gathered on demand, and the
spectral kernel gathers a few rows at a time, so no dense T x m array is
kept.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .sequences import Alphabet, SequenceError, SymbolicSequence, _fold, _read_only_codes

__all__ = [
    "MatrixError",
    "IndicatorMatrix",
    "RepresentationMatrix",
    "TransformedSignal",
    "build_indicators",
    "validate_row_orthogonal",
    "build_zcurve",
    "build_tetrahedron",
    "build_helmert",
    "alphabet_table",
    "apply_representation",
    "cumulative_coordinates",
    "matrix_to_dict",
    "matrix_from_dict",
    "save_matrix",
    "load_matrix",
    "ROW_DOT_ATOL",
    "ROW_NORM_RTOL",
    "COLUMN_IDENTITY_ATOL",
]

ROW_DOT_ATOL = 1e-12          # row-pair and row-vs-ones dot products of rows/d
ROW_NORM_RTOL = 1e-12         # spread of row norms around d
COLUMN_IDENTITY_ATOL = 1e-10  # column identities on the normalized matrix


class MatrixError(ValueError):
    """Candidate transform matrix violates the row-orthogonality contract."""


def _checked_codes(codes, size: int) -> np.ndarray:
    """*codes* as read-only integer codes into an alphabet of *size* symbols,
    kept in their own integer dtype (see ``sequences._read_only_codes``)."""
    codes = _read_only_codes(codes)
    if codes.ndim != 1 or codes.size < 1:
        raise MatrixError("codes must be a non-empty 1-D array")
    if np.minimum.reduce(codes) < 0 or np.maximum.reduce(codes) >= size:  # min(), max(), minus their wrappers
        raise MatrixError(f"codes must lie in 0..{size - 1}")
    return codes


def _trusted(cls, **fields):
    """An instance of the frozen dataclass *cls* that holds *fields* as they
    are, without running its ``__post_init__``: for values already checked."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)  # past the frozen __setattr__
    return obj


@lru_cache(maxsize=None)
def _identity(size: int) -> np.ndarray:
    """The *size* x *size* identity, read-only, as a view over 2*size - 1 floats.

    Row t is the window of *size* floats that starts t places before the
    one 1, so no dense T x T array is made (3.2 GB at T = 20 000). Built
    once per size: a new view costs about ten times ``np.eye(4)``.
    """
    line = np.zeros(2 * size - 1)
    line[size - 1] = 1.0
    return np.lib.stride_tricks.sliding_window_view(line, size)[::-1]


def _gather(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """``table[:, codes]``, read-only: one column per sequence position."""
    rows = np.take(table, codes, axis=1)
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True, repr=False)
class IndicatorMatrix:
    """T x m binary matrix; row t marks the positions of symbol t.

    Stored as the sequence's codes (shared, not copied); ``rows`` is the
    identity ``table`` gathered at the codes, derived on each access. Every
    column sums to exactly 1 (each position holds exactly one symbol), so
    the rows partition 0..m-1 into the per-symbol index sets. Build one
    with :func:`build_indicators`.
    """

    alphabet: Alphabet
    codes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "codes", _checked_codes(self.codes, self.alphabet.size))

    @property
    def m(self) -> int:
        return int(self.codes.size)

    @property
    def table(self) -> np.ndarray:
        """T x T identity, read-only: column t is the basic vector of symbol t."""
        return _identity(self.alphabet.size)

    @property
    def rows(self) -> np.ndarray:
        """The dense T x m indicator rows, gathered on each access."""
        return _gather(self.table, self.codes)

    @property
    def counts(self) -> np.ndarray:
        """Occurrences of each symbol (row sums); sums to m."""
        return np.bincount(self.codes, minlength=self.alphabet.size).astype(np.int64)

    def support(self, symbol: str) -> np.ndarray:
        """Positions where *symbol* occurs."""
        return np.flatnonzero(self.codes == self.alphabet.index(symbol))

    def __repr__(self) -> str:
        return f"IndicatorMatrix(alphabet={self.alphabet}, m={self.m})"


def build_indicators(seq: SymbolicSequence) -> IndicatorMatrix:
    """Indicator rows of *seq*: rows[t, j] = 1 iff seq[j] is symbol t.

    The result holds ``seq.codes`` itself, so building it copies nothing;
    the sequence has checked its codes, so they are not checked again.
    """
    return _trusted(IndicatorMatrix, alphabet=seq.alphabet, codes=seq.codes)


@dataclass(frozen=True, repr=False)
class RepresentationMatrix:
    """Validated (T-1) x T transform with common row norm d.

    ``alphabet_order`` names the symbol each column applies to; ``None``
    means the matrix binds positionally to the sequence's alphabet order.
    Construct through :func:`validate_row_orthogonal` or the builders.
    """

    name: str
    rows: np.ndarray
    d: float
    kind: str
    alphabet_order: tuple[str, ...] | None = None

    @property
    def size(self) -> int:
        """Alphabet size T (number of columns)."""
        return int(self.rows.shape[1])

    def __repr__(self) -> str:
        order = "".join(self.alphabet_order) if self.alphabet_order else None
        return (
            f"RepresentationMatrix(name={self.name!r}, shape={self.rows.shape}, "
            f"d={self.d:.6g}, kind={self.kind!r}, alphabet_order={order!r})"
        )


def validate_row_orthogonal(
    rows: Sequence[Sequence[float]] | np.ndarray,
    alphabet_order: Sequence[str] | None = None,
    name: str = "custom",
) -> RepresentationMatrix:
    """Check a candidate (T-1) x T matrix and return it as a RepresentationMatrix.

    Checks, in order: rows of numbers, all of one length; shape and
    finiteness; column symbols, when given, one distinct character each; a
    squared norm in float64's normal range for every nonzero row; pairwise
    row orthogonality; equal row norms (their common value becomes d);
    orthogonality of every row to the all-ones row; and the two column
    identities on rows/d. The row checks are relative to d (dot products
    within ROW_DOT_ATOL·d², row sums within ROW_DOT_ATOL·d), so they judge
    rows/d and, within that range, the verdict does not depend on the
    matrix's scale. Rows that pass them hold the column identities to about
    T·ROW_DOT_ATOL, so the last check is a cross-check.
    """
    try:
        M = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError):
        raise MatrixError("matrix must be rows of numbers, all of one length") from None
    except OverflowError:  # an int beyond float64's range
        raise MatrixError("matrix entries must be finite") from None
    if M.ndim != 2:
        raise MatrixError("matrix must be two-dimensional")
    n_rows, n_cols = M.shape
    if n_cols < 2 or n_rows != n_cols - 1:
        raise MatrixError(f"expected a (T-1) x T matrix with T >= 2, got shape {n_rows} x {n_cols}")
    if not np.all(np.isfinite(M)):
        raise MatrixError("matrix entries must be finite")
    if alphabet_order is not None:
        alphabet_order = tuple(alphabet_order)
        if len(alphabet_order) != n_cols:
            raise MatrixError(
                f"alphabet_order has {len(alphabet_order)} symbols for {n_cols} columns"
            )
        if not all(isinstance(s, str) and len(s) == 1 for s in alphabet_order):
            raise MatrixError("alphabet_order symbols must be single characters")
        if len(set(alphabet_order)) != len(alphabet_order):
            raise MatrixError("alphabet_order symbols are not distinct")

    # One T x T array at a time besides M: the row Gram, then the column Gram.
    with np.errstate(over="ignore"):  # an overflowing Gram is judged just below
        gram = M @ M.T
    sq_norms, fin = gram.diagonal().copy(), np.finfo(np.float64)
    if np.any(M.any(axis=1) & ~((sq_norms >= fin.tiny) & (sq_norms <= fin.max))):
        raise MatrixError(f"matrix scale out of range: its largest entry is {np.abs(M).max():.3g}, and each "
                          f"squared row norm must lie in float64's normal range [{fin.tiny:.3g}, {fin.max:.3g}]")
    norms = np.sqrt(sq_norms)
    d = float(norms.mean())
    np.fill_diagonal(gram, 0.0)
    if np.abs(gram, out=gram).max() > ROW_DOT_ATOL * d**2:
        raise MatrixError("rows not orthogonal")
    del gram

    if np.min(norms) <= 0.0:
        raise MatrixError("rows must be nonzero")
    if np.max(np.abs(norms - d)) > ROW_NORM_RTOL * d:
        raise MatrixError("row norms differ")

    row_sums = M.sum(axis=1)
    if np.max(np.abs(row_sums)) > ROW_DOT_ATOL * d:
        raise MatrixError("rows not orthogonal to constant row")

    # Column Gram of rows/d must equal I - J/T: its diagonal is the
    # per-column identity (T-1)/T, its off-diagonal the pair identity -1/T.
    col_gram = M.T @ M
    col_gram /= d**2
    col_gram += 1.0 / n_cols
    col_gram.flat[:: n_cols + 1] -= 1.0
    if np.abs(col_gram, out=col_gram).max() > COLUMN_IDENTITY_ATOL:
        raise MatrixError("column identity violated")

    kind = "orthonormal" if abs(d - 1.0) <= ROW_NORM_RTOL else "row-orthogonal"
    M.setflags(write=False)
    return RepresentationMatrix(name=name, rows=M, d=d, kind=kind, alphabet_order=alphabet_order)


def build_zcurve() -> RepresentationMatrix:
    """The 3-channel +-1 DNA transform over columns (A, C, G, T), d = 2.

    Channel 1 is +1 on purines (A, G), channel 2 on amino types (A, C),
    channel 3 on weak hydrogen bonds (A, T); -1 otherwise.
    """
    rows = [
        [1.0, -1.0, 1.0, -1.0],
        [1.0, 1.0, -1.0, -1.0],
        [1.0, -1.0, -1.0, 1.0],
    ]
    return validate_row_orthogonal(rows, alphabet_order=("A", "C", "G", "T"), name="zcurve")


def build_tetrahedron() -> RepresentationMatrix:
    """Tetrahedron-vertex DNA transform over columns (A, T, C, G)."""
    r2 = math.sqrt(2.0)
    r6 = math.sqrt(6.0)
    rows = [
        [0.0, 2.0 * r2 / 3.0, -r2 / 3.0, -r2 / 3.0],
        [0.0, 0.0, r6 / 3.0, -r6 / 3.0],
        [1.0, -1.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0],
    ]
    return validate_row_orthogonal(rows, alphabet_order=("A", "T", "C", "G"), name="tetrahedron")


def build_helmert(size: int, symbols: Sequence[str] | None = None) -> RepresentationMatrix:
    """Orthonormal Helmert rows for an alphabet of the given size.

    Row l (1-based) is (1, ..., 1, -l, 0, ..., 0) / sqrt(l (l+1)) with l
    leading ones, giving d = 1 for every size >= 2. Pass *symbols* to bind
    columns to specific alphabet symbols; otherwise the matrix binds
    positionally at apply time.
    """
    if size < 2:
        raise MatrixError("helmert matrix needs an alphabet size of at least 2")
    rows = np.zeros((size - 1, size), dtype=np.float64)
    for l in range(1, size):
        scale = 1.0 / math.sqrt(l * (l + 1.0))
        rows[l - 1, :l] = scale
        rows[l - 1, l] = -l * scale
    return validate_row_orthogonal(rows, alphabet_order=symbols, name="helmert")


def _check_table(table: np.ndarray, size: int) -> None:
    """Refuse *table* unless it is a (T-1) x T transform table for T = *size* >= 2 symbols."""
    if size < 2 or table.shape != (size - 1, size):
        raise MatrixError(f"transform table must be (T-1) x T with T >= 2; got shape {table.shape} for T = {size}")


def _signal_table(table) -> np.ndarray:
    """*table* as a read-only float64 (T-1) x T transform table, a -0.0 entry read as 0.0."""
    table = np.array(table, dtype=np.float64) + 0.0  # -0.0 -> 0.0
    _check_table(table, table.shape[-1] if table.ndim else 0)
    table.setflags(write=False)
    return table


@dataclass(frozen=True, repr=False)
class TransformedSignal:
    """T-1 real channels of length m produced by apply_representation.

    Stored as ``table``, the (T-1) x T transform with its columns in the
    alphabet's order, and the sequence's ``codes``: channel l at position j
    is ``table[l, codes[j]]``, and ``channels`` gathers them on each access.
    The table is normalised once, on construction, so that a -0.0 entry
    reads as 0.0.
    """

    table: np.ndarray
    codes: np.ndarray
    name: str
    d: float

    def __post_init__(self):
        object.__setattr__(self, "table", _signal_table(self.table))
        object.__setattr__(self, "codes", _checked_codes(self.codes, self.table.shape[1]))

    @property
    def m(self) -> int:
        return int(self.codes.size)

    @property
    def n_channels(self) -> int:
        return int(self.table.shape[0])

    @property
    def size(self) -> int:
        """Alphabet size T (the table's column count)."""
        return int(self.table.shape[1])

    @property
    def channels(self) -> np.ndarray:
        """The dense (T-1) x m channels, gathered on each access."""
        return _gather(self.table, self.codes)

    def __repr__(self) -> str:
        return f"TransformedSignal(name={self.name!r}, channels={self.n_channels}, m={self.m})"


def alphabet_table(rep: RepresentationMatrix, alphabet: Alphabet) -> np.ndarray:
    """*rep*'s rows with their columns put in *alphabet*'s order.

    Columns are matched to symbols by the matrix's alphabet order when it
    has one, positionally otherwise. Column t of the result is the channel
    vector of the alphabet's symbol t, so a sequence's channels are the
    result gathered at its codes.
    """
    T = alphabet.size
    if rep.size != T:
        raise MatrixError(f"matrix {rep.name!r} has {rep.size} columns but the alphabet {alphabet} has {T} symbols")
    if rep.alphabet_order is None:
        return rep.rows
    for s in rep.alphabet_order:
        if s not in alphabet:
            raise MatrixError(f"matrix {rep.name!r} column symbol {s!r} is missing from alphabet {alphabet}")
    table = np.empty_like(rep.rows)
    table[:, [alphabet.index(s) for s in rep.alphabet_order]] = rep.rows
    return table


def apply_representation(ind: IndicatorMatrix, rep: RepresentationMatrix) -> TransformedSignal:
    """Transform indicator rows into T-1 channels.

    Every output entry is the dot product of a matrix row with one indicator
    column, which has a single nonzero term: the matrix entry in that
    position's symbol column. So the result is the matrix with its columns
    put in the alphabet's order (``alphabet_table``), together with the
    indicators' codes, which are not checked again; no channel is computed
    here.
    """
    table = _signal_table(alphabet_table(rep, ind.alphabet))
    return _trusted(TransformedSignal, table=table, codes=ind.codes, name=rep.name, d=rep.d)


def cumulative_coordinates(sig: TransformedSignal) -> np.ndarray:
    """Running sums of each channel; for the zcurve these are the classic
    per-position count-difference curves (e.g. f_A + f_G - f_C - f_T)."""
    return np.cumsum(sig.channels, axis=1)


def matrix_to_dict(rep: RepresentationMatrix) -> dict:
    return {
        "name": rep.name,
        "alphabet_order": list(rep.alphabet_order) if rep.alphabet_order else None,
        "rows": [[float(v) for v in row] for row in rep.rows],
        "d": float(rep.d),
    }


def _is_number(value) -> bool:
    """A JSON number as json.loads reads it: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def matrix_from_dict(obj: dict) -> RepresentationMatrix:
    """Rebuild and re-validate a matrix from its JSON dict form.

    Every cell of ``rows`` and ``d`` must be a number: a string such as
    ``"1"`` or a boolean is refused, not read as one.
    """
    if not isinstance(obj, dict):
        raise MatrixError("matrix JSON must be an object")
    rows, declared_d = obj.get("rows"), obj.get("d")
    try:
        declared_d = float(declared_d) if "rows" in obj and _is_number(declared_d) else None
    except OverflowError:  # an int beyond float64's range
        declared_d = None
    if declared_d is None:
        raise MatrixError("matrix JSON needs 'rows' and a numeric 'd'")
    if not (isinstance(rows, list) and all(isinstance(row, list) and all(map(_is_number, row)) for row in rows)):
        raise MatrixError("matrix must be rows of numbers, all of one length")
    order = obj.get("alphabet_order")
    if order:
        try:
            order = tuple(order)
        except TypeError:
            raise MatrixError("'alphabet_order' must be a list of symbols") from None
        if all(isinstance(s, str) and len(s) == 1 for s in order):  # else refused as not single characters
            # Sequences are case-folded to upper, so the column symbols are too, by the same rule.
            try:
                order = tuple(_fold("".join(order), " of alphabet_order"))
            except SequenceError as exc:
                raise MatrixError(str(exc)) from None
    rep = validate_row_orthogonal(
        rows,
        alphabet_order=order or None,
        name=str(obj.get("name", "file")),
    )
    if abs(rep.d - declared_d) > 1e-12 * max(abs(rep.d), 1.0):
        raise MatrixError(f"declared row norm d={declared_d!r} does not match measured {rep.d!r}")
    return rep


def save_matrix(rep: RepresentationMatrix, path: str | Path) -> None:
    Path(path).write_text(json.dumps(matrix_to_dict(rep), indent=2) + "\n", encoding="utf-8")


def load_matrix(path: str | Path) -> RepresentationMatrix:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MatrixError(f"{path}: not valid JSON ({exc})") from None
    return matrix_from_dict(obj)
