"""The profile renderers' float kernel against CPython: each row of
``_floatfmt.reprs`` holds its value's ``float.__repr__`` (or, for JSON,
``json.dumps``) bytes, padded with PAD to the matrix's width."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symspec import _floatfmt

PAD = bytes([_floatfmt.PAD])


def spellings(values, for_json=False) -> list[str]:
    return [json.dumps(v) if for_json else float.__repr__(v) for v in np.asarray(values, dtype=np.float64).tolist()]


def mismatches(values, for_json=False) -> list[tuple[float, bytes, str]]:
    """(value, row, spelling) for each value whose row is not its spelling padded to the matrix's width."""
    want = spellings(values, for_json)
    width = max(map(len, want), default=0)
    rows = _floatfmt.reprs(values, for_json)
    assert rows.shape == (len(want), width) and rows.dtype == np.uint8
    if rows.tobytes() == b"".join(w.encode().ljust(width, PAD) for w in want):
        return []
    return [(v, row.tobytes(), w) for v, row, w in zip(np.asarray(values).tolist(), rows, want)
            if row.tobytes() != w.encode().ljust(width, PAD)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), max_size=40))
def test_each_row_is_repr_or_json_dumps(values):
    """Any floats, NaN, the infinities, both zeros and subnormals included."""
    assert mismatches(values) == []
    assert mismatches(values, for_json=True) == []


def _sweep() -> dict[str, np.ndarray]:
    """The seeded sweep, under a second of tier-1 in all; ``tools/repr_sweep.py`` runs the long one."""
    rng = np.random.default_rng(20260)
    powers_of_ten = np.array([float(f"1e{e}") for e in range(-323, 309)])
    integers = np.arange(-3000, 3000, dtype=np.int64)
    return {
        "random bit patterns": rng.integers(0, 2**64, 40_000, dtype=np.uint64).view(np.float64),
        "powers of two": np.ldexp(1.0, np.arange(-1074, 1024)),
        # Each power of ten and the floats on either side.
        "powers of ten": np.concatenate([powers_of_ten, np.nextafter(powers_of_ten, 0),
                                         np.nextafter(powers_of_ten, np.inf)]),
        "integers near 2^53 and 2^60": np.concatenate([2.0**53 + integers, 2.0**60 + 256.0 * integers]),
        # odd * 2^-20: v 10^19 is half an odd integer, so where the digits end at 10^-19, s and s + 1
        # tie (1792 of these 8192 values, half of them with s even).
        "ties": np.arange(1, 2**14, 2) * 2.0**-20,
        # Fixed up to 1e16 and from 1e-4 on, exponent notation past them.
        "notation switches": np.concatenate([np.nextafter(1e16, 0) - np.arange(64), 1e16 + 2 * np.arange(64),
                                             1e-4 * (1 + np.arange(-64, 64) * 2.0**-52), [9.999999999999999e15]]),
        "k/m at a prime m": np.arange(1, 20_011) / 20_011,
        "subnormals": np.arange(1, 5000, dtype=np.int64).view(np.float64),
    }


@pytest.mark.parametrize("name", list(_sweep()))
def test_seeded_sweep(name):
    values = _sweep()[name]
    values = np.concatenate([values, -values])
    assert mismatches(values) == []
    assert mismatches(values, for_json=True) == []


@pytest.mark.parametrize("values", [[], [0], [7], [10, 9, 100], [1, 2**53, 10**17, 10**18 - 1]])
def test_ints_are_str(values):
    rows = _floatfmt.ints(np.array(values, dtype=np.uint64))
    width = max((len(str(v)) for v in values), default=0)
    assert rows.shape == (len(values), width)
    assert [row.tobytes() for row in rows] == [str(v).encode().ljust(width, PAD) for v in values]
