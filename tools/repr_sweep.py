"""Compare symspec's float kernel with ``float.__repr__`` over random bit patterns.

Draws N seeded random 64-bit patterns, read as float64 (NaN, the
infinities, zeros and subnormals included, as they fall), spells each with
``symspec._floatfmt.reprs`` and with ``float.__repr__``, and prints the
number of values whose spellings differ, then up to five of them. Exits 1
on any mismatch. Run from the repository root:

    python tools/repr_sweep.py                 # N = 10^6, seed 0
    python tools/repr_sweep.py 100000000 --seed 7

Needs only the standard library and numpy; it imports the package from
``src/`` beside this script.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from symspec._floatfmt import PAD, reprs  # noqa: E402

_CHUNK = 1 << 20  # values spelled and compared at a time


def mismatches(values: np.ndarray) -> list[tuple[float, str, str]]:
    """(value, kernel's spelling, repr) for each value whose spellings differ."""
    want = list(map(float.__repr__, values.tolist()))
    rows = reprs(values)
    got = np.concatenate([rows, np.full((len(rows), 1), ord("\n"), dtype=np.uint8)], axis=1)
    if got.tobytes().translate(None, bytes([PAD])).decode("ascii") == "\n".join(want) + "\n":
        return []
    spelt = [row.tobytes().translate(None, bytes([PAD])).decode("ascii") for row in rows]
    return [(v, s, w) for v, s, w in zip(values.tolist(), spelt, want) if s != w]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int, nargs="?", default=10**6, help="number of bit patterns (default 10^6)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the bit patterns (default 0)")
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    found = []
    count = 0
    for start in range(0, args.n, _CHUNK):
        size = min(_CHUNK, args.n - start)
        bad = mismatches(rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64))
        count += len(bad)
        found.extend(bad[: 5 - len(found)])
    print(f"{count} mismatches in {args.n} values (seed {args.seed})")
    for value, spelt, want in found:
        print(f"  {value.hex()}: kernel {spelt!r}, repr {want!r}")
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
