"""A fixed task that times how fast the host runs right now.

    python3 perfbench/reference_task.py M COUNT RENDER > /dev/null

It is a small copy, with numpy only and never symspec, of what a symspec
invocation does: in a fresh interpreter, COUNT times, it encodes a DNA text
of M symbols character by character, builds the indicator rows, takes their
power spectrum and, if RENDER is 1, writes one CSV line per bin. Its input
is fixed, so its run time changes only with the speed of the host. Each
workload names the M, COUNT and RENDER that make the task do its kind of
work. ``run.py`` times the task before and after each CLI invocation and
scales the invocation's wall time by the task's reference time over the
mean of those two.
"""
import sys

import numpy as np

CODE = {"A": 0, "C": 1, "G": 2, "T": 3}


def main(m: int, count: int, render: bool) -> None:
    rng = np.random.default_rng(7)
    for _ in range(count):
        text = np.frombuffer(b"ACGT", np.uint8)[rng.integers(0, 4, size=m)].tobytes().decode()
        codes = np.array([CODE[c] for c in text])
        rows = np.zeros((4, m))
        rows[codes, np.arange(m)] = 1.0
        power = (np.abs(np.fft.fft(rows, axis=1)) ** 2).sum(axis=0)
        if render:
            sys.stdout.write("".join(f"{k},{k / m!r},{p!r},{p / m!r}\n"
                                     for k, p in enumerate(power.tolist())))
        else:
            sys.stdout.write(f"{power.sum()!r}\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]), sys.argv[3] == "1")
