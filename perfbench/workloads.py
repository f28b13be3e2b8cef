"""Workload definitions: the inputs each workload generates and the CLI
invocations it runs on them.

Every input comes from the benchmark seed alone, so the same seed gives the
same files (their digests are recorded with each result). The program only
ever sees the generated files or the verify arguments.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DNA = "ACGT"
PROTEIN = "ACDEFGHIKLMNPQRSTVWY"
PERIOD = 3  # the CLI's default --period; every summary check looks at this bin
VERIFY_M_RANGE = (1, 2000)  # m range of `verify --random`, part of its documented output

WORKLOADS = {
    "scan": "large analyze/compare runs: spectra, identity re-checks and parsing dominate, render is tiny",
    "export": "per-bin CSV/JSON profiles at m = 2e5: rendering dominates, the bypass case for spectral work",
    "verify_corpus": "hundreds of tiny sequences through verify --random: per-call overhead and thousands of tiny FFTs",
}


@dataclass(frozen=True)
class ReferenceTask:
    """How ``reference_task.py`` does a workload's kind of work.

    ``seconds`` is the task's median time on the reference machine (a 2-vCPU
    Intel Xeon at 2.0 GHz); end-to-end times are scaled to that speed.
    """

    m: int
    count: int
    render: bool
    seconds: float

    @property
    def argv(self) -> tuple[str, ...]:
        return (str(self.m), str(self.count), "1" if self.render else "0")


# scan: large FFTs over big arrays; export: per-bin CSV lines written by
# Python; verify_corpus: hundreds of tiny FFTs.
REFERENCE_TASKS = {
    "scan": ReferenceTask(400_000, 1, False, 0.28),
    "export": ReferenceTask(50_000, 1, True, 0.34),
    "verify_corpus": ReferenceTask(1_000, 300, False, 0.23),
}


@dataclass(frozen=True)
class Input:
    """A generated single-record FASTA file and what the checks need to know of it."""

    path: Path
    alphabet: str
    codes: np.ndarray  # uint8 codes into ``alphabet``
    digest: str

    @property
    def m(self) -> int:
        return int(self.codes.size)

    @property
    def counts(self) -> np.ndarray:
        return np.bincount(self.codes, minlength=len(self.alphabet)).astype(np.int64)


@dataclass(frozen=True)
class Invocation:
    """One `python -m symspec ...` call of a workload cycle.

    ``needed_spectra`` is how many distinct spectra the command needs: one
    per representation named, plus the base spectrum that every identity
    check compares against. A ``verify --random`` invocation has
    ``alphabet_size`` and ``count`` in place of an input file.
    """

    label: str
    argv: tuple[str, ...]
    reps: tuple[str, ...]
    needed_spectra: int
    input: Input | None = None
    alphabet_size: int | None = None
    count: int | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def output_format(self) -> str:
        return self.argv[self.argv.index("--format") + 1]


def write_fasta(path: Path, alphabet: str, m: int, rng: np.random.Generator) -> Input:
    """Write a uniform random sequence as one FASTA record wrapped at 60 columns."""
    codes = rng.integers(0, len(alphabet), size=m).astype(np.uint8)
    body = np.frombuffer(alphabet.encode("ascii"), dtype=np.uint8)[codes].tobytes()
    lines = [f">bench-{len(alphabet)}-{m}".encode("ascii")]
    lines.extend(body[i : i + 60] for i in range(0, m, 60))
    data = b"\n".join(lines) + b"\n"
    path.write_bytes(data)
    return Input(path, alphabet, codes, hashlib.sha256(data).hexdigest())


def analysis(label, command, inp, reps, fmt) -> Invocation:
    argv = [command, "--input", str(inp.path)]
    for rep in reps:
        argv += ["--rep", rep]
    argv += ["--format", fmt]
    needed = len(set(reps) | {"base"}) if command != "spectrum" else 1
    return Invocation(label, tuple(argv), tuple(reps), needed, input=inp)


def verify(label, count, seed, size, reps) -> Invocation:
    argv = ("verify", "--random", str(count), "--seed", str(seed),
            "--alphabet-size", str(size), "--format", "json")
    return Invocation(label, argv, reps, count * (1 + len(reps)),
                      alphabet_size=size, count=count)


def build(workload: str, seed: int, workdir: Path) -> list[Invocation]:
    """Generate the workload's inputs under *workdir*; return one cycle of invocations."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    if workload == "scan":
        dna = write_fasta(workdir / "scan-dna.fa", DNA, 1_000_000, rng)
        prot = write_fasta(workdir / "scan-protein.fa", PROTEIN, 500_000, rng)
        return [
            analysis("analyze-dna-json", "analyze", dna, ("base", "zcurve", "tetrahedron"), "json"),
            analysis("compare-protein-json", "compare", prot, ("base", "helmert"), "json"),
        ]
    if workload == "export":
        dna = write_fasta(workdir / "export-dna.fa", DNA, 200_000, rng)
        return [
            analysis("spectrum-dna-csv", "spectrum", dna, ("base",), "csv"),
            analysis("spectrum-dna-zcurve-json", "spectrum", dna, ("zcurve",), "json"),
            analysis("analyze-dna-csv", "analyze", dna, ("base", "helmert"), "csv"),
        ]
    if workload == "verify_corpus":
        s4, s20 = (int(s) for s in rng.integers(0, 2**31 - 1, size=2))
        return [
            verify("verify-dna-random", 300, s4, 4, ("zcurve", "tetrahedron", "helmert")),
            verify("verify-protein-random", 300, s20, 20, ("helmert",)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def input_digests(invocations: list[Invocation]) -> dict[str, str]:
    """sha256 of every generated file, or of the argument list for a random corpus."""
    out = {}
    for inv in invocations:
        if inv.input is not None:
            out[inv.input.path.name] = inv.input.digest
        else:
            out[inv.label] = hashlib.sha256(" ".join(inv.argv).encode()).hexdigest()
    return out
