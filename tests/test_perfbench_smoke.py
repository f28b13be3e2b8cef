"""Smoke test of the benchmark harness in perfbench/.

One tiny cycle runs traced, in-process through ``cli.main`` with the layer
functions wrapped, and one runs end to end, each invocation a fresh
``python -m symspec``. Every output goes through perfbench's own checks, so
a change to the package that breaks the tracer's hooks, or output the
benchmark reads, fails here as well as in ``perfbench/tests``.
"""
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402

# A reference task of a few milliseconds; its timings only scale the figures.
TINY_REFERENCE = workloads.ReferenceTask(1_000, 1, False, 0.01)


@pytest.fixture
def invocations(tmp_path, monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # as run.main sets for its children
    rng = np.random.default_rng(600)
    dna = workloads.write_fasta(tmp_path / "dna.fa", workloads.DNA, 600, rng)
    protein = workloads.write_fasta(tmp_path / "protein.fa", workloads.PROTEIN, 601, rng)
    # perfbench checks compare's JSON only: its csv branch reads per-bin profiles.
    return [
        workloads.analysis("analyze-json", "analyze", dna, ("base", "zcurve", "tetrahedron"), "json"),
        workloads.analysis("analyze-csv", "analyze", protein, ("base", "helmert"), "csv"),
        workloads.analysis("compare-json", "compare", protein, ("base", "helmert"), "json"),
        workloads.analysis("spectrum-json", "spectrum", dna, ("zcurve",), "json"),
        workloads.analysis("spectrum-csv", "spectrum", protein, ("base",), "csv"),
        workloads.verify("verify-dna", 5, 1, 4, ("zcurve", "tetrahedron", "helmert")),
        workloads.verify("verify-protein", 5, 2, 20, ("helmert",)),
    ]


def test_traced_cycle(invocations, tmp_path):
    log = []
    metrics, tally, _ = run.run_traced(invocations, 0, tmp_path, log.append)
    assert (tally.failed, tally.problems) == (0, [])
    assert tally.attempted >= 2 * len(invocations)
    assert run.PER_LAYER.keys() <= metrics.keys()


def test_end_to_end_cycle(invocations, tmp_path):
    log = []
    metrics, tally, _ = run.run_end_to_end(invocations, 0, tmp_path, log.append, TINY_REFERENCE)
    assert (tally.failed, tally.problems) == (0, [])
    assert tally.attempted == len(invocations)
    assert run.END_TO_END.keys() <= metrics.keys()
    assert all(np.isfinite(metrics[name]) and metrics[name] > 0 for name in run.END_TO_END)
