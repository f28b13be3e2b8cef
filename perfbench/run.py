#!/usr/bin/env python3
"""symspec benchmark: one workload, end to end through the CLI or traced per layer.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Run it from the root of a symspec checkout; it measures the package under
``src/`` there and exits with status 2 if there is none. It generates the
workload's inputs from ``--seed``, then:

* ``--trace 0``: runs the workload's cycle of ``python -m symspec``
  invocations one at a time, in a closed loop, until ``--seconds`` of
  invocation and reference time have been measured. Before each invocation
  it times a fresh interpreter importing the package (``setup_s``), and it
  runs a fixed reference task (``reference_task.py``) just before and just
  after it. The invocation's and the set-up sample's wall times are scaled
  by the task's time on the reference machine over the mean of those two
  runs, so the figures read as at one fixed speed of the host; the
  unscaled figures are printed and recorded too. Every output is
  checked. So that a run ends within 180 s, no invocation starts after
  ``WALL_CAP_S`` of wall time; a run that stops there before ``--seconds``
  have been measured says so in a ``WARNING`` line and in its record.
* ``--trace 1``: runs the same cycle in-process through ``cli.main``,
  alternating passes with the layer functions wrapped in span recorders and
  passes without, then one tracemalloc pass for allocation peaks.

Lines before the last name every metric with its unit and record the
environment; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See perfbench/README.md.
"""
import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".perfbench")  # under the checkout root; ignored by git

SETUP_MIN_SAMPLES = 9
REFERENCE_TASK = Path(__file__).resolve().parent / "reference_task.py"
INVOCATION_TIMEOUT_S = 120
WALL_CAP_S = 150  # start no further invocation after this much wall time

END_TO_END = {"symbols_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "sequences.parse_fasta.self_s": "s",
    "sequences.parse_fasta.calls": "count",
    "sequences.parse_fasta.peak_alloc_mb": "MB",
    "sequences.sequence_from_string.self_s": "s",
    "sequences.random_sequence.self_s": "s",
    "representations.build_indicators.self_s": "s",
    "representations.build_indicators.peak_alloc_mb": "MB",
    "representations.apply_representation.self_s": "s",
    "representations.apply_representation.calls": "count",
    "representations.apply_representation.peak_alloc_mb": "MB",
    "spectral.spectrum_base.self_s": "s",
    "spectral.spectrum_base.calls": "count",
    "spectral.spectrum_transformed.self_s": "s",
    "spectral.spectrum_transformed.calls": "count",
    "spectral.snr_ratio_check.self_s": "s",
    "spectral.verify_total_spectrum.self_s": "s",
    "spectral.peak_alloc_mb": "MB",
    "spectral.fft_rows": "count",
    "spectral.spectra_useful_ratio": "ratio",
    "spectral.gate_use_max": "ratio",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.cpu_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tally:
    """Invocations attempted and failed, with the first few problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:3])


def _time_out(signum, frame):
    raise TimeoutError


def spawn(args, stdout, stderr, env) -> tuple[int, float, resource.struct_rusage]:
    """Run ``python <args>`` to completion; return exit code, wall time and rusage.

    A child still running after INVOCATION_TIMEOUT_S is killed, and counts
    as failed through its exit code. A timer signal interrupts the wait, so
    no helper thread runs beside the child.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                            stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr)
    previous = signal.signal(signal.SIGALRM, _time_out)
    signal.setitimer(signal.ITIMER_REAL, INVOCATION_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except TimeoutError:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def run_end_to_end(invocations, seconds, workdir, log, reference):
    from checks import Checker

    env = dict(os.environ, PYTHONPATH=str(SRC))

    def time_setup() -> float:
        return spawn(["-c", "import symspec.cli"], subprocess.DEVNULL, subprocess.DEVNULL, env)[1]

    def time_reference() -> float:
        return spawn([str(REFERENCE_TASK), *reference.argv],
                     subprocess.DEVNULL, subprocess.DEVNULL, env)[1]

    # Each invocation runs between two runs of the reference task, whose mean
    # time gives the host's speed right then. The invocation's wall time, and
    # the set-up sample taken just before, are scaled by reference.seconds /
    # (that mean), so a spell in which the host runs slow slows the reference
    # task too and drops out of the figures.
    setup, setup_raw, scales = [], [], []
    checker, tally = Checker(), Tally()
    walls = {inv.label: [] for inv in invocations}
    walls_raw = {inv.label: [] for inv in invocations}
    symbols = {inv.label: [] for inv in invocations}
    rss_kb, measured, start = 0, 0.0, time.perf_counter()
    for i in itertools.count():
        if i >= len(invocations) and measured >= seconds:
            break  # every invocation has run at least once
        if i >= len(invocations) and time.perf_counter() - start >= WALL_CAP_S:
            log(f"WARNING: wall-time cap of {WALL_CAP_S} s reached after {measured:.1f} s "
                f"of the {seconds} s asked for were measured")
            break
        inv = invocations[i % len(invocations)]
        setup_raw.append(time_setup())
        before = time_reference()
        out_path = workdir / f"{inv.label}.out"
        with open(out_path, "wb") as out, open(workdir / f"{inv.label}.err", "wb") as err:
            code, wall, usage = spawn(["-m", "symspec", *inv.argv], out, err, env)
        after = time_reference()
        scales.append(2 * reference.seconds / (before + after))
        setup.append(setup_raw[-1] * scales[-1])
        outcome = checker.check(inv, code, out_path.read_text(encoding="utf-8", errors="replace"))
        tally.add(inv.label, outcome.problems)
        walls_raw[inv.label].append(wall)
        walls[inv.label].append(wall * scales[-1])
        symbols[inv.label].append(outcome.symbols)
        rss_kb = max(rss_kb, usage.ru_maxrss)
        measured += before + wall + after
    while len(setup) < SETUP_MIN_SAMPLES:
        setup_raw.append(time_setup())
        scales.append(reference.seconds / time_reference())
        setup.append(setup_raw[-1] * scales[-1])
    # One cycle at the median speed of each invocation: steadier than a
    # median of whole cycles, of which a run holds only a few.
    cycle_symbols = sum(statistics.median(n) for n in symbols.values())
    cycle_s = sum(statistics.median(ts) for ts in walls.values())
    cycle_raw_s = sum(statistics.median(ts) for ts in walls_raw.values())
    for label, ts in walls.items():
        log(f"invocation {label}: {len(ts)} runs, median {statistics.median(ts):.4f} s scaled, "
            f"{statistics.median(walls_raw[label]):.4f} s as measured")
    log(f"reference task {' '.join(reference.argv)}: {len(scales)} scale factors, "
        f"median {statistics.median(scales):.4f} (reference time {reference.seconds} s)")
    log(f"unscaled: symbols_per_s {cycle_symbols / cycle_raw_s!r}, "
        f"setup_s {statistics.median(setup_raw)!r}")
    metrics = {
        "symbols_per_s": cycle_symbols / cycle_s,
        "peak_rss_mb": rss_kb / 1024,
        "setup_s": statistics.median(setup),
    }
    return metrics, tally, {"setup_s_samples": setup, "setup_s_raw": setup_raw,
                            "scale_factors": scales, "invocation_s": walls,
                            "invocation_s_raw": walls_raw, "measured_s": measured,
                            "stopped_by_wall_cap": measured < seconds}


def run_traced(invocations, seconds, workdir, log):
    sys.path.insert(0, str(SRC))
    import symspec.cli as cli
    from checks import Checker
    import tracer as tr

    checker, tally = Checker(), Tally()
    # The exact counts at the current commit are pinned by perfbench/tests;
    # here any traced call will do, so that a change which computes fewer
    # spectra still runs.
    code, base, transformed = tr.spectrum_call_counts(cli.main, ("base", "zcurve"))
    if code != 0 or not base or not transformed:
        tally.add("tracer", [f"self-test: exit {code}, {base} spectrum_base and "
                             f"{transformed} spectrum_transformed spans"])
    needed = sum(inv.needed_spectra for inv in invocations)

    def one_pass(recorder=None):
        wall = cpu = 0.0
        outputs = []
        for i, inv in enumerate(invocations):
            buf = io.StringIO()
            span = recorder.span("cli.main") if recorder else contextlib.nullcontext()
            if recorder:
                recorder.request = i
            before = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            with span, contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(list(inv.argv))
                except SystemExit as exc:  # argparse rejects the arguments
                    code = exc.code
            wall += time.perf_counter() - t0
            after = resource.getrusage(resource.RUSAGE_SELF)
            cpu += (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
            outputs.append((code, buf.getvalue()))
        return wall, cpu, outputs

    one_pass()  # warm-up: imports and first-call costs are paid before timing
    traced, plain, start = [], [], time.perf_counter()
    # Pairs of passes until the next pair would end after --seconds (at least two).
    while len(traced) < 2 or (time.perf_counter() - start) * (1 + 1 / len(traced)) <= seconds:
        recorder = tr.Tracer()
        with tr.instrument(recorder):
            wall, _, outputs = one_pass(recorder)
        figures = tr.layer_metrics(recorder, needed)
        output_bytes = 0
        for inv, (code, text) in zip(invocations, outputs):
            outcome = checker.check(inv, code, text)
            tally.add(inv.label, outcome.problems)
            figures["spectral.gate_use_max"] = max(figures["spectral.gate_use_max"], outcome.gate_use)
            output_bytes += len(text.encode("utf-8"))
        figures["cli.output_bytes"] = output_bytes
        traced.append((wall, figures))
        plain.append(one_pass()[:2])
    last = recorder

    recorder = tr.Tracer(memory=True)
    with tr.instrument(recorder):
        one_pass()
    peaks = tr.peak_alloc_mb(recorder)

    # median_low keeps counts exact (a value some pass produced) when passes are even
    metrics = {name: statistics.median_low(f[name] for _, f in traced) for name in traced[0][1]}
    metrics["cli.cpu_s"] = statistics.median(c for _, c in plain)
    metrics["trace.overhead_frac"] = (statistics.median(w for w, _ in traced)
                                      / statistics.median(w for w, _ in plain) - 1.0)
    for name in PER_LAYER:
        if name.endswith("peak_alloc_mb"):
            metrics[name] = peaks.get(name.removesuffix(".peak_alloc_mb"), 0.0)
    log(f"passes: {len(traced)} traced, {len(plain)} untraced; "
        f"pass wall traced {[round(w, 4) for w, _ in traced]} untraced {[round(w, 4) for w, _ in plain]}")
    per_request = {}
    for span in last.spans:
        if span.name in tr.SPECTRUM_CALLS:
            key = f"{invocations[span.request].label} {span.name}.calls"
            per_request[key] = per_request.get(key, 0) + 1
    for inv in invocations:
        calls = sum(n for key, n in per_request.items() if key.startswith(f"{inv.label} "))
        per_request[f"{inv.label} spectral.spectra_useful_ratio"] = f"{inv.needed_spectra}/{calls}"
    for key, n in per_request.items():
        log(f"count {key} = {n}")
    spans = [[s.name, s.start, s.end, s.parent, s.request] for s in last.spans]
    return metrics, tally, {"spans": spans, "per_request_counts": per_request}


def main(argv=None) -> int:
    # One BLAS thread, here and in every CLI child (they inherit it), so that
    # the benchmark and the program together keep within two threads. Set
    # before anything imports numpy.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "symspec" / "__init__.py").is_file():
        print(f"perfbench: no symspec package under {SRC}; run from a symspec checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    from envinfo import environment

    workdir = WORK / f"run-{os.getpid()}"
    results = WORK / "results"
    workdir.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    lines = []
    log = lines.append
    try:
        invocations = workloads.build(args.workload, args.seed, workdir)
        env = environment(SRC)
        env.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                   inputs=workloads.input_digests(invocations))
        if args.trace:
            metrics, tally, detail = run_traced(invocations, args.seconds, workdir, log)
        else:
            metrics, tally, detail = run_end_to_end(invocations, args.seconds, workdir, log,
                                                    workloads.REFERENCE_TASKS[args.workload])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = dict(result, environment=env, problems=tally.problems, detail=detail)
    record_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    for p in tally.problems[:20]:
        print(f"CHECK FAILED {p}")
    print(f"failed_frac = {tally.failed / tally.attempted!r} ({tally.failed}/{tally.attempted})")
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]!r} {unit}")
    print(f"record {record_path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
