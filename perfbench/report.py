#!/usr/bin/env python3
"""Run every workload end to end and traced; print every metric by name with its unit.

    python3 perfbench/report.py --seed 7
    python3 perfbench/report.py --held-out

``--held-out`` draws a fresh random seed (and prints it), so that a claimed
gain can be re-checked on inputs nobody tuned the change on. Each run is one
``perfbench/run.py`` process run for ``run_seconds`` of BENCHMARK.json, as
the benchmark's own runs are. Exits 1 when any output check fails or any run
ends without a result.
"""
import argparse
import json
import secrets
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    seeds = parser.add_mutually_exclusive_group(required=True)
    seeds.add_argument("--seed", type=int)
    seeds.add_argument("--held-out", action="store_true",
                       help="use a fresh random seed, not one any change was tuned on")
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    seed = secrets.randbelow(2**31) if args.held_out else args.seed
    print(f"seed {seed}{' (held out)' if args.held_out else ''}, {seconds} s per run")

    ok, shown_env = True, False
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600, check=False)
            lines = proc.stdout.splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{workload} trace={trace}: no result, exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
            if not shown_env:
                machine = {k: v for k, v in env.items()
                           if k not in ("inputs", "workload", "seed", "seconds", "trace")}
                print("environment " + json.dumps(machine, sort_keys=True))
                shown_env = True
            print(f"\n{workload} trace={trace} inputs {json.dumps(env['inputs'], sort_keys=True)}")
            for line in lines:
                if line.startswith("CHECK FAILED"):
                    print(f"  {line}")
            print(f"  {'failed_frac':52s} {result['failed'] / result['attempted']:<14.6g} "
                  f"({result['failed']}/{result['attempted']} invocations)")
            for name, metric in result["metrics"].items():
                print(f"  {name:52s} {metric['value']:<14.6g} {metric['unit']}")
            ok = ok and proc.returncode == 0 and result["correct"] and result["failed"] == 0
    print("\nall output checks passed" if ok else "\nSOME RUNS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
