"""Run one seqtag benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk-bucket-dual --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 1

Run from the root of a seqtag checkout: the program is imported from
its `src/` directory.  `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer ones.  `--workload all` runs every workload
in its own fresh process, one after another.  The last line of output
is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`.  It is printed even when a call into seqtag raises; the
metrics the run could not measure are then left out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("desk-bucket-dual", "paper-bucket-dual")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_threads():
    """One BLAS thread, set before numpy is first imported, so that two
    shared cores give steady timings."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_program():
    src = ROOT / "src"
    if not (src / "seqtag" / "__init__.py").is_file():
        raise SystemExit(f"no seqtag sources under {src}; run from a seqtag checkout")
    sys.path[:0] = [str(src), str(HERE)]


def run_all(args) -> int:
    """Each workload in a fresh process, never two at once.  A workload
    that exits with an error or prints no result counts as one failed
    operation."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode != 0 or result is None:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            status = proc.returncode or 1
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}:{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    import_program()
    if args.workload == "all":
        return run_all(args)

    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    # a terminated run still removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
    tally = harness.Tally()
    metrics, notes = {}, []
    try:
        measure = harness.measure_traced if args.trace else harness.measure
        metrics, notes = measure(workload, args.seed, args.seconds, workdir, tally)
    except harness.OperationsFailed:
        # the failed operations are counted; the result still gets printed
        traceback.print_exc()
    except Exception as exc:
        traceback.print_exc()
        tally.check(False, 0, f"the run stopped: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"workload={workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"nproc={cpus} blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for problem in dict.fromkeys(tally.problems):
        print(f"CHECK FAILED: {problem}")
    print(f"attempted={tally.attempted} failed={tally.failed}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
