#!/usr/bin/env python3
"""panelcd benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                      # every workload in turn

Run from the root of a checkout. The program is imported from ``src/`` of
that checkout and reached only through its public functions and CLI; no
BLAS thread variable is set. A run prints its provenance and each metric
on its own line, writes the same to ``bench/_work/results/``, and ends
with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``). See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
WORKLOAD_NAMES = ("mc-sparse-large", "cli-test-large")


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _blas() -> dict:
    """The BLAS numpy was built against, and its thread count as loaded."""
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"),
           "configuration": info.get("openblas configuration"), "threads": None}
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path:
                libs.add(path)
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out["threads"] = fn()
                out["library"] = path
                return out
    return out


def provenance(load_at_start) -> dict:
    import numpy
    import scipy

    import panelcd

    return {
        "commit": _commit(),
        "panelcd": panelcd.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(load_at_start),
    }


def run_one(args) -> int:
    load_at_start = os.getloadavg()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    WORK.mkdir(parents=True, exist_ok=True)
    started = time.time()
    outcome = workload.run(args.seed, float(args.seconds), bool(args.trace), WORK)
    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    metrics = {name: {"value": float(outcome.metrics[name]), "unit": unit}
               for name, unit in units.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_unix": started,
        "provenance": provenance(load_at_start),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "metrics": metrics,
        "timed_steps": outcome.timed,
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print("provenance: " + json.dumps(record["provenance"]))
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    print(f"{args.workload}: attempted {outcome.attempted}, failed {outcome.failed}")
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": not outcome.problems, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


def run_every(args) -> int:
    """Each workload in its own interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"[{name}] exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (SRC / "panelcd" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC / 'panelcd'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_every(args)
    sys.path.insert(0, str(SRC))
    import panelcd

    if not Path(panelcd.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: imported panelcd from {panelcd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
