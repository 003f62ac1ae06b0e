"""Benchmark of the pulseformer package, run from the root of a checkout.

    python3 perfbench/run.py --workload train_general --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing patched;
``--trace 1`` measures the per-layer metrics (see README.md). The program is
imported from ``src/`` of the same checkout. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics; the
line before it records the environment. Exits 2 when the checkout holds no
``src/pulseformer``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORKLOADS = ("train_general", "predict_general", "search_small")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _environment(args, blas_threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(), "numpy": np.__version__,
            "blas": blas, "blas_threads": blas_threads,
            "python": platform.python_version(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def _print_table(result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)


def run_one(args) -> int:
    if not (SRC / "pulseformer" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'pulseformer'} is missing", file=sys.stderr)
        return 2
    blas_threads = max(1, min(2, os.cpu_count() or 1))
    for var in BLAS_VARS:
        os.environ[var] = str(blas_threads)
    sys.path[:0] = [str(SRC), str(HERE)]
    import pulseformer

    if Path(pulseformer.__file__).resolve().parent != SRC / "pulseformer":
        print(f"pulseformer imported from {pulseformer.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        w = workloads.make(args.workload, args.seed, workdir)
        result, problems = workloads.measure(w, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass   # another run still uses it
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"{args.workload}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}", file=sys.stderr)
    _print_table(result)
    print(json.dumps({"env": _environment(args, blas_threads)}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
