"""Print the SHA-256 of every file that timing=off sweeps of the benchmark
workloads write.

    PYTHONPATH=src python tools/sweep_digest.py 0 1 > digest.txt

Each output line is ``<workload> seed=<seed> <file name> <sha256>``.  Run it
once against each of two source trees (``PYTHONPATH=<tree>/src``) and compare
the two outputs with ``diff``: no difference means both trees write the same
bytes on every workload at every seed given.  The workload configs are those
of ``WORKLOADS`` in ``perfbench/workloads.py``, run from its path by
``runpy``, which writes no bytecode beside it.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import runpy
import tempfile
from pathlib import Path

from sparsenewton import run_experiment

ROOT = Path(__file__).resolve().parent.parent


def load_workloads():
    """perfbench/workloads.py's WORKLOADS, run from the file's path."""
    return runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["WORKLOADS"]


def sweep_digest(config) -> dict:
    """Run config with timing=off; returns the name of each file it wrote to
    config.out mapped to the SHA-256 of the file's bytes."""
    config = dataclasses.replace(config, timing="off")
    run_experiment(config)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(config.out).iterdir())}


def main(argv=None):
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", type=int, nargs="+", help="the sweeps' base seeds")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in workloads.items():
            for seed in args.seeds:
                digest = sweep_digest(workload.config(seed, Path(tmp) / f"{name}_{seed}"))
                for file_name, sha in digest.items():
                    print(f"{name} seed={seed} {file_name} {sha}")


if __name__ == "__main__":
    main()
