"""Experiment harness: runs solver x noise-level sweeps and writes results.

Outputs in the chosen directory (schemas frozen, first line ``# schema=1``):

* ``summary.csv`` with header solver,noise_rel,n_star,stop_reason,wall_s,residual,rel_error
* ``trace_<solver>_<noise>_<rep>.csv`` with header iter,residual,functional,rel_error,wall_s
* ``recon_<solver>_<noise>_<rep>.pgm`` reconstructions (plain PGM)

With ``timing = wall`` (the default) the wall_s columns hold monotonic-clock
seconds from before the warm start to each iterate; those values are real
measurements and differ between runs.  ``timing = off`` records zeros instead,
which makes repeated runs with the same seed byte-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .config import ExperimentConfig, _check_solver_name
from .functionals import ProblemData, back_transform
from .solvers import RUNNERS, SolverConfig, resolve_auto
from .tomo import ProblemInstance, add_noise, build_parallel_tomo, shepp_logan, write_pgm

SCHEMA_LINE = "# schema=1"
SUMMARY_HEADER = "solver,noise_rel,n_star,stop_reason,wall_s,residual,rel_error"
TRACE_HEADER = "iter,residual,functional,rel_error,wall_s"

# Default regularization weight, as a fraction of the noise bound delta.
# Calibrated at desk scale so every method reaches the discrepancy stop;
# when delta == 0 the weight falls back to a fraction of ||y_delta||.
ALPHA_COEFF = 0.01


def make_solver_config(name: str, overrides: dict, delta: float, y_delta):
    """Knobs for one sweep cell; returns (SolverConfig, regularization weight).

    An "auto" (or unset) weight is ALPHA_COEFF * delta, or a small multiple
    of ||y_delta|| in the noise-free case (see resolve_auto).
    """
    _check_solver_name(name)
    knobs = dict(overrides)
    alpha = resolve_auto(knobs.pop("alpha", "auto"), ALPHA_COEFF, delta, y_delta)
    return SolverConfig(**knobs).for_method(name), alpha


def run_solver(name: str, p: ProblemData, cfg: SolverConfig, delta: float, **kwargs):
    """Run the named method."""
    return RUNNERS[name](p, cfg, delta, **kwargs)


@dataclass
class CellResult:
    solver: str
    noise_rel: float
    rep: int
    x_image: Optional[np.ndarray]
    trace: Optional[object]
    error: Optional[str]

    def summary_row(self) -> str:
        if self.error is not None:
            return (f"{self.solver},{self.noise_rel:g},0,error,{0.0:.17g},nan,nan")
        t = self.trace
        return (f"{self.solver},{self.noise_rel:g},{t.n_star},{t.stop_reason},"
                f"{t.wall_times[-1]:.17g},{t.residuals[-1]:.17g},{t.rel_errors[-1]:.17g}")


def _run_cell(name, overrides, instance: ProblemInstance, noise_rel, rep, timing):
    timer = time.perf_counter if timing == "wall" else (lambda: 0.0)
    try:
        cfg, alpha = make_solver_config(name, overrides, instance.delta, instance.y_delta)
        p = ProblemData(instance.A, instance.y_delta, alpha)
        x, trace = run_solver(name, p, cfg, instance.delta, x_true=instance.x_true, timer=timer)
    except Exception as exc:  # errored runs still get a summary row
        return CellResult(name, noise_rel, rep, None, None, f"{type(exc).__name__}: {exc}")
    return CellResult(name, noise_rel, rep, back_transform(x, trace.spec), trace, None)


def noise_seed_for(base_seed: int, level_index: int, rep: int) -> int:
    """Deterministic per-cell noise seed."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(level_index, rep))
    return int(ss.generate_state(1)[0])


def build_instances(config: ExperimentConfig):
    """One ProblemInstance per (noise level, repetition); matrix built once."""
    A = build_parallel_tomo(config.geometry)
    x_true = shepp_logan(config.geometry.m)
    y = A.matvec(x_true)
    instances = {}
    for li, level in enumerate(config.noise_levels):
        for rep in range(config.repetitions):
            y_delta, delta = add_noise(y, level, noise_seed_for(config.seed, li, rep))
            instances[(li, rep)] = ProblemInstance(A, x_true, y_delta, delta)
    return instances


def write_trace_csv(path, trace):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(SCHEMA_LINE + "\n" + TRACE_HEADER + "\n")
        for i in range(len(trace.iterations)):
            fh.write(f"{trace.iterations[i]},{trace.residuals[i]:.17g},"
                     f"{trace.functionals[i]:.17g},{trace.rel_errors[i]:.17g},"
                     f"{trace.wall_times[i]:.17g}\n")


def run_experiment(config: ExperimentConfig, threads: int = 1):
    """Run the full sweep; writes summary, traces and reconstructions.

    Returns the list of summary rows (strings, without the header).  Cells
    run one after another: threads must be 1, the value perfbench/run.py
    passes.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads!r}")
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for (li, rep), instance in build_instances(config).items():
        for name in config.solvers:
            result = _run_cell(name, config.solver_overrides.get(name, {}), instance,
                               config.noise_levels[li], rep, config.timing)
            rows.append(result.summary_row())
            if result.error is None:
                stem = f"{result.solver}_{result.noise_rel:g}_{result.rep}"
                write_trace_csv(out / f"trace_{stem}.csv", result.trace)
                write_pgm(out / f"recon_{stem}.pgm", result.x_image, config.geometry.m)

    with open(out / "summary.csv", "w", encoding="ascii") as fh:
        fh.write(SCHEMA_LINE + "\n" + SUMMARY_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")
    return rows
