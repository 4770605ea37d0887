"""Experiment harness: reads and checks a sweep's config, runs its solver x
noise-level grid and writes results.

Config files: ``[section]`` headers, ``key = value`` lines, ``#`` comment
lines (whole-line only), UTF-8 (a leading byte order mark is skipped).
Sections are ``[geometry]``, ``[experiment]`` and one optional
``[solver.<name>]`` per solver.  Unknown sections or keys, duplicate keys,
bytes that are not UTF-8 and malformed or out-of-range values are hard errors
that cite line numbers; each value is checked on its line by the same rules
an ExperimentConfig built in code must pass.

Minimal valid file::

    [geometry]
    m = 32
    n_angles = 60
    n_beams = 45

    [experiment]
    solvers = ista, newton

Defaults fill in everything else: spacing = m / n_beams (the detector
spacing, > 0), noise_levels = 0.1, repetitions = 1, seed = 0, out = results
(the output directory), timing = wall.

Outputs in the chosen directory (schemas frozen, first line ``# schema=1``):

* ``summary.csv`` with header solver,noise_rel,n_star,stop_reason,wall_s,residual,rel_error
* ``trace_<solver>_<noise>_<rep>.csv`` with header iter,residual,functional,rel_error,wall_s
* ``recon_<solver>_<noise>_<rep>.pgm`` reconstructions (plain PGM)

With ``timing = wall`` (the default) the wall_s columns hold monotonic-clock
seconds from before the warm start to each iterate; those values are real
measurements and differ between runs.  ``timing = off`` records zeros
instead, which makes repeated runs with the same seed byte-identical.

A sweep computes each instance's FISTA warm start once, in the first cell
that asks for it (gd in the default solver order); later cells of the
instance whose warm-start inputs match reuse it.  So only that first cell's
wall_s covers the warm start, as only the first cell on the matrix pays for
the norm estimate.  A single run outside a sweep computes its own.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from .functionals import ProblemData, back_transform
from .linalg import SparseMatrix, check_number
from .solvers import RUNNERS, SOLVER_KNOBS, SOLVER_NAMES, SolverConfig, check_knob, resolve_auto
from .tomo import TomoGeometry, add_noise, build_parallel_tomo, shepp_logan, write_pgm

SCHEMA_LINE = "# schema=1"
SUMMARY_HEADER = "solver,noise_rel,n_star,stop_reason,wall_s,residual,rel_error"
TRACE_HEADER = "iter,residual,functional,rel_error,wall_s"
TIMING_MODES = ("wall", "off")


class ConfigError(ValueError):
    pass


def _check_solver_name(name):
    if not isinstance(name, str) or name not in SOLVER_NAMES:
        raise ValueError(f"unknown solver '{name}'; available: {', '.join(SOLVER_NAMES)}")


def _check_list(key, value, what, check_item, stem):
    """Raise ValueError unless value is a non-empty list, tuple or 1-D array
    of what whose items pass check_item(item) and print as distinct
    stem(item), the text that output file names carry."""
    if not (isinstance(value, (list, tuple)) or (isinstance(value, np.ndarray) and value.ndim == 1)):
        raise ValueError(f"{key} must be a list of {what}, got {value!r}")
    if len(value) == 0:
        raise ValueError(f"{key} must list at least one item")
    stems = {}
    for item in value:
        check_item(item)
        text = stem(item)
        if text in stems:
            raise ValueError(f"{key} lists {stems[text]!r} and {item!r}, which would "
                             f"write the same files (both print as {text})")
        stems[text] = item


def _check_field(key, value):
    """Raise ValueError when value is out of range for the ExperimentConfig
    field key.  This is every rule of the sweep's fields but the knobs'
    (check_knob): the dataclass checks each field with it, and a config
    file's line and a sweep flag reach it after their parser converts the
    text."""
    if key == "geometry" and not isinstance(value, TomoGeometry):
        raise ValueError(f"geometry must be a TomoGeometry, got {value!r}")
    if key == "solvers":
        _check_list(key, value, "solver names", _check_solver_name, str)
    if key == "noise_levels":
        _check_list(key, value, "numbers", partial(check_number, key, floor=0), "{:g}".format)
    if key in ("repetitions", "seed"):
        check_number(key, value, 0, integer=True)
    if key == "out" and (not isinstance(value, (str, os.PathLike)) or value == ""):
        raise ValueError(f"out must name a directory, got {value!r}")
    if key == "timing" and value not in TIMING_MODES:
        raise ValueError(f"timing must be one of {', '.join(TIMING_MODES)}, got {value!r}")
    if key == "solver_overrides":
        if not (isinstance(value, dict) and all(isinstance(v, dict) for v in value.values())):
            raise ValueError(f"solver_overrides must map solvers to dicts of knobs, got {value!r}")
        for name, knobs in value.items():
            _check_solver_name(name)
            for knob, knob_value in knobs.items():
                check_knob(knob, knob_value, name)


@dataclass
class ExperimentConfig:
    """A sweep; raises ValueError for any field out of range (see
    _check_field), among them noise levels that print alike under :g and
    repeated solvers, since output file names carry both."""

    geometry: TomoGeometry
    solvers: list
    noise_levels: list = field(default_factory=lambda: [0.1])
    repetitions: int = 1
    seed: int = 0
    out: str = "results"
    timing: str = "wall"
    solver_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        for f in fields(self):
            _check_field(f.name, getattr(self, f.name))


def _parse(parse, text, key):
    """parse(text), with a malformed value reported against key."""
    try:
        return parse(text)
    except ValueError:
        kind = "an integer" if parse is int else "a number"
        raise ValueError(f"{key} must be {kind}, got '{text}'") from None


def _parse_str_list(text, key):
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_float_list(text, key):
    return [_parse(float, part, key) for part in _parse_str_list(text, key)]


def _check_geometry(key, value):
    """Check one [geometry] key against TomoGeometry's own rules."""
    try:
        TomoGeometry(**{"m": 1, "n_angles": 1, "n_beams": 1, key: value})
    except ValueError as exc:
        raise ValueError(f"invalid geometry: {exc}") from None


_GEOMETRY_KEYS = {"m": partial(_parse, int), "n_angles": partial(_parse, int),
                  "n_beams": partial(_parse, int), "spacing": partial(_parse, float)}
_EXPERIMENT_KEYS = {"solvers": _parse_str_list, "noise_levels": _parse_float_list,
                    "repetitions": partial(_parse, int), "seed": partial(_parse, int),
                    "out": partial(_parse, str), "timing": partial(_parse, str)}
_SOLVER_KEYS = {key: partial(_parse, parse) for key, (parse, *_) in SOLVER_KNOBS.items()}


def parse_experiment_value(key, text):
    """The value of [experiment] key written as text, parsed and checked as on
    a config file's line; raises ValueError for a value the file would refuse."""
    value = _EXPERIMENT_KEYS[key](text, key)
    _check_field(key, value)
    return value


def _section_schema(section):
    """The section's key parsers and the check each parsed value must pass."""
    if section == "geometry":
        return _GEOMETRY_KEYS, _check_geometry
    if section == "experiment":
        return _EXPERIMENT_KEYS, _check_field
    if section.startswith("solver."):
        name = section[len("solver."):]
        _check_solver_name(name)
        return _SOLVER_KEYS, partial(check_knob, method=name)
    raise ValueError(f"unknown section [{section}]")


def parse_config(path) -> ExperimentConfig:
    """Parse and validate an experiment file; raises ConfigError on any defect."""
    with open(path, "rb") as fh:
        raw_lines = fh.read().splitlines()  # at \n, \r\n or \r, as text mode splits

    sections = {}  # section -> {key: value}
    first_line = {}  # (section, key) -> line_no
    section = None
    schema = check = None
    for line_no, raw in enumerate(raw_lines, start=1):
        try:
            # utf-8-sig drops the byte order mark that some editors write first
            line = raw.decode("utf-8-sig" if line_no == 1 else "utf-8").strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("["):
                if not line.endswith("]"):
                    raise ValueError(f"malformed section header '{line}'")
                section = line[1:-1].strip()
                schema, check = _section_schema(section)
                continue
            if "=" not in line:
                raise ValueError(f"expected 'key = value', got '{line}'")
            if section is None:
                raise ValueError("key outside any [section]")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key:
                raise ValueError("empty key")
            if key not in schema:
                raise ValueError(f"unknown key '{key}' in section [{section}]")
            if (section, key) in first_line:
                raise ValueError(f"duplicate key '{key}' in section [{section}] "
                                 f"(first set on line {first_line[(section, key)]})")
            first_line[(section, key)] = line_no
            value = schema[key](value, key)
            check(key, value)
        except ValueError as exc:  # every defect of a line, UnicodeDecodeError among them
            if isinstance(exc, UnicodeDecodeError):
                exc = ValueError(f"not UTF-8 text ({exc.reason})")
            raise ConfigError(f"line {line_no}: {exc}") from None
        sections.setdefault(section, {})[key] = value

    required = [("geometry", "m"), ("geometry", "n_angles"), ("geometry", "n_beams"),
                ("experiment", "solvers")]
    for sec, key in required:
        if (sec, key) not in first_line:
            raise ConfigError(f"missing required key '{key}' in section [{sec}]")

    geometry = TomoGeometry(**sections.pop("geometry"))
    experiment = sections.pop("experiment")
    overrides = {sec[len("solver."):]: knobs for sec, knobs in sections.items()}
    return ExperimentConfig(geometry, solver_overrides=overrides, **experiment)


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
    alpha = resolve_auto(knobs.pop("alpha", SOLVER_KNOBS["alpha"][3][name]), ALPHA_COEFF, delta,
                         y_delta)
    return SolverConfig(**knobs).for_method(name), alpha


def run_solver(name: str, p: ProblemData, cfg: SolverConfig, delta: float, **kwargs):
    """Run the named method."""
    return RUNNERS[name](p, cfg, delta, **kwargs)


@dataclass
class ProblemInstance:
    A: SparseMatrix
    x_true: np.ndarray
    y_delta: np.ndarray
    delta: float


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


def _run_cell(name, overrides, instance: ProblemInstance, noise_rel, rep, timing, warm_starts):
    timer = time.perf_counter if timing == "wall" else (lambda: 0.0)
    try:
        cfg, alpha = make_solver_config(name, overrides, instance.delta, instance.y_delta)
        p = ProblemData(instance.A, instance.y_delta, alpha, warm_starts)
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
    if not y.any():  # auto alpha would be 0 in every cell
        raise ValueError(f"every ray of {config.geometry} misses the phantom (A x_true = 0)")
    instances = {}
    for li, level in enumerate(config.noise_levels):
        for rep in range(config.repetitions):
            y_delta, delta = add_noise(y, level, noise_seed_for(config.seed, li, rep))
            with np.errstate(over="ignore"):  # every run starts from ||y_delta||^2 or near it
                if not np.isfinite(y_delta @ y_delta):
                    raise ValueError(f"noise level {level:g} overflows: ||y_delta||^2 is infinite")
            instances[(li, rep)] = ProblemInstance(A, x_true, y_delta, delta)
    return instances


def write_trace_csv(path, trace):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(SCHEMA_LINE + "\n" + TRACE_HEADER + "\n")
        for n, res, f, err, wall in zip(trace.iterations, trace.residuals, trace.functionals,
                                        trace.rel_errors, trace.wall_times, strict=True):
            fh.write(f"{n},{res:.17g},{f:.17g},{err:.17g},{wall:.17g}\n")


def run_experiment(config: ExperimentConfig, threads: int = 1):
    """Run the full sweep; writes summary, traces and reconstructions.

    Returns the list of summary rows (strings, without the header).  Cells
    run one after another: threads must be 1, the value perfbench/run.py
    passes.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads!r}")
    instances = build_instances(config)  # refuses a problem over the size limits before any write
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for (li, rep), instance in instances.items():
        warm_starts = {}  # shared by the instance's cells (ProblemData.warm_starts)
        for name in config.solvers:
            result = _run_cell(name, config.solver_overrides.get(name, {}), instance,
                               config.noise_levels[li], rep, config.timing, warm_starts)
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
