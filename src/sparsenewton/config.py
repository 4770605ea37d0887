"""Line-oriented experiment configuration.

Format: ``[section]`` headers, ``key = value`` lines, ``#`` comment lines
(whole-line only), UTF-8 (a leading byte order mark is skipped).  Sections
are ``[geometry]``, ``[experiment]`` and one optional ``[solver.<name>]`` per
solver.  Unknown sections or keys, duplicate keys, bytes that are not UTF-8
and malformed or out-of-range values are hard errors that cite line numbers;
each value is checked on its line by the same rules an ExperimentConfig built
in code must pass.

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
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .linalg import check_number
from .solvers import SOLVER_KNOBS, SOLVER_NAMES, check_knob
from .tomo import TomoGeometry

TIMING_MODES = ("wall", "off")


class ConfigError(ValueError):
    pass


def _check_solver_knob(name, key, value):
    """Raise ValueError when a knob's value is out of range for solver name:
    check_knob's rules, and Newton also needs a smoothed transform."""
    check_knob(key, value)
    if name == "newton" and key == "epsilon" and value == 0.0:
        raise ValueError("epsilon must be > 0 for newton")


def _check_solver_name(name):
    if name not in SOLVER_NAMES:
        raise ValueError(f"unknown solver '{name}'; available: {', '.join(SOLVER_NAMES)}")


def _check_field(key, value):
    """Raise ValueError when value is out of range for the ExperimentConfig
    field key; the dataclass checks every field with it, and the parser every
    key of [experiment] on its line."""
    if key == "geometry" and not isinstance(value, TomoGeometry):
        raise ValueError(f"geometry must be a TomoGeometry, got {value!r}")
    if key == "solvers":
        if np.ndim(value) != 1:
            raise ValueError(f"solvers must be a list of solver names, got {value!r}")
        if not value:
            raise ValueError("solvers must list at least one solver")
        for name in value:
            _check_solver_name(name)
        if len(set(value)) < len(value):
            raise ValueError("solvers lists a solver twice, whose runs would write the same files")
    if key == "noise_levels":
        if np.ndim(value) != 1:
            raise ValueError(f"noise_levels must be a list of numbers, got {value!r}")
        stems = {}
        for level in value:
            check_number("noise levels", level, 0)
            stem = f"{level:g}"  # how output file names carry the level
            if stem in stems:
                raise ValueError(f"noise levels {stems[stem]!r} and {level!r} would write "
                                 f"the same files (both print as {stem})")
            stems[stem] = level
    if key in ("repetitions", "seed"):
        check_number(key, value, 0, integer=True)
    if key == "out" and (not isinstance(value, (str, os.PathLike)) or value == ""):
        raise ValueError(f"out must name a directory, got {value!r}")
    if key == "timing" and value not in TIMING_MODES:
        raise ValueError(f"timing must be one of {', '.join(TIMING_MODES)}, got {value!r}")
    if key == "solver_overrides":
        for name, knobs in value.items():
            _check_solver_name(name)
            for knob, knob_value in knobs.items():
                if knob not in SOLVER_KNOBS:
                    raise ValueError(f"unknown solver knob '{knob}' for {name}")
                _check_solver_knob(name, knob, knob_value)


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
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ValueError(f"{key} must list at least one item")
    return items


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
        return _SOLVER_KEYS, partial(_check_solver_knob, name)
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
