"""Line-oriented experiment configuration.

Format: ``[section]`` headers, ``key = value`` lines, ``#`` comment lines
(whole-line only), UTF-8.  Sections are ``[geometry]``, ``[experiment]`` and
one optional ``[solver.<name>]`` per solver.  Unknown sections or keys,
duplicate keys and malformed values are hard errors that cite line numbers.

Minimal valid file::

    [geometry]
    m = 32
    n_angles = 60
    n_beams = 45

    [experiment]
    solvers = ista, newton

Defaults fill in everything else: noise_levels = 0.1, repetitions = 1,
seed = 0, out = results, timing = wall.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .solvers import FISTA_VARIANTS, SOLVER_KNOBS, SOLVER_NAMES
from .tomo import TomoGeometry

_TIMING_MODES = ("wall", "off")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    geometry: TomoGeometry
    solvers: list
    noise_levels: list = field(default_factory=lambda: [0.1])
    repetitions: int = 1
    seed: int = 0
    out: str = "results"
    timing: str = "wall"
    solver_overrides: dict = field(default_factory=dict)


def _parse(parse, text, line_no, key):
    """parse(text), reporting a malformed value against its line."""
    try:
        return parse(text)
    except ValueError:
        kind = "an integer" if parse is int else "a number"
        raise ConfigError(f"line {line_no}: {key} must be {kind}, got '{text}'") from None


def _parse_str_list(text, line_no, key):
    items = [part.strip() for part in text.split(",")]
    items = [part for part in items if part]
    if not items:
        raise ConfigError(f"line {line_no}: {key} must list at least one item")
    return items


def _parse_float_list(text, line_no, key):
    return [_parse(float, part, line_no, key) for part in _parse_str_list(text, line_no, key)]


_GEOMETRY_KEYS = {"m": partial(_parse, int), "n_angles": partial(_parse, int),
                  "n_beams": partial(_parse, int), "spacing": partial(_parse, float)}
_EXPERIMENT_KEYS = {"solvers": _parse_str_list, "noise_levels": _parse_float_list,
                    "repetitions": partial(_parse, int), "seed": partial(_parse, int),
                    "out": partial(_parse, str), "timing": partial(_parse, str)}
_SOLVER_KEYS = {key: partial(_parse, parse) for key, (parse, _) in SOLVER_KNOBS.items()}


def _section_schema(section, line_no):
    if section == "geometry":
        return _GEOMETRY_KEYS
    if section == "experiment":
        return _EXPERIMENT_KEYS
    if section.startswith("solver."):
        name = section[len("solver."):]
        if name not in SOLVER_NAMES:
            raise ConfigError(
                f"line {line_no}: unknown solver '{name}'; available: {', '.join(SOLVER_NAMES)}"
            )
        return _SOLVER_KEYS
    raise ConfigError(f"line {line_no}: unknown section [{section}]")


def parse_config(path) -> ExperimentConfig:
    """Parse and validate an experiment file; raises ConfigError on any defect."""
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.readlines()

    entries = {}  # (section, key) -> (value, line_no)
    section = None
    schema = None
    for line_no, raw in enumerate(raw_lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {line_no}: malformed section header '{line}'")
            section = line[1:-1].strip()
            schema = _section_schema(section, line_no)
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got '{line}'")
        if section is None:
            raise ConfigError(f"line {line_no}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {line_no}: empty key")
        if key not in schema:
            raise ConfigError(f"line {line_no}: unknown key '{key}' in section [{section}]")
        if (section, key) in entries:
            first = entries[(section, key)][1]
            raise ConfigError(
                f"line {line_no}: duplicate key '{key}' in section [{section}] "
                f"(first set on line {first})"
            )
        entries[(section, key)] = (schema[key](value, line_no, key), line_no)

    def take(section, key, default=None):
        return entries.pop((section, key), (default, None))

    required = [("geometry", "m"), ("geometry", "n_angles"), ("geometry", "n_beams"),
                ("experiment", "solvers")]
    for sec, key in required:
        if (sec, key) not in entries:
            raise ConfigError(f"missing required key '{key}' in section [{sec}]")

    m, _ = take("geometry", "m")
    n_angles, _ = take("geometry", "n_angles")
    n_beams, _ = take("geometry", "n_beams")
    spacing, _ = take("geometry", "spacing")
    try:
        geometry = TomoGeometry(m, n_angles, n_beams, spacing)
    except ValueError as exc:
        raise ConfigError(f"invalid geometry: {exc}") from None

    solvers, solvers_line = take("experiment", "solvers")
    for name in solvers:
        if name not in SOLVER_NAMES:
            raise ConfigError(
                f"line {solvers_line}: unknown solver '{name}'; "
                f"available: {', '.join(SOLVER_NAMES)}"
            )
    noise_levels, noise_line = take("experiment", "noise_levels", [0.1])
    stems = {}
    for level in noise_levels:
        if level < 0.0:
            raise ConfigError(f"line {noise_line}: noise levels must be >= 0")
        stem = f"{level:g}"  # how output file names carry the level
        if stem in stems:
            raise ConfigError(f"line {noise_line}: noise levels {stems[stem]!r} and "
                              f"{level!r} would write the same files (both print as {stem})")
        stems[stem] = level
    repetitions, rep_line = take("experiment", "repetitions", 1)
    if repetitions < 0:
        raise ConfigError(f"line {rep_line}: repetitions must be >= 0")
    seed, _ = take("experiment", "seed", 0)
    out, _ = take("experiment", "out", "results")
    timing, timing_line = take("experiment", "timing", "wall")
    if timing not in _TIMING_MODES:
        raise ConfigError(
            f"line {timing_line}: timing must be one of {', '.join(_TIMING_MODES)}"
        )

    overrides = {}
    for (sec, key), (value, line_no) in entries.items():
        name = sec[len("solver."):]
        if key == "tau" and value <= 1.0:
            raise ConfigError(f"line {line_no}: tau must exceed 1")
        if key == "variant" and value not in FISTA_VARIANTS:
            choices = " or ".join(f"'{v}'" for v in FISTA_VARIANTS)
            raise ConfigError(f"line {line_no}: variant must be {choices}, got '{value}'")
        overrides.setdefault(name, {})[key] = value

    return ExperimentConfig(geometry, solvers, noise_levels, repetitions,
                            seed, out, timing, overrides)
