"""Experiment file parsing and validation diagnostics."""

import textwrap

import pytest

from sparsenewton import ConfigError, TomoGeometry, parse_config

MINIMAL = """\
[geometry]
m = 32
n_angles = 60
n_beams = 45

[experiment]
solvers = ista, newton
"""


def write(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(textwrap.dedent(text))
    return path


def test_minimal_file_fills_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL))
    assert cfg.geometry == TomoGeometry(32, 60, 45)
    assert cfg.solvers == ["ista", "newton"]
    assert cfg.noise_levels == [0.1]
    assert cfg.repetitions == 1
    assert cfg.seed == 0
    assert cfg.out == "results"
    assert cfg.timing == "wall"
    assert cfg.solver_overrides == {}


def test_full_file_parses(tmp_path):
    cfg = parse_config(write(tmp_path, """\
        # comment line
        [geometry]
        m = 16
        n_angles = 12
        n_beams = 20
        spacing = 0.5

        [experiment]
        solvers = ista, fista, newton
        noise_levels = 0.05, 0.1
        repetitions = 2
        seed = 7
        out = run1
        timing = off

        [solver.newton]
        epsilon = auto
        tau = 1.5
        max_iter = 30

        [solver.fista]
        variant = beta
        omega = auto
        """))
    assert cfg.geometry.detector_spacing == 0.5
    assert cfg.noise_levels == [0.05, 0.1]
    assert cfg.repetitions == 2
    assert cfg.seed == 7
    assert cfg.out == "run1"
    assert cfg.timing == "off"
    assert cfg.solver_overrides["newton"] == {
        "epsilon": "auto", "tau": 1.5, "max_iter": 30}
    assert cfg.solver_overrides["fista"] == {"variant": "beta", "omega": "auto"}


def test_zero_repetitions_allowed(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL + "repetitions = 0\n"))
    assert cfg.repetitions == 0


def test_config_error_is_value_error():
    assert issubclass(ConfigError, ValueError)


@pytest.mark.parametrize("extra,message", [
    ("[solver.ista]\ntau = 0.9\n", r"line 9: tau must exceed 1"),
    ("[solver.fista]\nvariant = heavy-ball\n", r"variant must be 'nesterov-t' or 'beta'"),
    ("timing = cpu\n", r"line 8: timing must be one of wall, off"),
    ("noise_levels = 0.1, -0.2\n", r"line 8: noise levels must be >= 0"),
    ("repetitions = -1\n", r"line 8: repetitions must be >= 0"),
    ("noise_levels = 0.1, abc\n", r"noise_levels must be a number, got 'abc'"),
    ("noise_levels = 0.1, 0.1000000001\n",
     r"line 8: noise levels 0.1 and 0.1000000001 would write the same files"),
    ("[solver.ista]\nripple = 1\n", r"line 9: unknown key 'ripple' in section \[solver.ista\]"),
    ("[trains]\nspeed = 3\n", r"line 8: unknown section \[trains\]"),
    ("[solver.bfgs]\ntau = 2\n", r"line 8: unknown solver 'bfgs'; available: ista"),
    ("[solver.ista\ntau = 2\n", r"line 8: malformed section header"),
    ("just some words\n", r"line 8: expected 'key = value'"),
    ("= 5\n", r"line 8: empty key"),
])
def test_diagnostics_cite_line_numbers(tmp_path, extra, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(write(tmp_path, MINIMAL + extra))


def test_duplicate_key_cites_both_lines(tmp_path):
    with pytest.raises(ConfigError, match=r"line 9: duplicate key 'seed'.*first set on line 8"):
        parse_config(write(tmp_path, MINIMAL + "seed = 1\nseed = 2\n"))


def test_key_before_any_section(tmp_path):
    with pytest.raises(ConfigError, match=r"line 1: key outside any \[section\]"):
        parse_config(write(tmp_path, "m = 32\n" + MINIMAL))


def test_missing_required_key(tmp_path):
    text = "[geometry]\nm = 32\nn_angles = 60\nn_beams = 45\n[experiment]\nseed = 1\n"
    with pytest.raises(ConfigError, match=r"missing required key 'solvers' in section \[experiment\]"):
        parse_config(write(tmp_path, text))


def test_bad_integer_value(tmp_path):
    with pytest.raises(ConfigError, match=r"line 2: m must be an integer, got 'ten'"):
        parse_config(write(tmp_path, MINIMAL.replace("m = 32", "m = ten")))


def test_unknown_solver_in_list(tmp_path):
    bad = MINIMAL.replace("ista, newton", "ista, bfgs")
    with pytest.raises(ConfigError, match=r"line 7: unknown solver 'bfgs'"):
        parse_config(write(tmp_path, bad))


def test_invalid_geometry_reported(tmp_path):
    with pytest.raises(ConfigError, match=r"invalid geometry: .*>= 1"):
        parse_config(write(tmp_path, MINIMAL.replace("m = 32", "m = 0")))


def test_missing_file_raises_os_error(tmp_path):
    with pytest.raises(OSError):
        parse_config(tmp_path / "absent.cfg")
