"""Experiment file parsing and validation diagnostics."""

import re
import textwrap

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sparsenewton import (
    ConfigError,
    ExperimentConfig,
    ProblemData,
    SolverConfig,
    SparseMatrix,
    TomoGeometry,
    experiment,
    parse_config,
)
from sparsenewton.experiment import parse_experiment_value
from sparsenewton.solvers import SOLVER_KNOBS, run_newton

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
        alpha = 0.02
        omega = auto
        """))
    assert cfg.geometry.spacing == 0.5
    assert cfg.noise_levels == [0.05, 0.1]
    assert cfg.repetitions == 2
    assert cfg.seed == 7
    assert cfg.out == "run1"
    assert cfg.timing == "off"
    assert cfg.solver_overrides["newton"] == {
        "epsilon": "auto", "tau": 1.5, "max_iter": 30}
    assert cfg.solver_overrides["fista"] == {"alpha": 0.02, "omega": "auto"}


def test_zero_repetitions_allowed(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL + "repetitions = 0\n"))
    assert cfg.repetitions == 0


def test_config_error_is_value_error():
    assert issubclass(ConfigError, ValueError)


@pytest.mark.parametrize("extra,message", [
    ("[solver.ista]\ntau = 0.9\n", r"line 9: tau must exceed 1"),
    ("[solver.lm]\nlm_decay = 0.5\n", r"line 9: unknown key 'lm_decay' in section \[solver.lm\]"),
    ("[solver.ista]\nomega = -5.0\n", r"line 9: omega must exceed 0, got -5.0"),
    ("[solver.newton]\nepsilon = -1\n", r"line 9: epsilon must be >= 0"),
    ("[solver.gd]\nmax_iter = -3\n", r"line 9: max_iter must be >= 0"),
    ("[solver.fista]\nalpha = 0\n", r"line 9: alpha must exceed 0, got 0.0"),
    ("[solver.fista]\nalpha = inf\n", r"line 9: alpha must be finite, got inf"),
    ("[solver.newton]\ntau = nan\n", r"line 9: tau must be finite, got nan"),
    ("[solver.newton]\ninner_tol = nan\n", r"line 9: inner_tol must be finite, got nan"),
    ("[solver.gd]\ngrad_tol = inf\n", r"line 9: grad_tol must be finite, got inf"),
    ("[solver.newton]\nepsilon = nan\n", r"line 9: epsilon must be finite, got nan"),
    ("[solver.newton]\nepsilon = 0\n", r"line 9: epsilon must be > 0 for newton"),
    ("[solver.ista]\nomega = -inf\n", r"line 9: omega must be finite, got -inf"),
    ("[solver.fista]\nvariant = beta\n", r"line 9: unknown key 'variant' in section \[solver.fista\]"),
    ("[solver.gd]\narmijo_t0 = 1\n", r"line 9: unknown key 'armijo_t0' in section \[solver.gd\]"),
    ("timing = cpu\n", r"line 8: timing must be one of wall, off"),
    ("seed = -1\n", r"line 8: seed must be >= 0, got -1"),
    ("[geometry]\nspacing = nan\n", r"line 9: invalid geometry: spacing must be finite, got nan"),
    ("[geometry]\nspacing = inf\n", r"line 9: invalid geometry: spacing must be finite, got inf"),
    ("[geometry]\nspacing = 0\n", r"line 9: invalid geometry: spacing must exceed 0, got 0.0"),
    ("noise_levels = 0.1, -0.2\n", r"line 8: noise_levels must be >= 0"),
    ("repetitions = -1\n", r"line 8: repetitions must be >= 0"),
    ("noise_levels = 0.1, abc\n", r"noise_levels must be a number, got 'abc'"),
    ("noise_levels = nan\n", r"line 8: noise_levels must be finite, got nan"),
    ("noise_levels = 0.1, 0.1000000001\n",
     r"line 8: noise_levels lists 0.1 and 0.1000000001, which would write the same files"),
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


def test_empty_solver_list(tmp_path):
    with pytest.raises(ConfigError, match=r"^line 7: solvers must list at least one item$"):
        parse_config(write(tmp_path, MINIMAL.replace("ista, newton", ",")))


def test_repeated_solver_is_rejected(tmp_path):
    bad = MINIMAL.replace("ista, newton", "fista, fista")
    message = r"line 7: solvers lists 'fista' and 'fista', which would write the same files"
    with pytest.raises(ConfigError, match=message):
        parse_config(write(tmp_path, bad))


def test_geometry_errors_cite_their_line(tmp_path):
    message = r"line 4: invalid geometry: n_beams must be >= 1, got 0"
    with pytest.raises(ConfigError, match=message):
        parse_config(write(tmp_path, MINIMAL.replace("n_beams = 45", "n_beams = 0")))


def test_non_utf8_file_cites_its_line(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(MINIMAL.encode() + "out = r\u00e9sultats\n".encode("latin-1"))
    with pytest.raises(ConfigError, match=r"line 8: not UTF-8 text"):
        parse_config(path)


def test_invalid_geometry_reported(tmp_path):
    with pytest.raises(ConfigError, match=r"invalid geometry: .*>= 1"):
        parse_config(write(tmp_path, MINIMAL.replace("m = 32", "m = 0")))


def test_bom_and_crlf_file_parses_like_the_plain_file(tmp_path):
    plain = write(tmp_path, MINIMAL + "[solver.newton]\ntau = 1.5\n")
    marked = tmp_path / "bom.cfg"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes().replace(b"\n", b"\r\n"))
    assert parse_config(marked) == parse_config(plain)


def rejection(make):
    """The message make() fails with, or None when it passes."""
    try:
        make()
    except (TypeError, ValueError) as exc:
        return str(exc)
    return None


def unread(parse, text):
    """parse(text), or text itself when parse cannot read it."""
    try:
        return parse(text)
    except ValueError:
        return text


@pytest.mark.parametrize("key", SOLVER_KNOBS)
def test_solver_file_lines_pass_exactly_what_code_passes(tmp_path, key):
    """A [solver.gd] or [solver.newton] line parses exactly when the value it
    parses to passes the method's run (alpha: is "auto" or passes
    ProblemData; gd: SolverConfig; newton: run_newton, which also refuses
    epsilon = 0), with the message an ExperimentConfig built in code gives.
    A text the key's parser cannot read goes to the code paths as the string
    itself."""
    parse = SOLVER_KNOBS[key][0]
    problem = (SparseMatrix(1, 1, [0, 1], [0], [1.0]), [1.0])
    for name in ("gd", "newton"):
        for text in ("0", "1", "1.0000001", "-1", "nan", "inf", "auto", "2.5", "x"):
            value = unread(parse, text)
            path = write(tmp_path, MINIMAL + f"[solver.{name}]\n{key} = {text}\n")
            in_file = rejection(lambda: parse_config(path))
            if in_file is not None:
                assert in_file.startswith("line 9: ")
                in_file = in_file[len("line 9: "):]
            in_code = rejection(lambda: ExperimentConfig(
                TomoGeometry(32, 60, 45), [name], solver_overrides={name: {key: value}}))
            assert in_file == in_code, (name, text)
            if key == "alpha":
                accepted = (value == "auto"
                            or rejection(lambda: ProblemData(*problem, value)) is None)
                assert (in_file is None) == accepted, (name, text)
            elif name == "gd":
                assert in_file == rejection(lambda: SolverConfig(**{key: value})), text
            else:
                assert in_file == rejection(lambda: run_newton(
                    ProblemData(*problem, 1.0), SolverConfig(**{key: value}), 0.0)), text


@pytest.mark.parametrize("key", ["solvers", "noise_levels", "repetitions", "seed", "out", "timing"])
def test_experiment_file_lines_pass_exactly_what_flags_and_code_pass(tmp_path, key):
    """An [experiment] line, the sweep flag of its key (parse_experiment_value)
    and an ExperimentConfig built in code refuse the same texts with the same
    message, and the line and the flag give the same value.  Code gets the
    text as a value, or for a list key the list of its comma-separated parts,
    each converted where it can be and the string itself where not."""
    convert = {"noise_levels": float, "repetitions": int, "seed": int}.get(key, str)
    base = MINIMAL.replace("solvers = ista, newton\n", "") if key == "solvers" else MINIMAL
    for text in ("", ",", "0", "2.5", "-1", "x", "ista", "ista, ista", "newton, lm",
                 "0.1, 0.1000000001", "0.1, 0.2", "wall", "off"):
        path = write(tmp_path, base + f"{key} = {text}\n")
        in_file = rejection(lambda: parse_config(path))
        if in_file is not None:
            in_file = re.sub(r"^line \d+: ", "", in_file)
        assert in_file == rejection(lambda: parse_experiment_value(key, text)), text
        if key in ("solvers", "noise_levels"):
            value = [unread(convert, part) for part in experiment._parse_str_list(text, key)]
        else:
            value = unread(convert, text)
        fields = {"geometry": TomoGeometry(32, 60, 45), "solvers": ["ista"], key: value}
        assert in_file == rejection(lambda: ExperimentConfig(**fields)), text
        if in_file is None:
            assert getattr(parse_config(path), key) == parse_experiment_value(key, text) == value


def test_missing_file_raises_os_error(tmp_path):
    with pytest.raises(OSError):
        parse_config(tmp_path / "absent.cfg")


KEYS = ("m", "n_angles", "n_beams", "spacing", "solvers", "noise_levels", "repetitions",
        "seed", "out", "timing", *SOLVER_KNOBS)
VALUES = ("0", "1", "-1", "2.5", "1e400", "nan", "inf", "auto", "", "wall", "off",
          "ista", "ista, ista", "newton, lm", "0.1, 0.1000000001")
config_lines = st.one_of(
    st.sampled_from(("[geometry]", "[experiment]", "[solver.newton]", "[solver.bfgs]",
                     "[solver.ista", "[]", "# note", "", "= 1")),
    st.builds("{} = {}".format, st.sampled_from(KEYS),
              st.one_of(st.sampled_from(VALUES), st.text(max_size=6))),
    st.text(max_size=12),
)
config_texts = st.builds(lambda head, lines: head + "\n".join(lines),
                         st.sampled_from(("", MINIMAL)), st.lists(config_lines, max_size=12))
config_bytes = st.one_of(config_texts.map(lambda t: t.encode("utf-8", "surrogatepass")),
                         st.binary(max_size=64))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=config_bytes)
def test_parser_raises_nothing_but_config_error(tmp_path, data):
    path = tmp_path / "fuzz.cfg"
    path.write_bytes(data)
    try:
        config = parse_config(path)
    except ConfigError:
        return
    assert isinstance(config, ExperimentConfig)
