"""Source hygiene: every import in the package and its tests is used, no
module takes a private name of another, each test file is named for the
module it tests, the README matches the knobs, config format and subcommands
it documents, the benchmark's tracer still finds every name it wraps, and the
sweep digest and code line tools work."""

import argparse
import ast
import dataclasses
import json
import re
import sys
import types
from pathlib import Path

import pytest

from sparsenewton import ExperimentConfig, SolverConfig, TomoGeometry, experiment, parse_config
from sparsenewton.cli import build_parser
from sparsenewton.solvers import SOLVER_KNOBS, SOLVER_NAMES

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sparsenewton"
TESTS = ROOT / "tests"
README = (ROOT / "README.md").read_text(encoding="utf-8")
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names a module imports but never reads (``__future__`` imports aside)."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_import_check_finds_a_leftover():
    source = "from pathlib import Path\nimport numpy as np\nimport os.path\nnp.ones(os.path.sep)\n"
    assert unused_imports(source) == ["Path"]


@pytest.mark.parametrize("path", [*(PACKAGE / m for m in MODULES), *sorted(TESTS.glob("*.py"))],
                         ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_each_test_file_is_named_for_a_module():
    """A module's tests live in tests/test_<module>.py; the acceptance battery,
    these hygiene checks and test_config.py are the only other test files.
    test_config.py holds the tests of the experiment-file format that
    experiment.py parses, kept apart so that its 62 test ids keep their names."""
    names = {p.stem.removeprefix("test_") for p in TESTS.glob("test_*.py")}
    assert names - {Path(m).stem for m in MODULES} <= {"acceptance", "config", "hygiene"}


def test_no_module_imports_a_private_name_of_another():
    """A name with a leading underscore stays inside its module: no relative
    import in the package reaches for one."""
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert private == []


def readme_block(first_word):
    """The one fenced README block whose text starts with first_word."""
    (block,) = [b for b in re.findall(r"```\n(.*?)```", README, flags=re.S)
                if b.startswith(first_word)]
    return block


def test_readme_knob_table_lists_exactly_the_solver_knobs():
    """Each knob's row gives its range and, in the default column, exactly
    the methods that read it with their defaults."""
    rows = re.findall(r"^\| `(\w+)` \| (.*?) \| (.*?) \|", README, flags=re.M)
    assert sorted(key for key, _, _ in rows) == sorted(SOLVER_KNOBS)
    assert f"takes these {len(SOLVER_KNOBS)} keys" in README
    for key, range_text, default_text in rows:
        parse, floor, floor_allowed, readers = SOLVER_KNOBS[key]
        expected = ("integer " if parse is int else "") + f"`{'>=' if floor_allowed else '>'} {floor}`"
        try:
            expected += " or `auto`" if parse("auto") == "auto" else ""
        except ValueError:
            pass
        assert range_text == expected, key
        defaults = {}
        for group in default_text.split("; "):
            names, value = re.fullmatch(r"([\w, ]+) `([^`]+)`", group).groups()
            defaults |= dict.fromkeys(names.split(", "), parse(value))
        assert defaults == readers, key


def test_each_solver_knob_has_one_default():
    """A knob's default is stated once, in its SOLVER_KNOBS row: every knob
    field of SolverConfig is None until for_method, which gives a method the
    row's default for each knob it reads and leaves the others None."""
    knobs = {f.name: f.default for f in dataclasses.fields(SolverConfig) if f.name in SOLVER_KNOBS}
    assert set(knobs.values()) == {None}
    for name in SOLVER_NAMES:
        cfg = SolverConfig().for_method(name)
        for key in knobs:
            assert getattr(cfg, key) == SOLVER_KNOBS[key][3].get(name), (key, name)


def test_readme_config_example_parses(tmp_path):
    path = tmp_path / "readme.cfg"
    path.write_text(readme_block("[geometry]"), encoding="utf-8")
    assert parse_config(path).solver_overrides == {"newton": {"epsilon": "auto", "max_iter": 50}}


def subcommands(parser):
    """The parser's sub-parsers by name."""
    (choices,) = [a.choices for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
    return choices


def test_readme_command_lines_name_exactly_the_subcommands():
    parser = build_parser()
    lines = readme_block("sparsenewton ").splitlines()
    assert {line.split()[1] for line in lines} == set(subcommands(parser))
    for line in lines:
        parser.parse_args(line.split()[1:])


def test_readme_names_every_config_key_and_sweep_option():
    for key in [*experiment._GEOMETRY_KEYS, *experiment._EXPERIMENT_KEYS]:
        assert re.search(rf"`{key}`|^{key} = ", README, flags=re.M), key
    for action in subcommands(build_parser())["sweep"]._actions:
        if not isinstance(action, argparse._HelpAction):
            for option in action.option_strings:
                assert re.search(rf"{option}\b", README), option


def module_from_text(relative_path):
    """The module at ROOT / relative_path, compiled from its text, so that no
    bytecode is written beside it.  While it runs it stands in sys.modules
    under its name, as an imported module does (dataclasses look it up)."""
    path = ROOT / relative_path
    module = types.ModuleType(path.stem)
    module.__file__ = str(path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, module.__name__, module)
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_every_benchmark_trace_wrapper_fires(tmp_path):
    """perfbench/tracing.py wraps program names where the program looks them
    up; a refactor that stops calling one of them must fail here too."""
    tracing = module_from_text("perfbench/tracing.py")
    tracer = tracing.Tracer()
    patches, names = tracing.install(tracer)
    try:
        experiment.run_experiment(ExperimentConfig(TomoGeometry(8, 12, 10), list(SOLVER_NAMES),
                                                   [0.01], out=str(tmp_path), timing="off"))
    finally:
        patches.restore()
    assert [name for name in names if tracer.counts[name] == 0] == []


def test_benchmark_sweep_check_passes_a_small_sweep(tmp_path, monkeypatch):
    """perfbench/run.py's own sweep and check_sweep, which read CellResult
    fields and patch experiment._run_cell, accept every cell of a small
    sweep; a change that breaks them must fail here too."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # run.py sets them at import
    for name in ("speed", "workloads", "tracing"):
        monkeypatch.setitem(sys.modules, name, module_from_text(f"perfbench/{name}.py"))
    run = module_from_text("perfbench/run.py")
    config = ExperimentConfig(TomoGeometry(8, 12, 10), list(SOLVER_NAMES), [0.01], timing="off")
    _, rows, results = run.sweep(config, tmp_path / "sweep")
    gate = run.Gate()
    run.check_sweep(gate, config, experiment.build_instances(config), rows, results, "sweep")
    assert gate.problems == []
    assert gate.attempted == len(SOLVER_NAMES)


def test_sweep_digest_covers_the_benchmark_and_repeats_itself(tmp_path):
    """tools/sweep_digest.py sweeps every benchmark workload, and two runs of
    one config give equal digests, also when the config asks for wall times."""
    tool = module_from_text("tools/sweep_digest.py")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(tool.load_workloads()) == {w["name"] for w in benchmark["workloads"]}
    config = ExperimentConfig(TomoGeometry(8, 12, 10), list(SOLVER_NAMES), [0.01], timing="wall")
    first, second = (tool.sweep_digest(dataclasses.replace(config, out=str(tmp_path / run)))
                     for run in "ab")
    assert first == second
    assert len(first) == 2 * len(SOLVER_NAMES) + 1 and "summary.csv" in first


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    """tools/code_lines.py counts the import, the def and all five lines of
    the call, the string inside it included, and nothing else."""
    tool = module_from_text("tools/code_lines.py")
    source = "\n".join([
        '"""A module docstring',
        'over two lines."""',
        "",
        "import os  # a comment after code",
        "",
        "# a comment line",
        "def f(x):",
        '    """A function docstring."""',
        "    return os.path.join(",
        "        x,",
        '        """a string',
        'over two lines""",',
        "    )",
        "",
    ])
    assert tool.count_code_lines(source) == 7
