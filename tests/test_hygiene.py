"""Source hygiene: every import in the package is used, and the README
matches the knobs, config format and subcommands it documents."""

import argparse
import ast
import re
from pathlib import Path

import pytest

from sparsenewton import parse_config
from sparsenewton.cli import build_parser
from sparsenewton.solvers import SOLVER_KNOBS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sparsenewton"
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


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def readme_block(first_word):
    """The one fenced README block whose text starts with first_word."""
    (block,) = [b for b in re.findall(r"```\n(.*?)```", README, flags=re.S)
                if b.startswith(first_word)]
    return block


def test_readme_knob_table_lists_exactly_the_solver_knobs():
    keys = re.findall(r"^\| `(\w+)` \|", README, flags=re.M)
    assert sorted(keys) == sorted(SOLVER_KNOBS)
    assert f"takes these {len(SOLVER_KNOBS)} keys" in README


def test_readme_config_example_parses(tmp_path):
    path = tmp_path / "readme.cfg"
    path.write_text(readme_block("[geometry]"), encoding="utf-8")
    assert parse_config(path).solver_overrides == {"newton": {"epsilon": "auto", "max_iter": 50}}


def test_readme_command_lines_name_exactly_the_subcommands():
    parser = build_parser()
    (subcommands,) = [a.choices for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)]
    lines = readme_block("sparsenewton ").splitlines()
    assert {line.split()[1] for line in lines} == set(subcommands)
    for line in lines:
        parser.parse_args(line.split()[1:])
