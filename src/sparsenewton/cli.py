"""Command-line interface.

Subcommands: sweep (the solver x noise grid of a config file) and verify
(built-in self checks).  Each of sweep's value flags overrides one
[experiment] key and takes exactly the text that key takes in the file, so
config.py parses and checks every flag value, verify's --seed among them.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import selfcheck
from .config import parse_config, parse_experiment_value
from .experiment import SUMMARY_HEADER, run_experiment

_FLAG_KEYS = ("out", "seed", "solvers", "noise_levels", "timing")  # sweep's flags' dests


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsenewton",
        description="l1-sparse tomography reconstruction benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run the full solver x noise sweep")
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--out", help="overrides out, the output directory")
    p.add_argument("--seed", help="overrides seed, the base seed")
    p.add_argument("--solver", dest="solvers", help="overrides solvers, e.g. lm or ista,lm")
    p.add_argument("--noise", dest="noise_levels", help="overrides noise_levels, e.g. 0.1,0.2")
    p.add_argument("--timing", help="overrides timing: wall, or off for zeros (byte-reproducible)")

    p = sub.add_parser("verify", help="run the built-in self checks")
    p.add_argument("--seed", default="0", help="an integer >= 0, as the config's seed")
    return parser


def _cmd_run(args) -> int:
    """Run the config file's sweep with the given flags applied, each flag's
    text parsed and checked as its [experiment] key's line in the file is."""
    config = replace(parse_config(args.config),
                     **{key: parse_experiment_value(key, getattr(args, key))
                        for key in _FLAG_KEYS if getattr(args, key) is not None})
    rows = run_experiment(config)
    print(SUMMARY_HEADER)
    for row in rows:
        print(row)
    print(f"results written to {config.out}")
    return 1 if any(",error," in row for row in rows) else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return _cmd_run(args)
        # verify, the other sub-command
        return 0 if selfcheck.run_all(parse_experiment_value("seed", args.seed)) else 1
    except ValueError as exc:  # a refused input: the config, a flag or a size limit
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
