"""Command-line interface.

Subcommands: sweep (the solver x noise grid, or one solver and one noise
level with --solver and --noise) and verify (built-in self checks).  Flags
override the corresponding config values.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import selfcheck
from .config import SOLVER_NAMES, TIMING_MODES, ConfigError, parse_config
from .experiment import SUMMARY_HEADER, run_experiment


def _seed(text) -> int:
    """verify's --seed: an integer >= 0, as numpy's generators need."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsenewton",
        description="l1-sparse tomography reconstruction benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run the full solver x noise sweep")
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--out", help="output directory (overrides the config)")
    p.add_argument("--seed", type=int, help="base seed (overrides the config)")
    p.add_argument("--solver", choices=SOLVER_NAMES, help="restrict to one solver")
    p.add_argument("--noise", type=float, help="restrict to one noise level")
    p.add_argument("--timing", choices=TIMING_MODES,
                   help="wall-clock columns or zeros (byte-reproducible)")

    p = sub.add_parser("verify", help="run the built-in self checks")
    p.add_argument("--seed", type=_seed, default=0)
    return parser


def _load_config(args):
    """The parsed config with the flags applied; the flags go through the
    same ExperimentConfig checks as the file.  --solver and --noise each
    restrict the sweep to the one value given."""
    config = parse_config(args.config)
    changes = {"out": args.out, "seed": args.seed, "timing": args.timing,
               "solvers": None if args.solver is None else [args.solver],
               "noise_levels": None if args.noise is None else [args.noise]}
    try:
        return replace(config, **{key: value for key, value in changes.items()
                                  if value is not None})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _cmd_run(args) -> int:
    config = _load_config(args)
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
        return 0 if selfcheck.run_all(args.seed) else 1  # verify, the other sub-command
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
