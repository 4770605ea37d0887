"""Command-line interface.

Subcommands: solve (one solver, one noise level), sweep (full solver x noise
grid) and verify (built-in self checks).  Flags override the corresponding
config values.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import selfcheck
from .config import SOLVER_NAMES, ConfigError, parse_config
from .experiment import SUMMARY_HEADER, run_experiment


def _seed(text) -> int:
    """verify's --seed: an integer >= 0, as numpy's generators need."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _add_common(parser):
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--out", help="output directory (overrides the config)")
    parser.add_argument("--seed", type=int, help="base seed (overrides the config)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsenewton",
        description="l1-sparse tomography reconstruction benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one solver at one noise level")
    _add_common(p)
    p.add_argument("--solver", required=True, choices=SOLVER_NAMES)
    p.add_argument("--noise", type=float, help="relative noise level (default: first configured)")
    p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("sweep", help="run the full solver x noise sweep")
    _add_common(p)
    p.add_argument("--solver", choices=SOLVER_NAMES, help="restrict to one solver")
    p.add_argument("--noise", type=float, help="restrict to one noise level")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--timing", choices=("wall", "off"),
                   help="wall-clock columns or zeros (byte-reproducible)")

    p = sub.add_parser("verify", help="run the built-in self checks")
    p.add_argument("--seed", type=_seed, default=0)
    return parser


def _load_config(args):
    """The parsed config with the flags applied; the flags go through the
    same ExperimentConfig checks as the file.  solve keeps one noise level:
    --noise, else the first configured."""
    config = parse_config(args.config)
    noise = args.noise
    if noise is None and args.command == "solve":
        noise = config.noise_levels[0]
    changes = {"out": args.out, "seed": args.seed, "timing": getattr(args, "timing", None),
               "solvers": None if args.solver is None else [args.solver],
               "noise_levels": None if noise is None else [noise]}
    try:
        return replace(config, **{key: value for key, value in changes.items()
                                  if value is not None})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _cmd_run(args) -> int:
    config = _load_config(args)
    rows = run_experiment(config, threads=args.threads)
    print(SUMMARY_HEADER)
    for row in rows:
        print(row)
    print(f"results written to {config.out}")
    return 1 if any(",error," in row for row in rows) else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("solve", "sweep"):
            return _cmd_run(args)
        if args.command == "verify":
            return 0 if selfcheck.run_all(args.seed) else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
