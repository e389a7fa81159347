"""Command-line entry point: ``osclab run CONFIG --out PATH``.

Runs the experiment a JSON config describes and writes its result table.
A malformed config or a failed accuracy check exits with code 2 and a
one-line message on standard error.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .ensembles import run_ensemble
from .errors import ConfigError, NumericError
from .results import emit


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="osclab", description="Numerical laboratory for disordered harmonic lattices.")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the experiment of a JSON config and write its result table")
    run.add_argument("config", help="path of the JSON config")
    run.add_argument("--out", required=True, help="path of the result table")
    run.add_argument("--format", choices=("csv", "json"), default="csv", help="table format (default: csv)")
    run.add_argument("--workers", type=_positive_int, help="worker processes (default: the config's)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        result = run_ensemble(load_config(args.config), workers=args.workers)
        emit(result, args.format, args.out)
    except (ConfigError, NumericError, OSError) as exc:
        print(f"osclab: {type(exc).__name__}: {exc}".splitlines()[0], file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
