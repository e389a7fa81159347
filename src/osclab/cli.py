"""Command-line entry point.

``osclab run CONFIG --out PATH`` runs the experiment a JSON config
describes, with ``--workers`` as its worker count if given, and writes its
result table.  ``osclab fit RESULT --range A B`` fits C e^{-mu d} to the
means of a JSON result table whose first key d lies in [A, B] and prints
mu_hat, C_hat, R^2 and the number of points; a table of several quantities
needs ``--quantity``.  A malformed config or result file, a worker count
below one, a fit range that selects too few positive means or several
quantities, or a failed accuracy check exits with code 2 and a one-line
message on standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import load_config
from .ensembles import run_ensemble
from .errors import ConfigError, NumericError
from .results import emit, fit_exponential, load


def _run(args):
    config = load_config(args.config)
    if args.workers is not None:
        config = dataclasses.replace(config, workers=args.workers)
    emit(run_ensemble(config), args.format, args.out)


def _fit(args):
    fit = fit_exponential(load(args.result), args.range, args.quantity)
    for name in ("mu_hat", "c_hat", "r_squared", "n_points"):
        print(f"{name} {getattr(fit, name):.17g}")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="osclab", description="Numerical laboratory for disordered harmonic lattices.")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the experiment of a JSON config and write its result table")
    run.add_argument("config", help="path of the JSON config")
    run.add_argument("--out", required=True, help="path of the result table")
    run.add_argument("--format", choices=("csv", "json"), default="csv", help="table format (default: csv)")
    run.add_argument(
        "--workers",
        type=int,
        help="worker processes, at most one per sample and per usable core (default: the config's); at one, "
        "eigenvalue-only ensembles on chains run their samples on threads; the table is the same either way",
    )
    run.set_defaults(action=_run, errors=(ConfigError, NumericError, OSError))
    fit = commands.add_parser("fit", help="fit an exponential decay to a JSON result table")
    fit.add_argument("result", help="path of a result table written with --format json")
    fit.add_argument("--range", nargs=2, type=float, required=True, metavar=("A", "B"), help="fit the keys in [A, B]")
    fit.add_argument("--quantity", help="fit the rows of this quantity (needed where the table holds several)")
    fit.set_defaults(action=_fit, errors=(OSError, ValueError))
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.action(args)
    except args.errors as exc:
        print(f"osclab: {type(exc).__name__}: {exc}".splitlines()[0], file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
