"""Result tables, their CSV and JSON files, and exponential-decay fits.

An ensemble result is a table keyed by (key fields..., quantity) with the
sample mean, standard error and count per key, plus a metadata block
carrying the config digest, seed and any per-run flags.  The JSON document
also records the code version, at its top level beside the metadata.
CSV output prints floats with 17 significant digits so that byte-identical
reproduction across runs is meaningful; JSON round-trips losslessly.
"""

from __future__ import annotations

import io
import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import __version__


@dataclass(frozen=True)
class ResultRow:
    key: tuple
    mean: float
    stderr: float
    count: int


@dataclass
class EnsembleResult:
    kind: str
    key_fields: tuple[str, ...]
    rows: list[ResultRow]
    metadata: dict = field(default_factory=dict)

    def sorted_rows(self) -> list[ResultRow]:
        def canon(row):
            return tuple(
                (0, float(k), "") if isinstance(k, (int, float, np.integer, np.floating)) else (1, 0.0, str(k))
                for k in row.key
            )

        return sorted(self.rows, key=canon)

    def select(self, quantity: str) -> list[ResultRow]:
        """Rows whose last key component equals ``quantity``, sorted."""
        return [r for r in self.sorted_rows() if r.key[-1] == quantity]

    def __eq__(self, other):
        if not isinstance(other, EnsembleResult):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.key_fields == other.key_fields
            and self.sorted_rows() == other.sorted_rows()
            and self.metadata == other.metadata
        )


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def render_csv(result: EnsembleResult) -> str:
    out = io.StringIO()
    out.write(",".join([*result.key_fields, "mean", "stderr", "count"]) + "\n")
    for row in result.sorted_rows():
        cells = [_format_cell(k) for k in row.key]
        cells += [_format_cell(row.mean), _format_cell(row.stderr), str(row.count)]
        out.write(",".join(cells) + "\n")
    return out.getvalue()


def to_json_document(result: EnsembleResult) -> dict:
    return {
        "config_digest": result.metadata.get("config_digest", ""),
        "seed": result.metadata.get("seed"),
        "version": __version__,
        "kind": result.kind,
        "key_fields": list(result.key_fields),
        "metadata": result.metadata,
        "results": [
            {
                "key": list(row.key),
                "mean": row.mean,
                "stderr": row.stderr,
                "count": row.count,
            }
            for row in result.sorted_rows()
        ],
    }


def result_from_json(doc: dict) -> EnsembleResult:
    rows = [
        ResultRow(
            key=tuple(r["key"]),
            mean=float(r["mean"]),
            stderr=float(r["stderr"]),
            count=int(r["count"]),
        )
        for r in doc["results"]
    ]
    return EnsembleResult(
        kind=doc["kind"],
        key_fields=tuple(doc["key_fields"]),
        rows=rows,
        metadata=doc["metadata"],
    )


def emit(result: EnsembleResult, fmt: str, path) -> None:
    """Write the result table as CSV or JSON."""
    if fmt == "csv":
        payload = render_csv(result)
    elif fmt == "json":
        payload = json.dumps(to_json_document(result), indent=2, sort_keys=True) + "\n"
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write result to {path}: {exc}") from exc


def load(path) -> EnsembleResult:
    """Read a table written by ``emit(result, "json", path)``.

    Raises OSError when the file cannot be read and ValueError when it is
    not such a table.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)  # a JSONDecodeError is a ValueError
    try:
        return result_from_json(doc)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path} is not a result table: {type(exc).__name__} {exc}") from exc


@dataclass(frozen=True)
class DecayFit:
    c_hat: float
    mu_hat: float
    r_squared: float
    fit_range: tuple[float, float]
    n_points: int


def fit_exponential(result: EnsembleResult, fit_range, quantity: str | None = None) -> DecayFit:
    """Least-squares line on (key, log mean): mu_hat = -slope, C_hat = e^intercept.

    Uses rows whose first key component lies in ``fit_range`` = (A, B),
    inclusive, and, when given, whose quantity matches.  Raises ValueError
    unless A <= B, the first key of every row is a number, the rows
    selected have at least 4 distinct keys, all their means are positive
    and, without ``quantity``, they hold one quantity: a line through the
    rows of several would mix their decays.
    """
    lo, hi = float(fit_range[0]), float(fit_range[1])
    if not lo <= hi:
        raise ValueError(f"fit range needs A <= B, got [{lo}, {hi}]")
    rows = result.select(quantity) if quantity is not None else result.sorted_rows()
    for r in rows:
        if not isinstance(r.key[0], numbers.Real):
            raise ValueError(f"fit needs numeric keys, but key field {result.key_fields[0]!r} holds {r.key[0]!r}")
    rows = [r for r in rows if lo <= float(r.key[0]) <= hi]
    pts = [(float(r.key[0]), r.mean) for r in rows]
    if any(m <= 0.0 for _, m in pts):
        raise ValueError("fit range contains nonpositive means")
    keys = len({d for d, _ in pts})
    if keys < 4:
        raise ValueError(f"need at least 4 distinct keys with positive means in range, got {keys} in {len(pts)} rows")
    names = list(dict.fromkeys(r.key[-1] for r in rows))
    if len(names) > 1:
        raise ValueError(f"the rows in range hold {len(names)} quantities ({', '.join(map(str, names))}): fit one by name")
    x = np.array([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot <= 1e-30:
        r2 = 1.0 if ss_res <= 1e-30 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return DecayFit(
        c_hat=float(np.exp(intercept)),
        mu_hat=float(-slope),
        r_squared=r2,
        fit_range=(lo, hi),
        n_points=len(pts),
    )
