"""Experiment configuration: a single JSON document, digested for provenance."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, asdict

from .errors import ConfigError
from .lattice import BoxGeometry

EXPERIMENT_KINDS = (
    "eigencorrelator",
    "lr-bound",
    "pq-bound",
    "quasi-locality",
    "correlations",
    "energy-density",
    "gap-stats",
)

#: Kinds that aggregate observables over l1 shells around a center site.
SHELL_KINDS = ("eigencorrelator", "lr-bound", "pq-bound", "correlations")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    lengths: tuple[int, ...] = (100,)
    k_max: float = 1.0
    disorder_kind: str = "uniform"
    table_u: tuple[float, ...] | None = None
    table_k: tuple[float, ...] | None = None
    seed: int = 1
    lambda0: float | str = "full"
    kappa: int = 1
    samples: int = 100
    workers: int = 1
    time_points: int = 400
    t_max: float | None = 20.0
    amplitude: float = 1.0
    center: tuple[int, ...] | None = None
    shells: tuple[int, ...] = ()
    n_values: tuple[int, ...] = ()
    powers: tuple[int, ...] = (0,)
    alpha_random: int = 2
    lengths_ladder: tuple[int, ...] = (50, 100, 200)
    lambda_grid_points: int = 50
    lambda_grid_max: float | None = None
    mb_length: int = 4
    mb_occupation: int = 2

    # -- derived helpers -----------------------------------------------------

    def box(self) -> BoxGeometry:
        return BoxGeometry.of_lengths(self.lengths)

    def lambda0_value(self) -> float:
        return float("inf") if self.lambda0 == "full" else float(self.lambda0)

    def center_index(self) -> int:
        box = self.box()
        coord = self.center
        if coord is None:
            coord = tuple((a + b) // 2 for a, b in box.intervals)
        return box.index_of(coord)

    def shell_values(self) -> tuple[int, ...]:
        if self.shells:
            return self.shells
        top = min(40, self.box().diameter() // 2)
        return tuple(range(5, max(top, 6) + 1))

    def n_range(self) -> tuple[int, ...]:
        if self.n_values:
            return self.n_values
        return tuple(range(2, min(21, self.box().diameter() + 1)))

    def digest(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True, default=list)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> dict:
        return asdict(self)

    # -- validation ----------------------------------------------------------

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.experiment!r}")
        if self.samples < 1:
            raise ConfigError("sample_count must be at least 1")
        if self.workers < 1:
            raise ConfigError("worker_count must be at least 1")
        if self.kappa < 0:
            raise ConfigError("kappa must be nonnegative")
        if not self.lengths or any(l < 1 for l in self.lengths):
            raise ConfigError("box lengths must be positive")
        # json.load accepts Infinity and NaN, and NaN passes every sign test below
        for name in ("k_max", "amplitude", "lambda0", "t_max", "lambda_grid_max"):
            value = getattr(self, name)
            if value is not None and value != "full" and not math.isfinite(float(value)):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.lambda0 != "full" and float(self.lambda0) < 0:
            raise ConfigError("lambda0 must be nonnegative or 'full'")
        if self.k_max <= 0:
            raise ConfigError("k_max must be positive")
        if self.time_points < 1:
            raise ConfigError("time grid needs at least one point")
        if self.t_max is not None and self.t_max <= 0:
            raise ConfigError(f"t_max must be positive, got {self.t_max!r}")
        if not set(self.powers) <= {-1, 0, 1}:
            raise ConfigError(f"eigencorrelator powers must be -1, 0 or 1, got {list(self.powers)}")
        if self.amplitude <= 0:
            raise ConfigError("amplitude must be positive")
        # A repeated key would be folded into one row with count samples x
        # repeats and a stderr that treats the copies as independent draws.
        for name in ("shells", "n_values", "powers", "lengths_ladder"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} has repeated entries: {list(values)}")
        if self.experiment in SHELL_KINDS or self.experiment == "quasi-locality":
            box = self.box()
            try:
                center = self.center_index()
            except ValueError as exc:
                raise ConfigError(f"center site outside box: {exc}") from exc
            from .lattice import l1_distances_from

            reach = int(l1_distances_from(box, center).max())
            if self.experiment in SHELL_KINDS and max(self.shell_values()) > reach:
                raise ConfigError("shell distances exceed the box from the center site")
            if self.experiment == "quasi-locality" and max(self.n_range()) > box.diameter():
                raise ConfigError("neighborhood radii exceed the box diameter")
        if self.experiment == "energy-density":
            if not self.lengths_ladder or any(l < 2 for l in self.lengths_ladder):
                raise ConfigError("energy-density needs a ladder of box lengths >= 2")
            if self.lambda_grid_points < 2:
                raise ConfigError("lambda grid needs at least two points")
        if self.experiment == "gap-stats" and self.mb_length < 2:
            raise ConfigError("many-body gap box needs at least two sites")
        if self.mb_occupation < 1:
            raise ConfigError(f"mb_occupation must be at least 1, got {self.mb_occupation!r}")


def _tupled(value, kind=int):
    if value is None:
        return None
    return tuple(kind(v) for v in value)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a validated config from a parsed JSON document."""
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    known = {}
    try:
        known["experiment"] = raw["experiment"]
    except KeyError:
        raise ConfigError("config is missing the 'experiment' field") from None

    box = raw.get("box", {})
    if "lengths" in box:
        known["lengths"] = _tupled(box["lengths"])
    elif "intervals" in box:
        known["lengths"] = tuple(int(b) - int(a) + 1 for a, b in box["intervals"])
        if any(int(a) != 0 for a, _ in box["intervals"]):
            raise ConfigError("boxes are anchored at the origin; use 'lengths'")

    disorder = raw.get("disorder", {})
    if "k_max" in disorder:
        known["k_max"] = float(disorder["k_max"])
    known["disorder_kind"] = disorder.get("kind", "uniform")
    known["table_u"] = _tupled(disorder.get("table_u"), float)
    known["table_k"] = _tupled(disorder.get("table_k"), float)

    grid = raw.get("time_grid", {})
    if "points" in grid:
        known["time_points"] = int(grid["points"])
    if "t_max" in grid:
        known["t_max"] = None if grid["t_max"] is None else float(grid["t_max"])

    shells = raw.get("shells")
    if isinstance(shells, dict):
        known["shells"] = tuple(range(int(shells["min"]), int(shells["max"]) + 1))
    elif shells is not None:
        known["shells"] = _tupled(shells)

    n_values = raw.get("n_values")
    if isinstance(n_values, dict):
        known["n_values"] = tuple(range(int(n_values["min"]), int(n_values["max"]) + 1))
    elif n_values is not None:
        known["n_values"] = _tupled(n_values)

    direct = (
        "seed", "lambda0", "kappa", "samples", "workers", "amplitude",
        "powers", "alpha_random", "lengths_ladder", "lambda_grid_points",
        "lambda_grid_max", "mb_length", "mb_occupation", "center",
    )
    for name in direct:
        if name in raw and raw[name] is not None:
            value = raw[name]
            if name in ("powers", "lengths_ladder"):
                value = _tupled(value)
            elif name == "center":
                value = _tupled(value)
            known[name] = value

    unknown = set(raw) - set(direct) - {"experiment", "box", "disorder", "time_grid", "shells", "n_values"}
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")

    try:
        return ExperimentConfig(**known)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)
