"""Experiment configuration: a single JSON document, digested for provenance."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, asdict

from .anderson import DisorderConfig
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

#: Fields that hold an integer, and fields that hold a tuple of integers (or None).
_INTEGER_FIELDS = (
    "seed", "kappa", "samples", "workers", "time_points", "alpha_random",
    "lambda_grid_points", "mb_length", "mb_occupation",
)
_INTEGER_TUPLES = ("lengths", "center", "shells", "n_values", "powers", "lengths_ladder")


def _is_integer(value) -> bool:
    """True for an int: a bool is an int to Python, and int() would truncate a fraction."""
    return isinstance(value, int) and not isinstance(value, bool)


def _real(value, name: str) -> float:
    """float(value) for a real-valued field; a bool, which float() reads as 0 or 1, is a ConfigError."""
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


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

    def disorder(self) -> DisorderConfig:
        return DisorderConfig(
            k_max=self.k_max, master_seed=self.seed, kind=self.disorder_kind, table_u=self.table_u, table_k=self.table_k
        )

    def lambda0_value(self) -> float:
        return float("inf") if self.lambda0 == "full" else float(self.lambda0)

    def center_coord(self) -> tuple[int, ...]:
        """``center``, or by default the midpoint of the box, rounded down."""
        if self.center is not None:
            return self.center
        return tuple((a + b) // 2 for a, b in self.box().intervals)

    def center_index(self) -> int:
        return self.box().index_of(self.center_coord())

    def reach(self) -> int:
        """Largest l1 distance from the center site to a site of the box: per axis, to the farther end."""
        return sum(max(c - a, b - c) for c, (a, b) in zip(self.center_coord(), self.box().intervals))

    def shell_values(self) -> tuple[int, ...]:
        """``shells``, or by default the distances 5..max(min(40, diameter // 2), 6)
        clipped to the reach from the center, and 1..reach when that leaves none."""
        if self.shells:
            return self.shells
        reach = self.reach()
        top = min(max(min(40, self.box().diameter() // 2), 6), reach)
        return tuple(range(5, top + 1)) if top >= 5 else tuple(range(1, reach + 1))

    def n_range(self) -> tuple[int, ...]:
        if self.n_values:
            return self.n_values
        return tuple(range(2, min(21, self.box().diameter() + 1)))

    def digest(self) -> str:
        """Hash of every field but ``workers``, which no number of the result depends on."""
        fields = asdict(self)
        del fields["workers"]
        payload = json.dumps(fields, sort_keys=True, default=list)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    # -- validation ----------------------------------------------------------

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.experiment!r}")
        for name in _INTEGER_FIELDS:
            if not _is_integer(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in _INTEGER_TUPLES:
            values = getattr(self, name)
            if values is not None and not all(map(_is_integer, values)):
                raise ConfigError(f"{name} must be a list of integers, got {list(values)!r}")
        if self.samples < 1:
            raise ConfigError("sample_count must be at least 1")
        if self.workers < 1:
            raise ConfigError("worker_count must be at least 1")
        if self.kappa < 0:
            raise ConfigError("kappa must be nonnegative")
        if not self.lengths or any(l < 1 for l in self.lengths):
            raise ConfigError("box lengths must be positive")
        # json.load accepts Infinity and NaN, and NaN passes every sign test below
        for name in ("amplitude", "lambda0", "t_max", "lambda_grid_max"):
            value = getattr(self, name)
            if value is not None and value != "full" and not math.isfinite(_real(value, name)):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.lambda0 != "full" and float(self.lambda0) < 0:
            raise ConfigError("lambda0 must be nonnegative or 'full'")
        # k_max, the disorder kind and an inverse-CDF table are checked here, not at the first sample
        self.disorder()
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
        # a negative distance or radius selects no site: a NaN row, or a row for no neighborhood
        for name in ("shells", "n_values"):
            if any(v < 0 for v in getattr(self, name)):
                raise ConfigError(f"{name} must be nonnegative, got {list(getattr(self, name))}")
        if self.experiment in SHELL_KINDS or self.experiment == "quasi-locality":
            try:
                self.center_index()
            except ValueError as exc:
                raise ConfigError(f"center site outside box: {exc}") from exc
            reach = self.reach()
            if self.experiment in SHELL_KINDS:
                shells = self.shell_values()
                if not shells:
                    raise ConfigError("a one-site box has no shell around its center")
                if max(shells) > reach:
                    raise ConfigError("shell distances exceed the box from the center site")
            if self.experiment == "quasi-locality":
                diameter = self.box().diameter()
                if not self.n_range():
                    raise ConfigError(f"no neighborhood radius n >= 2 fits a box of diameter {diameter}")
                if max(self.n_range()) > diameter:
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


def _floats(value, name: str):
    return None if value is None else tuple(_real(v, name) for v in value)


def _section(raw: dict, name: str, keys) -> dict:
    """The object ``raw[name]``, or {} when absent; any key outside ``keys`` is a ConfigError."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name!r} must be a JSON object, got {section!r}")
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {name} fields: {sorted(unknown)}")
    return section


def _distances(raw: dict, name: str):
    """A list of distances, or the inclusive range {"min": a, "max": b}; None when absent."""
    value = raw.get(name)
    if not isinstance(value, dict):
        return None if value is None else tuple(value)
    bounds = _section(raw, name, ("min", "max"))
    if len(bounds) != 2:
        raise ConfigError(f"{name} range needs both 'min' and 'max', got {sorted(bounds)}")
    if not all(map(_is_integer, bounds.values())):
        raise ConfigError(f"{name} range bounds must be integers, got {bounds!r}")
    return tuple(range(bounds["min"], bounds["max"] + 1))


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a validated config from a parsed JSON document."""
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    if "experiment" not in raw:
        raise ConfigError("config is missing the 'experiment' field")
    direct = (
        "seed", "lambda0", "kappa", "samples", "workers", "amplitude",
        "powers", "alpha_random", "lengths_ladder", "lambda_grid_points",
        "lambda_grid_max", "mb_length", "mb_occupation", "center",
    )
    unknown = set(raw) - set(direct) - {"experiment", "box", "disorder", "time_grid", "shells", "n_values"}
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    box = _section(raw, "box", ("lengths",))
    disorder = _section(raw, "disorder", ("k_max", "kind", "table_u", "table_k"))
    grid = _section(raw, "time_grid", ("points", "t_max"))

    # float() and tuple() raise TypeError, ValueError or (on a huge integer) OverflowError
    # for an ill-typed value, and the validation in ExperimentConfig may raise the first two
    try:
        known = {"experiment": raw["experiment"]}
        if "lengths" in box:
            known["lengths"] = tuple(box["lengths"])
        if "k_max" in disorder:
            known["k_max"] = _real(disorder["k_max"], "k_max")
        known["disorder_kind"] = disorder.get("kind", "uniform")
        known["table_u"] = _floats(disorder.get("table_u"), "table_u")
        known["table_k"] = _floats(disorder.get("table_k"), "table_k")
        if "points" in grid:
            known["time_points"] = grid["points"]
        if "t_max" in grid:
            known["t_max"] = None if grid["t_max"] is None else _real(grid["t_max"], "t_max")
        for name in ("shells", "n_values"):
            values = _distances(raw, name)
            if values is not None:
                known[name] = values
        for name in direct:
            if raw.get(name) is not None:
                value = raw[name]
                known[name] = tuple(value) if name in ("powers", "lengths_ladder", "center") else value
        return ExperimentConfig(**known)
    except (TypeError, ValueError, OverflowError) as exc:
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
