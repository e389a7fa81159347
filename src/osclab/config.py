"""Experiment configuration: a single JSON document, digested for provenance.

A document is a JSON object whose keys are the fields of ``ExperimentConfig``,
but for the sections ``box``, ``disorder`` and ``time_grid`` (``_SECTIONS``).
``experiment``, one of ``KINDS``, is required; an absent key takes its default.
``null`` is allowed only where the field may be None.  An integer must be a JSON
integer and a real any finite JSON number, stored as a float, so ``2`` and
``2.0`` give one digest; a bool is neither.  ``shells`` and ``n_values`` also
take the range ``{"min": a, "max": b}``, and no selection may be empty.  Any
other value is a ConfigError whose message starts with the field's name.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, asdict, fields
from functools import cached_property, partial

from .anderson import DisorderConfig
from .errors import ConfigError
from .lattice import BoxGeometry

#: Each experiment kind and the key fields of its result rows.  The first key field also names the
#: selection a kind reads: shells ("distance"), radii ("n") or the ladder of box lengths ("L").
KINDS = {
    "eigencorrelator": ("distance", "quantity"),
    "lr-bound": ("distance", "quantity"),
    "pq-bound": ("distance", "quantity"),
    "correlations": ("distance", "quantity"),
    "quasi-locality": ("n", "quantity"),
    "energy-density": ("L", "quantity"),
    "gap-stats": ("quantity",),
}

#: Most many-body occupation vectors, (mb_occupation + 1)^mb_length, that gap-stats enumerates.  They are
#: one int64 array of vectors x mb_length entries, and the energies' one float copy of it: a sample peaked
#: at 17.3 MB traced at 2^16 vectors x 16 modes, the most entries this count allows (box [12]).
MAX_MANY_BODY_STATES = 100_000

#: l1 distances or radii, which a document may also give as a {"min", "max"} range.
Distances = tuple[int, ...]


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    lengths: tuple[int, ...] = (100,)
    k_max: float = 1.0
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
    shells: Distances = ()
    n_values: Distances = ()
    powers: tuple[int, ...] = (0,)
    alpha_random: int = 2
    lengths_ladder: tuple[int, ...] = (50, 100, 200)
    mb_length: int = 4
    mb_occupation: int = 2

    # -- derived helpers -----------------------------------------------------

    def box(self) -> BoxGeometry:
        return BoxGeometry(self.lengths)

    @cached_property
    def disorder(self) -> DisorderConfig:
        """The law of k, built and checked once per config."""
        return DisorderConfig(k_max=self.k_max, master_seed=self.seed, table_u=self.table_u, table_k=self.table_k)

    def lambda0_value(self) -> float:
        return float("inf") if self.lambda0 == "full" else self.lambda0

    def center_coord(self) -> tuple[int, ...]:
        """``center``, or by default the midpoint of the box, rounded down."""
        if self.center is not None:
            return self.center
        return tuple((l - 1) // 2 for l in self.lengths)

    def center_index(self) -> int:
        return self.box().index_of(self.center_coord())

    def reach(self) -> int:
        """Largest l1 distance from the center site to a site of the box: per axis, to the farther end."""
        return sum(max(c, l - 1 - c) for c, l in zip(self.center_coord(), self.lengths))

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
        state = asdict(self)
        del state["workers"]
        payload = json.dumps(state, sort_keys=True, default=list)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    # -- validation of meaning; config_from_dict has checked the types ------

    def __post_init__(self):
        if self.experiment not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.experiment!r}")
        # numpy seeds a stream from nonnegative integers only; a one-site many-body
        # box is malformed whether or not the kind reads it
        for name, least in (("samples", 1), ("workers", 1), ("kappa", 0), ("time_points", 1), ("mb_occupation", 1),
                            ("mb_length", 2), ("seed", 0), ("alpha_random", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be at least {least}, got {getattr(self, name)!r}")
        # as mb_occupation + 1 >= 2, the cap's bit length as exponent already exceeds the cap: no huge int
        occupations = self.mb_occupation + 1
        if occupations ** min(self.mb_length, MAX_MANY_BODY_STATES.bit_length()) > MAX_MANY_BODY_STATES:
            raise ConfigError(
                f"mb_occupation and mb_length give {occupations}^{self.mb_length} many-body occupation vectors, "
                f"more than MAX_MANY_BODY_STATES = {MAX_MANY_BODY_STATES}"
            )
        if not self.lengths or any(l < 1 for l in self.lengths):
            raise ConfigError("box lengths must be positive")
        # one site has no spacing: its min gap would be inf and its relative gap nan
        if self.experiment == "gap-stats" and self.box().n_sites < 2:
            raise ConfigError(f"gap-stats needs a box of at least two sites, got box lengths {list(self.lengths)}")
        if self.lambda0 != "full" and self.lambda0 < 0:
            raise ConfigError("lambda0 must be nonnegative or 'full'")
        for name in ("t_max", "amplitude"):
            if getattr(self, name) is not None and getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)!r}")
        # k_max and the inverse-CDF table are checked here, not at the first sample
        self.disorder
        if not self.powers or not set(self.powers) <= {-1, 0, 1}:
            raise ConfigError(f"powers must be one or more of -1, 0 and 1, got {list(self.powers)}")
        # A repeated key would be folded into one row with count samples x
        # repeats and a stderr that treats the copies as independent draws.
        for name in ("shells", "n_values", "powers", "lengths_ladder"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} has repeated entries: {list(values)}")
            # a negative distance or radius selects no site: a NaN row, or a row for no neighborhood
            if name in ("shells", "n_values") and min(values, default=0) < 0:
                raise ConfigError(f"{name} must be nonnegative, got {list(values)}")
        selection = KINDS[self.experiment][0]
        if selection in ("distance", "n"):
            try:
                self.center_index()
            except (ValueError, OverflowError) as exc:
                raise ConfigError(f"center site outside box: {exc}") from exc
        if selection == "distance":
            shells = self.shell_values()
            if not shells:
                raise ConfigError("a one-site box has no shell around its center")
            if max(shells) > self.reach():
                raise ConfigError("shell distances exceed the box from the center site")
        if selection == "n":
            diameter = self.box().diameter()
            if not self.n_range():
                raise ConfigError(f"no neighborhood radius n >= 2 fits a box of diameter {diameter}")
            if max(self.n_range()) > diameter:
                raise ConfigError("neighborhood radii exceed the box diameter")
        if selection == "L" and (not self.lengths_ladder or any(l < 2 for l in self.lengths_ladder)):
            raise ConfigError("energy-density needs a ladder of box lengths >= 2")


def _typed(types, what: str, value, name: str):
    """``value`` if it is one of ``types`` and not a bool, which Python counts as an int."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return value


_integer = partial(_typed, int, "an integer")
_string = partial(_typed, str, "a string")


def _real(value, name: str) -> float:
    # json.load accepts Infinity and NaN; the test is false for them and for an integer no float holds
    if not abs(_typed((int, float), "a number", value, name)) <= sys.float_info.max:
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return float(value)


def _each(read, value, name: str) -> tuple:
    """The list ``value`` with each entry read by ``read``."""
    return tuple(read(v, name) for v in _typed((list, tuple), "a list", value, name))


def _distances(value, name: str) -> tuple[int, ...]:
    """A list, or the inclusive range {"min": a, "max": b}; either must select at least one value."""
    if isinstance(value, dict):
        if set(value) != {"min", "max"}:
            raise ConfigError(f"{name} range takes the keys 'min' and 'max', got {sorted(value)}")
        values = tuple(range(_integer(value["min"], name), _integer(value["max"], name) + 1))
    else:
        values = _each(_integer, value, name)
    if not values:
        raise ConfigError(f"{name} selects nothing, got {value!r}")
    return values


#: The reader of each field annotation, less any " | None"; annotations are text, as this module postpones them.
_READERS = {
    "str": _string,
    "int": _integer,
    "float": _real,
    "float | str": lambda value, name: value if value == "full" else _real(value, name),
    "tuple[int, ...]": partial(_each, _integer),
    "tuple[float, ...]": partial(_each, _real),
    "Distances": _distances,
}

#: The sections of the document and the field each of their keys sets; every other field is a top-level key.
_SECTIONS = {
    "box": {"lengths": "lengths"},
    "disorder": {"k_max": "k_max", "table_u": "table_u", "table_k": "table_k"},
    "time_grid": {"points": "time_points", "t_max": "t_max"},
}


def _layout() -> dict:
    """The document's keys as a tree: a section's key maps to the dict of its keys, a field's key to its Field."""
    top = {f.name: f for f in fields(ExperimentConfig)}
    sections = {section: {key: top.pop(name) for key, name in keys.items()} for section, keys in _SECTIONS.items()}
    return {**top, **sections}


_LAYOUT = _layout()


def _read(document, layout: dict, where: str, known: dict) -> None:
    """Put each key of ``document``, read by its field's reader, into ``known`` under the field's name."""
    if not isinstance(document, dict):
        raise ConfigError(f"{where} must be a JSON object, got {document!r}")
    if unknown := set(document) - set(layout):
        raise ConfigError(f"unknown {where} fields: {sorted(unknown)}")
    for key, value in document.items():
        f = layout[key]
        if isinstance(f, dict):
            _read(value, f, key, known)
        elif value is None and not f.type.endswith(" | None"):
            raise ConfigError(f"{f.name} must not be null")
        else:
            known[f.name] = value if value is None else _READERS[f.type.removesuffix(" | None")](value, f.name)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a validated config from a parsed JSON document."""
    known = {}
    _read(raw, _LAYOUT, "config", known)
    if "experiment" not in known:
        raise ConfigError("config is missing the 'experiment' field")
    return ExperimentConfig(**known)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)
