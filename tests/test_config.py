import json
from dataclasses import asdict

import numpy as np
import pytest

from osclab.anderson import sample_disorder
from osclab.config import _LAYOUT, MAX_MANY_BODY_STATES, ExperimentConfig, config_from_dict, load_config
from osclab.errors import ConfigError
from osclab.lattice import l1_distances_from

BASE = {"experiment": "lr-bound", "box": {"lengths": [20]}, "samples": 2}
INF, NAN = float("inf"), float("nan")


def _doc(**changes):
    return {**BASE, **changes}


class TestValidation:
    @pytest.mark.parametrize(
        "doc",
        [
            pytest.param(_doc(experiment="oracle"), id="unknown-kind"),
            pytest.param(_doc(samples=0), id="no-samples"),
            pytest.param(_doc(workers=0), id="no-workers"),
            pytest.param(_doc(kappa=-1), id="negative-kappa"),
            pytest.param(_doc(seed=-1), id="negative-seed"),
            pytest.param(_doc(alpha_random=-1), id="negative-alpha_random"),
            pytest.param(_doc(box={"lengths": [0]}), id="empty-box"),
            pytest.param(_doc(box={"intervals": [[1, 5]]}), id="unanchored-box"),
            pytest.param(_doc(lambda0=-0.5), id="negative-lambda0"),
            pytest.param(_doc(disorder={"k_max": 0.0}), id="zero-k_max"),
            pytest.param(_doc(time_grid={"points": 0}), id="empty-time-grid"),
            pytest.param(_doc(amplitude=0.0), id="zero-amplitude"),
            pytest.param(_doc(disorder={"k_max": INF}), id="infinite-k_max"),
            pytest.param(_doc(disorder={"k_max": NAN}), id="nan-k_max"),
            pytest.param(_doc(amplitude=INF), id="infinite-amplitude"),
            pytest.param(_doc(amplitude=NAN), id="nan-amplitude"),
            pytest.param(_doc(lambda0=INF), id="infinite-lambda0"),
            pytest.param(_doc(lambda0=NAN), id="nan-lambda0"),
            pytest.param(_doc(time_grid={"t_max": INF}), id="infinite-t_max"),
            pytest.param(_doc(time_grid={"t_max": NAN}), id="nan-t_max"),
            pytest.param(_doc(center=[40]), id="center-outside"),
            pytest.param(_doc(shells=[5, 11]), id="shell-beyond-box"),
            pytest.param(_doc(experiment="quasi-locality", n_values=[3, 20]), id="radius-beyond-box"),
            pytest.param(_doc(experiment="energy-density", lengths_ladder=[1, 10]), id="short-ladder"),
            pytest.param(_doc(experiment="gap-stats", mb_length=1), id="one-site-many-body-box"),
            pytest.param(_doc(experiment="gap-stats", box={"lengths": [1]}), id="one-site-gap-box"),
            pytest.param(_doc(experiment="gap-stats", box={"lengths": [1, 1]}), id="one-site-square-gap-box"),
            pytest.param(_doc(experiment="gap-stats", mb_occupation=0), id="no-many-body-occupation"),
            pytest.param(_doc(experiment="gap-stats", mb_occupation=-1), id="negative-many-body-occupation"),
            pytest.param(_doc(experiment="gap-stats", mb_length=30), id="many-body-enumeration-too-large"),
            pytest.param(_doc(time_grid={"t_max": 0.0}), id="zero-t_max"),
            pytest.param(_doc(time_grid={"t_max": -1.0}), id="negative-t_max"),
            pytest.param(_doc(experiment="eigencorrelator", powers=[2]), id="power-two"),
            pytest.param(_doc(experiment="eigencorrelator", powers=[0, -2]), id="power-minus-two"),
            pytest.param(_doc(samples="many"), id="ill-typed"),
            pytest.param(_doc(sample_count=3), id="unknown-field"),
            pytest.param({"box": {"lengths": [20]}}, id="no-experiment"),
            pytest.param([BASE], id="not-an-object"),
            pytest.param(_doc(box={"lenghts": [40, 40]}), id="misspelled-box-key"),
            pytest.param(_doc(disorder={"kmax": 4}), id="misspelled-disorder-key"),
            pytest.param(_doc(time_grid={"point": 5}), id="misspelled-time-grid-key"),
            pytest.param(_doc(shells={"min": 2, "max": 4, "step": 2}), id="misspelled-range-key"),
            pytest.param(_doc(box={"intervals": [[0, 19]]}), id="anchored-intervals"),
            pytest.param(_doc(box=[40, 40]), id="box-not-an-object"),
            pytest.param(_doc(box=40), id="box-a-number"),
            pytest.param(_doc(disorder=4.0), id="disorder-a-number"),
            pytest.param(_doc(shells={"min": 2}), id="range-without-max"),
            # an explicit selection that selects nothing does not fall back on the default
            pytest.param(_doc(shells={"min": 9, "max": 3}), id="inverted-shell-range"),
            pytest.param(_doc(experiment="quasi-locality", n_values={"min": 5, "max": 2}), id="inverted-radius-range"),
            pytest.param(_doc(shells=[]), id="no-shells"),
            pytest.param(_doc(experiment="quasi-locality", n_values=[]), id="no-radii"),
            pytest.param(_doc(experiment="eigencorrelator", powers=[]), id="no-powers"),
            pytest.param(_doc(disorder={"k_max": "x"}), id="k_max-not-a-number"),
            pytest.param(_doc(time_grid={"points": "many"}), id="points-not-a-number"),
            pytest.param(_doc(time_grid={"points": INF}), id="infinite-points"),
            # an integer field takes a JSON integer only: no fraction, no bool, no string
            pytest.param(_doc(samples=2.5), id="fractional-samples"),
            pytest.param(_doc(samples=True), id="bool-samples"),
            pytest.param(_doc(seed="x"), id="string-seed"),
            pytest.param(_doc(kappa=1.5), id="fractional-kappa"),
            pytest.param(_doc(workers=2.0), id="float-workers"),
            pytest.param(_doc(box={"lengths": [12.7]}), id="fractional-length"),
            pytest.param(_doc(box={"lengths": "12"}), id="string-lengths"),
            pytest.param(_doc(shells=[1.5, 3]), id="fractional-shell"),
            pytest.param(_doc(shells={"min": 1.0, "max": 3}), id="float-range-bound"),
            pytest.param(_doc(shells={"min": False, "max": 3}), id="bool-range-bound"),
            pytest.param(_doc(center=[True]), id="bool-center"),
            pytest.param(_doc(time_grid={"points": 5.9}), id="fractional-points"),
            pytest.param(_doc(experiment="eigencorrelator", powers=[0.0]), id="float-power"),
            pytest.param(_doc(experiment="quasi-locality", n_values=[2, 3.5]), id="fractional-radius"),
            pytest.param(_doc(experiment="energy-density", lengths_ladder=[10, 20.5]), id="fractional-ladder"),
            pytest.param(_doc(experiment="gap-stats", mb_occupation=2.5), id="fractional-many-body-occupation"),
            # the disorder is checked at load, not at the first sample
            pytest.param(_doc(disorder={"kind": "gaussian"}), id="unknown-disorder-kind"),
            pytest.param(_doc(disorder={"table_u": [0.3, 0.1], "table_k": [5, -2, 7]}), id="malformed-table"),
            pytest.param(
                _doc(disorder={"table_u": [0, 0.5, 1], "table_k": [0, 0.8, 0.3]}),
                id="non-monotone-inverse-cdf",
            ),
            pytest.param(_doc(disorder={"table_u": [0, 1]}), id="inverse-cdf-without-k"),
            pytest.param(_doc(disorder={"table_k": [0, 1]}), id="inverse-cdf-without-u"),
            pytest.param(_doc(disorder={"table_u": [0, 1], "table_k": [0, 2]}), id="table-beyond-k_max"),
            # no draw is positive, and sample_disorder redraws k <= 0
            pytest.param(_doc(disorder={"table_u": [0, 1], "table_k": [0, 0]}), id="zero-mass-table"),
            pytest.param(
                _doc(disorder={"table_u": [0, 1, 1], "table_k": [0, 0, 1]}),
                id="zero-mass-table-with-a-step",
            ),
            # its positive segment lies above 1 - 2^-53, the largest u that a uniform draw returns
            pytest.param(
                _doc(disorder={"table_u": [0, 0.9999999999999999, 1], "table_k": [0, 0, 1]}),
                id="narrow-positive-segment",
            ),
        ],
    )
    def test_rejected(self, doc):
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "key, value", [("lambda_grid_points", 50), ("lambda_grid_max", 5.0)], ids=["lambda_grid_points", "lambda_grid_max"]
    )
    def test_removed_grid_key_is_unknown(self, key, value):
        """energy-density checks bracketing by interlacing and has no lambda grid to set."""
        with pytest.raises(ConfigError, match=f"unknown config fields: \\['{key}'\\]"):
            config_from_dict(_doc(experiment="energy-density", **{key: value}))

    @pytest.mark.parametrize("kind", ["uniform", "inverse_cdf"])
    def test_removed_disorder_kind_is_unknown(self, kind):
        """The law is the table given, or the uniform default: there is no kind to pick."""
        table = {"table_u": [0, 1], "table_k": [0, 1]}
        with pytest.raises(ConfigError, match=r"unknown disorder fields: \['kind'\]"):
            config_from_dict(_doc(disorder={"kind": kind, **table}))

    @pytest.mark.parametrize(
        "occupation, length, accepted",
        [(1, 16, True), (1, 17, False), (2, 10, True), (2, 11, False), (315, 2, True), (316, 2, False), (2, 10**18, False)],
    )
    def test_many_body_enumeration_capped(self, occupation, length, accepted):
        """(mb_occupation + 1)^mb_length is held to MAX_MANY_BODY_STATES before any array exists, and a
        huge mb_length is rejected without forming the power."""
        doc = _doc(experiment="gap-stats", mb_occupation=occupation, mb_length=length)
        if accepted:
            config_from_dict(doc)
            assert (occupation + 1) ** length <= MAX_MANY_BODY_STATES
        else:
            with pytest.raises(ConfigError, match=r"^mb_occupation and mb_length give .* more than MAX_MANY_BODY_STATES"):
                config_from_dict(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            pytest.param(_doc(shells=[3, 5, 3]), id="shells"),
            pytest.param(_doc(experiment="quasi-locality", n_values=[2, 2]), id="n_values"),
            pytest.param(_doc(experiment="eigencorrelator", powers=[0, -1, 0]), id="powers"),
            pytest.param(_doc(experiment="energy-density", lengths_ladder=[10, 20, 10]), id="lengths_ladder"),
        ],
    )
    def test_repeated_entries_rejected(self, doc):
        with pytest.raises(ConfigError, match="repeated"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "doc, name",
        [
            pytest.param(_doc(lambda0=True), "lambda0", id="lambda0"),
            pytest.param(_doc(lambda0=False), "lambda0", id="lambda0-false"),
            pytest.param(_doc(amplitude=True), "amplitude", id="amplitude"),
            pytest.param(_doc(disorder={"k_max": True}), "k_max", id="k_max"),
            pytest.param(_doc(time_grid={"t_max": True}), "t_max", id="t_max"),
            pytest.param(_doc(disorder={"table_u": [0, True], "table_k": [0, 1]}), "table_u", id="table_u"),
            pytest.param(_doc(disorder={"table_u": [0, 1], "table_k": [0, True]}), "table_k", id="table_k"),
        ],
    )
    def test_bool_for_a_real_rejected(self, doc, name):
        """float() reads a JSON true as 1 and false as 0; a real-valued field takes a number only."""
        with pytest.raises(ConfigError, match=f"^{name} must be a number"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "doc, name",
        [
            pytest.param(_doc(shells=[-1, 2]), "shells", id="shells"),
            pytest.param(_doc(shells={"min": -1, "max": 2}), "shells", id="shell-range"),
            pytest.param(_doc(experiment="quasi-locality", n_values=[-2, 1]), "n_values", id="n_values"),
            pytest.param(_doc(experiment="quasi-locality", n_values={"min": -1, "max": 1}), "n_values", id="n-range"),
        ],
    )
    def test_negative_distances_rejected(self, doc, name):
        """A negative shell selects no site (a NaN row) and a negative radius no neighborhood."""
        with pytest.raises(ConfigError, match=f"{name} must be nonnegative"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "lengths",
        [[1], [2], [3], [5], [10], [11], [12], [13], [20], [100], [400], [4, 3], [2, 2], [6, 6], [40, 40], [3, 3, 3]],
    )
    @pytest.mark.parametrize("kind", ["eigencorrelator", "lr-bound", "pq-bound", "correlations"])
    def test_default_shells_fit_the_box(self, kind, lengths):
        """The default shells lie within the reach of the center; a box the old default 5..max(top, 6) fit keeps it."""
        doc = {"experiment": kind, "box": {"lengths": lengths}}
        if lengths == [1]:
            with pytest.raises(ConfigError, match="one-site"):
                config_from_dict(doc)
            return
        config = config_from_dict(doc)
        reach = config.reach()
        assert reach == l1_distances_from(config.box(), config.center_index()).max()
        old = tuple(range(5, max(min(40, config.box().diameter() // 2), 6) + 1))
        shells = config.shell_values()
        if max(old) <= reach:
            assert shells == old
        else:
            assert shells == tuple(range(5 if reach >= 5 else 1, reach + 1))
        assert shells and max(shells) <= reach

    @pytest.mark.parametrize("lengths, diameter", [([1], 0), ([2], 1), ([1, 1], 0), ([1, 2], 1)])
    def test_no_default_radius_fits(self, lengths, diameter):
        """The default radii start at 2, so a box of diameter below 2 has none, which the error says."""
        doc = {"experiment": "quasi-locality", "box": {"lengths": lengths}}
        with pytest.raises(ConfigError, match=f"no neighborhood radius n >= 2 fits a box of diameter {diameter}$"):
            config_from_dict(doc)
        if diameter:
            assert config_from_dict({**doc, "n_values": [1]}).n_range() == (1,)

    @pytest.mark.parametrize("lengths", [[1], [1, 1]])
    def test_one_site_gap_box_named(self, lengths):
        """A one-site box has no gap: the error names the box instead of a table of inf and nan."""
        with pytest.raises(ConfigError, match=rf"gap-stats needs a box of at least two sites, got box lengths \[{', '.join(map(str, lengths))}\]"):
            config_from_dict(_doc(experiment="gap-stats", box={"lengths": lengths}))

    def test_ranges_expand(self):
        config = config_from_dict(
            _doc(experiment="quasi-locality", shells={"min": 2, "max": 4}, n_values={"min": 1, "max": 3})
        )
        assert config.shells == (2, 3, 4)
        assert config.n_range() == (1, 2, 3)


def _paths():
    """(JSON path, field) for every key of the document that sets a field."""
    for key, entry in _LAYOUT.items():
        if isinstance(entry, dict):
            yield from (((key, sub), f) for sub, f in entry.items())
        else:
            yield (key,), entry


PATHS = [pytest.param(path, f, id=".".join(path)) for path, f in _paths()]

#: The fields a document may set to null: those that may be None.
NULLABLE = {"center", "table_u", "table_k", "t_max"}


def _with(path, value):
    """BASE with ``value`` at ``path``, a top-level key or a (section, key) pair."""
    if len(path) == 1:
        return _doc(**{path[0]: value})
    section, key = path
    return _doc(**{section: {key: value}})


class TestSchema:
    @pytest.mark.parametrize("path, f", PATHS)
    def test_wrong_json_type_rejected(self, path, f):
        """A bool, a string where the field is no string, a list where it is no list, a number where it is one."""
        is_list = f.type.startswith(("tuple", "Distances"))
        wrong = [True, False] + (["2"] if f.type != "str" else []) + ([2] if is_list else [[2]])
        for value in wrong:
            with pytest.raises(ConfigError, match=f"^{f.name} must be "):
                config_from_dict(_with(path, value))

    @pytest.mark.parametrize("path, f", PATHS)
    def test_null_only_where_the_field_may_be_none(self, path, f):
        if f.name in NULLABLE:
            assert getattr(config_from_dict(_with(path, None)), f.name) is None
        else:
            with pytest.raises(ConfigError, match=f"^{f.name} must not be null$"):
                config_from_dict(_with(path, None))

    def test_reals_stored_as_floats(self):
        config = config_from_dict(
            _doc(
                experiment="energy-density",
                lambda0=2,
                amplitude=3,
                disorder={"k_max": 2, "table_u": [0, 1], "table_k": [0, 2]},
                time_grid={"t_max": 5},
            )
        )
        reals = [config.lambda0, config.amplitude, config.k_max, config.t_max]
        assert all(type(value) is float for value in reals + list(config.table_u + config.table_k))

    @pytest.mark.parametrize("literal", [10**400, -(10**400)])
    def test_integer_beyond_the_floats_rejected(self, literal):
        with pytest.raises(ConfigError, match="^amplitude must be finite"):
            config_from_dict(_doc(amplitude=literal))


class TestDisorder:
    def test_table_without_kind_is_applied(self):
        """A table given is the law: [0, 1] -> [0.5, 0.5] draws every k = 0.5."""
        config = config_from_dict(_doc(disorder={"table_u": [0, 1], "table_k": [0.5, 0.5]}))
        assert np.all(sample_disorder(config.disorder, config.box(), 0) == 0.5)

    def test_built_once(self):
        """The table is checked once per config, not once per sample."""
        config = config_from_dict(_doc(disorder={"table_u": [0, 0.5, 1], "table_k": [0, 0.8, 1]}))
        assert config.disorder is config.disorder


class TestDigest:
    DOC = _doc(
        experiment="correlations",
        lambda0=2,
        disorder={"k_max": 0.5},
        time_grid={"points": 7, "t_max": 3.0},
        shells=[2, 4],
        center=[9],
    )

    def test_stable_across_round_trips(self):
        first = config_from_dict(self.DOC)
        again = config_from_dict(json.loads(json.dumps(self.DOC)))
        reordered = config_from_dict(dict(reversed(list(self.DOC.items()))))
        rebuilt = ExperimentConfig(**asdict(first))
        assert first == again == reordered == rebuilt
        assert len({c.digest() for c in (first, again, reordered, rebuilt)}) == 1

    def test_unchanged_by_workers(self):
        """The worker count changes no number of the result, so it stays out of the digest."""
        assert config_from_dict({**self.DOC, "workers": 2}).digest() == config_from_dict(self.DOC).digest()

    def test_integer_valued_real_one_digest(self):
        """lambda0 written as 2 or as 2.0 is one config, so one digest."""
        as_int = config_from_dict({**self.DOC, "lambda0": 2})
        as_float = config_from_dict({**self.DOC, "lambda0": 2.0})
        assert as_int.digest() == as_float.digest()

    def test_changes_with_any_field(self):
        digest = config_from_dict(self.DOC).digest()
        for change in ({"seed": 2}, {"lambda0": "full"}, {"shells": [2, 5]}, {"disorder": {"k_max": 0.6}}):
            assert config_from_dict({**self.DOC, **change}).digest() != digest


class TestLoadConfig:
    def test_file_matches_document(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(BASE), encoding="utf-8")
        assert load_config(path).digest() == config_from_dict(BASE).digest()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{experiment: lr-bound", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_json_literal(self, tmp_path, literal):
        # json.load accepts these literals; the config must not
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(BASE)[:-1] + f', "amplitude": {literal}}}', encoding="utf-8")
        with pytest.raises(ConfigError, match="finite"):
            load_config(path)
