import json

import pytest

from osclab.config import ExperimentConfig, config_from_dict, load_config
from osclab.errors import ConfigError

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
            pytest.param(_doc(experiment="energy-density", lambda_grid_max=INF), id="infinite-lambda_grid_max"),
            pytest.param(_doc(experiment="energy-density", lambda_grid_max=NAN), id="nan-lambda_grid_max"),
            pytest.param(_doc(center=[40]), id="center-outside"),
            pytest.param(_doc(shells=[5, 11]), id="shell-beyond-box"),
            pytest.param(_doc(experiment="quasi-locality", n_values=[3, 20]), id="radius-beyond-box"),
            pytest.param(_doc(experiment="energy-density", lengths_ladder=[1, 10]), id="short-ladder"),
            pytest.param(_doc(experiment="energy-density", lambda_grid_points=1), id="one-point-grid"),
            pytest.param(_doc(experiment="gap-stats", mb_length=1), id="one-site-many-body-box"),
            pytest.param(_doc(experiment="gap-stats", mb_occupation=0), id="no-many-body-occupation"),
            pytest.param(_doc(experiment="gap-stats", mb_occupation=-1), id="negative-many-body-occupation"),
            pytest.param(_doc(time_grid={"t_max": 0.0}), id="zero-t_max"),
            pytest.param(_doc(time_grid={"t_max": -1.0}), id="negative-t_max"),
            pytest.param(_doc(experiment="eigencorrelator", powers=[2]), id="power-two"),
            pytest.param(_doc(experiment="eigencorrelator", powers=[0, -2]), id="power-minus-two"),
            pytest.param(_doc(samples="many"), id="ill-typed"),
            pytest.param(_doc(sample_count=3), id="unknown-field"),
            pytest.param({"box": {"lengths": [20]}}, id="no-experiment"),
            pytest.param([BASE], id="not-an-object"),
        ],
    )
    def test_rejected(self, doc):
        with pytest.raises(ConfigError):
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

    def test_ranges_expand(self):
        config = config_from_dict(
            _doc(experiment="quasi-locality", shells={"min": 2, "max": 4}, n_values={"min": 1, "max": 3})
        )
        assert config.shells == (2, 3, 4)
        assert config.n_range() == (1, 2, 3)


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
        rebuilt = ExperimentConfig(**first.to_dict())
        assert first == again == reordered == rebuilt
        assert len({c.digest() for c in (first, again, reordered, rebuilt)}) == 1

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
