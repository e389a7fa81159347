import json

import pytest

from osclab import cli, ensembles
from osclab.config import config_from_dict
from osclab.errors import NumericError
from osclab.results import render_csv, to_json_document

DOC = {"experiment": "lr-bound", "box": {"lengths": [12]}, "samples": 2, "time_grid": {"points": 5, "t_max": 2.0}}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(DOC), encoding="utf-8")
    return path


def test_csv_is_the_ensemble_table(config_path, tmp_path):
    out = tmp_path / "table.csv"
    assert cli.main(["run", str(config_path), "--out", str(out)]) == 0
    expected = render_csv(ensembles.run_ensemble(config_from_dict(DOC)))
    assert out.read_text(encoding="utf-8") == expected


def test_json_with_workers(config_path, tmp_path):
    out = tmp_path / "table.json"
    argv = ["run", str(config_path), "--out", str(out), "--format", "json", "--workers", "1"]
    assert cli.main(argv) == 0
    expected = to_json_document(ensembles.run_ensemble(config_from_dict(DOC)))
    assert json.loads(out.read_text(encoding="utf-8")) == json.loads(json.dumps(expected))


def _one_line_error(capsys, name):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"osclab: {name}: ")


def test_config_error_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**DOC, "samples": 0}), encoding="utf-8")
    out = tmp_path / "table.csv"
    assert cli.main(["run", str(path), "--out", str(out)]) == 2
    _one_line_error(capsys, "ConfigError")
    assert not out.exists()


def test_zero_many_body_occupation_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    doc = {"experiment": "gap-stats", "box": {"lengths": [12]}, "samples": 1, "mb_occupation": 0}
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "table.csv"
    assert cli.main(["run", str(path), "--out", str(out)]) == 2
    _one_line_error(capsys, "ConfigError")
    assert not out.exists()


def test_infinite_default_horizon_exits_2(tmp_path, capsys):
    # a repeated eigenvalue makes the default horizon 4 pi / 0; before, every commutator_sup was nan
    doc = {
        "experiment": "lr-bound",
        "box": {"lengths": [6, 6]},
        "disorder": {"kind": "inverse_cdf", "table_u": [0.0, 1.0], "table_k": [0.5, 0.5]},
        "time_grid": {"points": 5, "t_max": None},
        "shells": [2, 3],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "table.csv"
    assert cli.main(["run", str(path), "--out", str(out)]) == 2
    _one_line_error(capsys, "NumericError")
    assert not out.exists()


def test_unwritable_out_exits_2(config_path, tmp_path, capsys):
    assert cli.main(["run", str(config_path), "--out", str(tmp_path / "absent" / "t.csv")]) == 2
    _one_line_error(capsys, "OSError")


def test_numeric_error_exits_2(monkeypatch, config_path, tmp_path, capsys):
    def fail(config, workers=None):
        raise NumericError("reconstruction error 1e-3 exceeds 1e-10 * max|h_ij|\nsecond line")

    monkeypatch.setattr(cli, "run_ensemble", fail)
    assert cli.main(["run", str(config_path), "--out", str(tmp_path / "t.csv")]) == 2
    _one_line_error(capsys, "NumericError")


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param([], id="no-command"),
        pytest.param(["run", "cfg.json"], id="no-out"),
        pytest.param(["run", "cfg.json", "--out", "t.csv", "--format", "xml"], id="bad-format"),
        pytest.param(["run", "cfg.json", "--out", "t.csv", "--workers", "0"], id="no-workers"),
    ],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "run" in capsys.readouterr().out
