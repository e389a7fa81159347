import json
import math

import pytest

from osclab import cli, ensembles
from osclab.config import config_from_dict
from osclab.errors import NumericError
from osclab.results import EnsembleResult, ResultRow, emit, fit_exponential, load, render_csv, to_json_document

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


@pytest.mark.parametrize(
    "change",
    [
        {"samples": 2.5},
        {"seed": "x"},
        {"workers": 2, "disorder": {"table_u": [0, 0.5, 1], "table_k": [0, 0.8, 0.3]}},
        {"experiment": "energy-density", "amplitude": "5", "lengths_ladder": [6, 8]},
        # no draw is positive: sample_disorder would redraw its zeros until it gave up
        {"disorder": {"table_u": [0, 1], "table_k": [0, 0]}},
        {"disorder": {"table_u": [0, 0.9999999999999999, 1], "table_k": [0, 0, 1]}},
        # the removed key, and a table with one side
        {"disorder": {"kind": "uniform"}},
        {"disorder": {"table_u": [0, 1]}},
    ],
    ids=[
        "fractional-samples",
        "string-seed",
        "non-monotone-table-with-workers",
        "string-amplitude",
        "zero-mass-table",
        "narrow-positive-segment",
        "disorder-kind",
        "one-sided-table",
    ],
)
def test_config_checked_before_any_sample(tmp_path, capsys, change):
    """An ill-typed number or a bad disorder table is a ConfigError at load, not a traceback, a
    worker failure or a hang once samples run."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**DOC, **change}), encoding="utf-8")
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


def test_many_body_enumeration_too_large_exits_2(tmp_path, capsys):
    """3^30 occupation vectors are a ConfigError that names both fields, not an error or OOM inside numpy."""
    path = tmp_path / "cfg.json"
    doc = {"experiment": "gap-stats", "box": {"lengths": [12]}, "samples": 1, "mb_length": 30}
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "table.csv"
    assert cli.main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("osclab: ConfigError: mb_occupation and mb_length give 3^30 ")
    assert not out.exists()


@pytest.mark.parametrize("lengths", [[1], [1, 1]])
def test_one_site_gap_box_exits_2(tmp_path, capsys, lengths):
    """A one-site box once wrote one_body_min_gap inf and one_body_rel_gap nan and exited 0."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "gap-stats", "box": {"lengths": lengths}, "samples": 2}), encoding="utf-8")
    out = tmp_path / "table.csv"
    assert cli.main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("osclab: ConfigError: ")
    assert f"got box lengths {lengths}" in err
    assert not out.exists()


def test_infinite_default_horizon_exits_2(tmp_path, capsys):
    # a repeated eigenvalue makes the default horizon 4 pi / 0; before, every commutator_sup was nan
    doc = {
        "experiment": "lr-bound",
        "box": {"lengths": [6, 6]},
        "disorder": {"table_u": [0.0, 1.0], "table_k": [0.5, 0.5]},
        "time_grid": {"points": 5, "t_max": None},
        "shells": [2, 3],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "table.csv"
    assert cli.main(["run", str(path), "--out", str(out)]) == 2
    _one_line_error(capsys, "NumericError")
    assert not out.exists()


def test_sample_error_on_threads_exits_2(tmp_path, capsys):
    """A NumericError raised in a sample of a threaded ensemble exits 2 like one raised in the caller's thread."""
    table = {"table_u": [0, 1 - 2**-52, 1], "table_k": [0, 0, 1]}
    doc = {"experiment": "energy-density", "samples": 4, "lengths_ladder": [10, 20], "disorder": table}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "table.csv"
    assert cli.main(["run", str(path), "--out", str(out), "--workers", "1"]) == 2
    _one_line_error(capsys, "NumericError")
    assert not out.exists()


def test_unwritable_out_exits_2(config_path, tmp_path, capsys):
    assert cli.main(["run", str(config_path), "--out", str(tmp_path / "absent" / "t.csv")]) == 2
    _one_line_error(capsys, "OSError")


def test_numeric_error_exits_2(monkeypatch, config_path, tmp_path, capsys):
    def fail(config):
        raise NumericError("residual max|h Phi_S - Phi_S Lambda_S| 1.000e-03 exceeds 5.000e-10\nsecond line")

    monkeypatch.setattr(cli, "run_ensemble", fail)
    assert cli.main(["run", str(config_path), "--out", str(tmp_path / "t.csv")]) == 2
    _one_line_error(capsys, "NumericError")


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_exit_2(config_path, tmp_path, capsys, workers):
    """``--workers`` replaces the config's field, so a count below one is the config's ConfigError."""
    out = tmp_path / "t.csv"
    assert cli.main(["run", str(config_path), "--out", str(out), "--workers", workers]) == 2
    assert capsys.readouterr().err == f"osclab: ConfigError: workers must be at least 1, got {workers}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param([], id="no-command"),
        pytest.param(["run", "cfg.json"], id="no-out"),
        pytest.param(["run", "cfg.json", "--out", "t.csv", "--format", "xml"], id="bad-format"),
        pytest.param(["run", "cfg.json", "--out", "t.csv", "--workers", "2.5"], id="fractional-workers"),
        pytest.param(["fit", "t.json"], id="fit-no-range"),
        pytest.param(["fit", "t.json", "--range", "1"], id="fit-one-bound"),
        pytest.param(["fit", "t.json", "--range", "1", "x"], id="fit-bound-not-a-number"),
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


@pytest.fixture
def decay_table(tmp_path):
    """A JSON table with an exact decay 2.5 e^{-0.35 d} and a flat quantity, d = 1..10."""
    rows = [ResultRow(key=(d, "decay"), mean=2.5 * math.exp(-0.35 * d), stderr=0.0, count=4) for d in range(1, 11)]
    rows += [ResultRow(key=(d, "flat"), mean=0.5, stderr=0.0, count=4) for d in range(1, 11)]
    path = tmp_path / "table.json"
    emit(EnsembleResult(kind="lr-bound", key_fields=("distance", "quantity"), rows=rows), "json", path)
    return path


def _table_text(kind, key_fields, keys):
    """The JSON document of a table with a positive mean at each of ``keys``."""
    rows = [ResultRow(key=key, mean=0.1 * (i + 1), stderr=0.0, count=2) for i, key in enumerate(keys)]
    return json.dumps(to_json_document(EnsembleResult(kind=kind, key_fields=key_fields, rows=rows)))


#: A pq-bound table of one shell: its 7 quantities at a single distance.
ONE_SHELL_PQ = _table_text(
    "pq-bound",
    ("distance", "quantity"),
    [(3, q) for q in ("qq_sup", "qp_sup", "pq_sup", "pp_sup", "envelope_minus", "envelope_zero", "envelope_plus")],
)
#: A gap-stats table, keyed by its quantities alone.
GAP_STATS = _table_text("gap-stats", ("quantity",), [(q,) for q in ("many_body_min_gap", "one_body_min_gap")])


def _printed_fit(capsys):
    out = capsys.readouterr().out
    return {name: float(value) for name, value in (line.split() for line in out.splitlines())}


def test_fit_prints_the_library_fit(decay_table, capsys):
    assert cli.main(["fit", str(decay_table), "--range", "2", "9", "--quantity", "decay"]) == 0
    fit = fit_exponential(load(decay_table), (2, 9), "decay")
    assert _printed_fit(capsys) == {"mu_hat": fit.mu_hat, "c_hat": fit.c_hat, "r_squared": fit.r_squared, "n_points": 8}
    assert fit.mu_hat == pytest.approx(0.35, rel=1e-12) and fit.c_hat == pytest.approx(2.5, rel=1e-12)


def test_fit_of_a_run_table(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"experiment": "eigencorrelator", "box": {"lengths": [30]}, "samples": 2}))
    table = tmp_path / "table.json"
    assert cli.main(["run", str(config), "--out", str(table), "--format", "json"]) == 0
    capsys.readouterr()
    assert cli.main(["fit", str(table), "--range", "5", "12", "--quantity", "q_zero"]) == 0
    fit = fit_exponential(load(table), (5, 12), "q_zero")
    assert _printed_fit(capsys)["mu_hat"] == fit.mu_hat and fit.n_points == 8


@pytest.mark.parametrize(
    "content, fit_args, name",
    [
        pytest.param(None, ["--range", "1", "10"], "FileNotFoundError", id="missing-file"),
        pytest.param("distance,quantity\n", ["--range", "1", "10"], "JSONDecodeError", id="not-json"),
        pytest.param('{"rows": []}', ["--range", "1", "10"], "ValueError", id="not-a-table"),
        pytest.param("[1, 2]", ["--range", "1", "10"], "ValueError", id="not-an-object"),
        pytest.param("table", ["--range", "9", "2", "--quantity", "decay"], "ValueError", id="reversed-range"),
        pytest.param("table", ["--range", "nan", "9", "--quantity", "decay"], "ValueError", id="nan-range"),
        pytest.param("table", ["--range", "1", "3", "--quantity", "decay"], "ValueError", id="three-keys"),
        pytest.param("table", ["--range", "1", "10", "--quantity", "absent"], "ValueError", id="unknown-quantity"),
        # both quantities: 6 rows, but 3 distinct keys
        pytest.param("table", ["--range", "1", "3"], "ValueError", id="three-keys-every-quantity"),
        pytest.param(ONE_SHELL_PQ, ["--range", "0", "10"], "ValueError", id="one-shell"),
        pytest.param(GAP_STATS, ["--range", "0", "10"], "ValueError", id="key-not-a-number"),
        # pooled, the decay and the flat 0.5 would fit mu_hat 0.175 with R^2 0.46
        pytest.param("table", ["--range", "2", "9"], "ValueError", id="several-quantities"),
    ],
)
def test_fit_errors_exit_2(decay_table, content, fit_args, name, capsys):
    path = decay_table
    if content is None:
        path = decay_table.with_name("absent.json")
    elif content != "table":
        path.write_text(content, encoding="utf-8")
    assert cli.main(["fit", str(path), *fit_args]) == 2
    _one_line_error(capsys, name)
