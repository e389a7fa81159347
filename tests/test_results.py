import csv
import io
import math

import numpy as np
import pytest

from osclab.results import EnsembleResult, ResultRow, emit, fit_exponential, load, render_csv


def _decay_result(mu=0.35, c=2.5, distances=range(1, 11)):
    rows = []
    for d in distances:
        rows.append(ResultRow(key=(d, "decay"), mean=c * math.exp(-mu * d), stderr=1e-3 / d, count=8))
        rows.append(ResultRow(key=(d, "flat"), mean=1.0 / 3.0, stderr=0.0, count=8))
    return EnsembleResult(
        kind="lr-bound",
        key_fields=("distance", "quantity"),
        rows=rows[::-1],  # storage order must not matter
        metadata={"config_digest": "0123456789abcdef", "seed": 4, "lambda0": "full", "domination_violations": 0},
    )


class TestCsv:
    def test_round_trip(self):
        result = _decay_result()
        lines = list(csv.reader(io.StringIO(render_csv(result))))
        assert lines[0] == ["distance", "quantity", "mean", "stderr", "count"]
        parsed = [
            ResultRow(key=(int(d), q), mean=float(m), stderr=float(s), count=int(n)) for d, q, m, s, n in lines[1:]
        ]
        assert parsed == result.sorted_rows()

    def test_emit_writes_rendered_table(self, tmp_path):
        result = _decay_result()
        path = tmp_path / "table.csv"
        emit(result, "csv", path)
        assert path.read_text(encoding="utf-8") == render_csv(result)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit(_decay_result(), "xml", tmp_path / "table.xml")


class TestJson:
    def test_round_trip(self, tmp_path):
        result = _decay_result()
        path = tmp_path / "table.json"
        emit(result, "json", path)
        loaded = load(path)
        assert loaded == result
        assert render_csv(loaded) == render_csv(result)


class TestFitExponential:
    @pytest.mark.parametrize("mu", [0.05, 0.35, 1.2])
    def test_recovers_rate(self, mu):
        fit = fit_exponential(_decay_result(mu=mu), (2, 9), quantity="decay")
        assert fit.mu_hat == pytest.approx(mu, rel=1e-10)
        assert fit.c_hat == pytest.approx(2.5, rel=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == 8

    def test_noisy_decay(self):
        rng = np.random.default_rng(3)
        d = np.arange(1, 31)
        means = 0.8 * np.exp(-0.4 * d) * np.exp(rng.normal(0.0, 0.02, d.size))
        result = EnsembleResult(
            kind="lr-bound",
            key_fields=("distance", "quantity"),
            rows=[ResultRow(key=(int(x), "decay"), mean=float(m), stderr=0.0, count=1) for x, m in zip(d, means)],
        )
        fit = fit_exponential(result, (1, 30), quantity="decay")
        assert fit.mu_hat == pytest.approx(0.4, abs=0.01)
        assert fit.r_squared > 0.99

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_exponential(_decay_result(), (1, 3), quantity="decay")

    def test_nonpositive_mean(self):
        result = _decay_result()
        result.rows.append(ResultRow(key=(11, "decay"), mean=0.0, stderr=0.0, count=8))
        with pytest.raises(ValueError):
            fit_exponential(result, (1, 11), quantity="decay")
