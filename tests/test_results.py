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

    @pytest.mark.parametrize("doc", ['{"rows": []}', "[1, 2]", '{"results": [{"key": [1]}]}'])
    def test_load_rejects_other_documents(self, tmp_path, doc):
        path = tmp_path / "table.json"
        path.write_text(doc, encoding="utf-8")
        with pytest.raises(ValueError, match="not a result table"):
            load(path)


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

    @pytest.mark.parametrize("fit_range", [(9, 2), (float("nan"), 9)])
    def test_malformed_range(self, fit_range):
        with pytest.raises(ValueError, match="A <= B"):
            fit_exponential(_decay_result(), fit_range, quantity="decay")

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_exponential(_decay_result(), (1, 3), quantity="decay")

    def test_counts_distinct_keys_not_rows(self):
        """Both quantities at 3 distances are 6 rows but 3 keys."""
        with pytest.raises(ValueError, match="at least 4 distinct keys .* got 3 in 6 rows"):
            fit_exponential(_decay_result(), (1, 3))

    def test_several_quantities_need_one_named(self):
        """Pooled, the decay and the flat rows would fit neither; each alone fits its own rate."""
        with pytest.raises(ValueError, match=r"hold 2 quantities \(decay, flat\)"):
            fit_exponential(_decay_result(), (2, 9))
        assert fit_exponential(_decay_result(), (2, 9), quantity="flat").mu_hat == pytest.approx(0.0, abs=1e-12)

    def test_one_shell_is_one_key(self):
        """A one-shell pq-bound table has 7 rows at a single distance, which no line fits."""
        quantities = ("qq_sup", "qp_sup", "pq_sup", "pp_sup", "envelope_minus", "envelope_zero", "envelope_plus")
        rows = [ResultRow(key=(3, q), mean=0.1 * (i + 1), stderr=0.0, count=2) for i, q in enumerate(quantities)]
        result = EnsembleResult(kind="pq-bound", key_fields=("distance", "quantity"), rows=rows)
        with pytest.raises(ValueError, match="got 1 in 7 rows"):
            fit_exponential(result, (0, 10))

    @pytest.mark.parametrize("quantity", [None, "one_body_min_gap"])
    def test_key_not_a_number(self, quantity):
        """A gap-stats table is keyed by its quantities alone: the error names that key field."""
        rows = [ResultRow(key=(q,), mean=0.5, stderr=0.0, count=2) for q in ("one_body_min_gap", "many_body_min_gap")]
        result = EnsembleResult(kind="gap-stats", key_fields=("quantity",), rows=rows)
        with pytest.raises(ValueError, match="key field 'quantity' holds '(one|many)_body_min_gap'"):
            fit_exponential(result, (0, 10), quantity=quantity)

    def test_nonpositive_mean(self):
        result = _decay_result()
        result.rows.append(ResultRow(key=(11, "decay"), mean=0.0, stderr=0.0, count=8))
        with pytest.raises(ValueError):
            fit_exponential(result, (1, 11), quantity="decay")
