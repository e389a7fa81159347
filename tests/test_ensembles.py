import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osclab import ensembles
from osclab.anderson import DisorderConfig, assemble, diagonalize, localized_modes, sample_disorder
from osclab.config import EXPERIMENT_KINDS, config_from_dict
from osclab.errors import ConfigError
from osclab.freeboson import delta_field
from osclab.lattice import BoxGeometry
from osclab.results import render_csv
from osclab.anderson import eigencorrelator
from osclab.weyl import (
    diagonal_elements,
    diagonal_products,
    dynamic_correlation,
    lr_envelope,
    lr_weyl_commutator_norm,
    mode_product_sum,
    pq_commutator_matrix,
    quasi_locality_bound,
    quasi_locality_error,
)

from conftest import make_chain_spec


def _rowwise_products(alphas, z):
    """Reference: one diagonal_elements call and one np.prod per occupation vector."""
    return np.stack([np.prod(diagonal_elements(al[None, :], z), axis=-1) for al in alphas])


def _half_sq(z):
    return np.abs(z) ** 2 / 2.0


class TestDiagonalProducts:
    def test_matches_rowwise_products(self):
        rng = np.random.default_rng(4)
        m = 9
        constant = np.repeat(np.arange(4)[:, None], m, axis=1)
        mixed = rng.integers(0, 4, size=(5, m))
        alphas = np.vstack([constant, mixed])
        z = 1.5 * (rng.standard_normal((6, m)) + 1j * rng.standard_normal((6, m)))
        got = diagonal_products(alphas, _half_sq(z))
        ref = _rowwise_products(alphas, z)
        assert got.shape == (alphas.shape[0], 6)
        assert np.max(np.abs(got - ref)) < 1e-13

    def test_without_leading_axes(self):
        rng = np.random.default_rng(5)
        alphas = rng.integers(0, 4, size=(3, 7))
        z = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        got = diagonal_products(alphas, _half_sq(z))
        ref = [np.prod(diagonal_elements(al, z)) for al in alphas]
        assert got.shape == (3,)
        assert np.max(np.abs(got - ref)) < 1e-13

    def test_finite_at_large_displacements(self):
        rng = np.random.default_rng(6)
        m = 400
        radii = np.linspace(0.0, 40.0, m)
        z = radii * np.exp(2j * np.pi * rng.uniform(size=(3, m)))
        alphas = np.vstack([np.full(m, k) for k in range(4)] + [rng.integers(0, 4, size=m)])
        got = diagonal_products(alphas, _half_sq(z))
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got) <= 1.0)

    def test_zero_factor_gives_exact_zero(self):
        # L_1(1) = 0 exactly; the rows with alpha_j != 1 there must stay finite
        m = 5
        x = np.array([[1.0, 0.3, 2.0, 0.7, 4.0], [0.2, 1.0, 1.0, 3.0, 0.0]])
        alphas = np.array([[1, 0, 2, 0, 3], [0, 1, 0, 3, 0], [0] * m, [2, 2, 2, 2, 2], [1, 1, 1, 1, 1]])
        got = diagonal_products(alphas, x)
        assert not np.any(np.isnan(got))
        assert got[0, 0] == 0.0 and got[1, 1] == 0.0 and got[4, 0] == 0.0 and got[4, 1] == 0.0
        ref = _rowwise_products(alphas, np.sqrt(2.0 * x))
        assert np.max(np.abs(got - ref)) < 1e-13
        assert np.count_nonzero(got) == 6

    @pytest.mark.parametrize("negatives", [1, 2, 3])
    def test_sign_is_parity_of_negative_factors(self, negatives):
        # L_1(2) = -1 and L_2(1) = -1/2: each such mode flips the sign
        x = np.array([2.0, 1.0, 2.0, 0.5])
        alpha = np.array([[1, 2, 1, 0]])
        alpha[0, negatives:3] = 0
        got = diagonal_products(alpha, x)[0]
        ref = float(np.prod(diagonal_elements(alpha[0], np.sqrt(2.0 * x))))
        assert np.sign(got) == (-1.0) ** negatives
        assert got == pytest.approx(ref, rel=1e-14)

    def test_modulus_at_most_one_near_vacuum(self):
        # products close to 1, where rounding in the exponent could push them above 1
        rng = np.random.default_rng(7)
        m = 400
        x = rng.uniform(0.0, 1e-6, size=(4, m))
        alphas = np.vstack([np.full(m, k) for k in range(4)] + [rng.integers(0, 4, size=m)])
        got = diagonal_products(alphas, x)
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got) <= 1.0 + 1e-12)
        assert np.max(np.abs(got - _rowwise_products(alphas, np.sqrt(2.0 * x)))) < 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.integers(1, 6).flatmap(
            lambda m: st.tuples(
                st.lists(st.lists(st.integers(0, 5), min_size=m, max_size=m), min_size=1, max_size=6),
                st.lists(
                    st.lists(st.floats(0.0, 12.0), min_size=m, max_size=m), min_size=1, max_size=3
                ),
                st.lists(st.floats(0.0, 2.0 * np.pi), min_size=m, max_size=m),
            )
        )
    )
    def test_matches_rowwise_property(self, data):
        rows, radii, angles = data
        alphas = np.array(rows)
        z = np.array(radii) * np.exp(1j * np.array(angles))
        got = diagonal_products(alphas, _half_sq(z))
        ref = _rowwise_products(alphas, z)
        assert got.shape == ref.shape
        assert np.all(np.abs(got) <= 1.0 + 1e-12)
        assert np.allclose(got, ref, rtol=1e-11, atol=1e-13)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            diagonal_products(np.zeros((2, 3), int), np.zeros((4, 5)))
        with pytest.raises(ValueError):
            diagonal_products(np.zeros(3, int), np.zeros(3))
        with pytest.raises(ValueError):
            diagonal_products(-np.ones((1, 3), int), np.zeros(3))


def _config(kind, lambda0, **extra):
    doc = {
        "experiment": kind,
        "box": {"lengths": [12]},
        "lambda0": lambda0,
        "kappa": 2,
        "samples": 1,
        "time_grid": {"points": 5, "t_max": 3.0},
        **extra,
    }
    return config_from_dict(doc)


def _family(config, spec):
    """Occupation vectors the kernels use, padded to one entry per mode."""
    S = localized_modes(spec, config.lambda0_value())
    short = ensembles._alpha_family(config, spec, S, 0)
    full = np.zeros((short.shape[0], spec.n), dtype=int)
    full[:, : S.size] = short
    return full


def _shell(center, d, n_sites=12):
    """Sites of a chain at distance d from the center, in the kernels' order."""
    return [y for y in (center - d, center + d) if 0 <= y < n_sites]


@pytest.mark.parametrize("lambda0", ["full", 2.0])
class TestKernelsAgainstScalarForms:
    """The batched kernels reproduce the scalar closed forms of weyl.py."""

    def test_correlations(self, chain12, lambda0):
        box, spec = chain12
        center = 2
        config = _config("correlations", lambda0, center=[center], shells=[1, 3, 5, 9], amplitude=0.9)
        rows, flags, _ = ensembles.KERNELS["correlations"](config, box, spec, 0)
        table = dict(rows)
        lam = config.lambda0_value()
        times = ensembles._time_grid(config, spec)
        alphas = _family(config, spec)
        assert alphas.shape[0] >= 2
        f = delta_field(12, center, config.amplitude)
        for d in config.shells:
            sups, overlaps = [], []
            for y in _shell(center, d):
                g = delta_field(12, y, config.amplitude)
                sups.append(
                    max(abs(dynamic_correlation(spec, lam, al, f, g, t)) for al in alphas for t in times)
                )
                overlaps.append(mode_product_sum(spec, lam, f, g))
            assert table[(d, "correlation_sup")] == pytest.approx(np.mean(sups), rel=1e-12, abs=1e-14)
            assert table[(d, "overlap_sum")] == pytest.approx(np.mean(overlaps), rel=1e-12, abs=1e-14)
        assert flags == {"correlation_bound_violations": 0}

    def test_lr_bound(self, chain12, lambda0):
        box, spec = chain12
        center = 2
        config = _config("lr-bound", lambda0, center=[center], shells=[1, 3, 5, 9], amplitude=0.9)
        rows, flags, _ = ensembles.KERNELS["lr-bound"](config, box, spec, 0)
        table = dict(rows)
        lam = config.lambda0_value()
        times = ensembles._time_grid(config, spec)
        f = delta_field(12, center, config.amplitude)
        for d in config.shells:
            sups, envelopes = [], []
            for y in _shell(center, d):
                g = delta_field(12, y, config.amplitude)
                sups.append(max(lr_weyl_commutator_norm(spec, lam, f, g, t) for t in times))
                envelopes.append(lr_envelope(spec, lam, f, g))
            assert table[(d, "commutator_sup")] == pytest.approx(np.mean(sups), rel=1e-12, abs=1e-14)
            assert table[(d, "commutator_envelope")] == pytest.approx(np.mean(envelopes), rel=1e-12, abs=1e-14)
        assert flags == {"domination_violations": 0}

    def test_pq_bound(self, chain12, lambda0):
        box, spec = chain12
        center = 2
        config = _config("pq-bound", lambda0, center=[center], shells=[1, 3, 5, 9])
        rows, flags, _ = ensembles.KERNELS["pq-bound"](config, box, spec, 0)
        table = dict(rows)
        lam = config.lambda0_value()
        times = ensembles._time_grid(config, spec)
        # |coefficient| of the (position, position), (position, momentum),
        # (momentum, position) and (momentum, momentum) commutator
        entries = {"qq_sup": (0, 0), "qp_sup": (0, 1), "pq_sup": (1, 0), "pp_sup": (1, 1)}
        powers = {"envelope_minus": -1, "envelope_zero": 0, "envelope_plus": 1}
        for d in config.shells:
            sites = _shell(center, d)
            mats = np.array([[pq_commutator_matrix(spec, lam, center, y, t) for t in times] for y in sites])
            for name, (i, j) in entries.items():
                want = np.mean(np.abs(mats[:, :, i, j]).max(axis=1))
                assert table[(d, name)] == pytest.approx(want, rel=1e-12, abs=1e-14)
            for name, s in powers.items():
                want = np.mean([eigencorrelator(spec, lam, s, center, y) for y in sites])
                assert table[(d, name)] == pytest.approx(want, rel=1e-12, abs=1e-14)
        assert flags == {"domination_violations": 0}

    def test_quasi_locality(self, chain12, lambda0):
        box, spec = chain12
        self._check_quasi_locality(box, spec, _config("quasi-locality", lambda0, n_values=[3, 1, 2]))

    def test_quasi_locality_square(self, lambda0):
        box = BoxGeometry.of_lengths([4, 4])
        sample = sample_disorder(DisorderConfig(k_max=1.0, master_seed=8), box, 0)
        spec = diagonalize(assemble(box, sample))
        config = _config("quasi-locality", lambda0, box={"lengths": [4, 4]}, n_values=[0, 2, 1, 4])
        self._check_quasi_locality(box, spec, config)

    @staticmethod
    def _check_quasi_locality(box, spec, config):
        rows, flags, _ = ensembles.KERNELS["quasi-locality"](config, box, spec, 0)
        lam = config.lambda0_value()
        times = ensembles._time_grid(config, spec)
        alphas = _family(config, spec)
        center = config.center_index()
        f = delta_field(box.n_sites, center, config.amplitude)
        expected = []
        for n in config.n_values:
            err = max(
                quasi_locality_error(spec, box, lam, al, f, [center], n, t) for al in alphas for t in times
            )
            bound = max(quasi_locality_bound(spec, box, lam, f, [center], n, t, config.kappa) for t in times)
            expected += [((n, "error_sup"), err), ((n, "bound_sup"), bound)]
        assert [key for key, _ in rows] == [key for key, _ in expected]
        for (_, got), (_, want) in zip(rows, expected):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14)
        assert flags == {"bound_violations": 0}


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param({"experiment": "energy-density", "lambda0": "full", "lengths_ladder": [10, 20]}, id="ed-full"),
        pytest.param({"experiment": "energy-density", "lambda0": 2.0, "lengths_ladder": [10, 20]}, id="ed-2"),
        pytest.param({"experiment": "gap-stats", "box": {"lengths": [40]}, "mb_length": 3}, id="gaps-1d"),
        pytest.param({"experiment": "gap-stats", "box": {"lengths": [6, 6]}, "mb_length": 3}, id="gaps-2d"),
    ],
)
def test_eigenvalue_only_kinds_match_dense_path(monkeypatch, doc):
    """energy-density and gap-stats on eigvalsh spectra against full eigendecompositions."""
    config = config_from_dict({**doc, "kappa": 1, "samples": 3, "seed": 5})
    fast = ensembles.run_ensemble(config)
    monkeypatch.setattr(ensembles, "spectrum", diagonalize)
    dense = ensembles.run_ensemble(config)
    # flag counts are integers, so a relative 1e-10 compares them exactly
    assert fast.metadata == pytest.approx(dense.metadata, rel=1e-10)
    assert [r.key for r in fast.rows] == [r.key for r in dense.rows]
    for got, want in zip(fast.rows, dense.rows):
        assert got.count == want.count
        assert got.mean == pytest.approx(want.mean, rel=1e-10, abs=1e-300)
        assert got.stderr == pytest.approx(want.stderr, rel=1e-10, abs=1e-300)


def test_planted_correlation_violation_is_counted(monkeypatch):
    """One value above the bound 2 in one sample is counted there and summed by _reduce."""
    config = config_from_dict(
        {
            "experiment": "correlations",
            "box": {"lengths": [12]},
            "lambda0": "full",
            "kappa": 1,
            "samples": 3,
            "seed": 4,
            "time_grid": {"points": 7, "t_max": 3.0},
        }
    )
    honest = [ensembles.run_sample(config, i) for i in range(config.samples)]
    assert all(o.flags["correlation_bound_violations"] == 0 for o in honest)

    joint_calls = []

    def planted(alphas, x):
        out = diagonal_products(alphas, x)
        if x.shape == (config.time_points, config.box().n_sites):
            if not joint_calls:
                out[0, 0] = 50.0  # the joint element of the first site, first alpha, t = 0
            joint_calls.append(x)
        return out

    monkeypatch.setattr(ensembles, "diagonal_products", planted)
    tampered = ensembles.run_sample(config, 1)
    assert len(joint_calls) > 1
    assert tampered.flags["correlation_bound_violations"] == 1
    # the planted value reaches the table unclamped
    assert max(v for (_, name), v in tampered.rows if name == "correlation_sup") > 2.0

    result = ensembles._reduce(config, [honest[0], tampered, honest[2]])
    assert result.metadata["correlation_bound_violations"] == 1
    twice = ensembles._reduce(config, [tampered, honest[1], tampered])
    assert twice.metadata["correlation_bound_violations"] == 2


@pytest.mark.parametrize("kind, planted", [("lr-bound", 1), ("pq-bound", 3)])
def test_planted_domination_violation_is_counted(monkeypatch, kind, planted):
    """A value above its envelope at one (t, y) is counted there and summed by _reduce.

    An imaginary part on one grid time lets |sin| and |cos| exceed 1 at that
    time only, which breaks each domination (one in lr-bound; qq, qp and pp
    in pq-bound) at the one shell site.
    """
    # the center is the end of the chain, so shell 5 is the single site 5
    config = config_from_dict(
        {
            "experiment": kind,
            "box": {"lengths": [12]},
            "lambda0": "full",
            "center": [0],
            "shells": [5],
            "samples": 3,
            "seed": 4,
            "time_grid": {"points": 7, "t_max": 3.0},
        }
    )
    honest = [ensembles.run_sample(config, i) for i in range(config.samples)]
    assert all(o.flags["domination_violations"] == 0 for o in honest)

    grid = ensembles._time_grid

    def planted_grid(config, spec):
        times = grid(config, spec).astype(complex)
        times[3] += 3j
        return times

    monkeypatch.setattr(ensembles, "_time_grid", planted_grid)
    tampered = ensembles.run_sample(config, 1)
    assert tampered.flags["domination_violations"] == planted
    sups = [v for (_, name), v in tampered.rows if name.endswith("_sup")]
    bounds = [v for (_, name), v in tampered.rows if "envelope" in name]
    assert min(sups) > max(bounds)  # the planted values reach the table unclamped

    result = ensembles._reduce(config, [honest[0], tampered, honest[2]])
    assert result.metadata["domination_violations"] == planted
    twice = ensembles._reduce(config, [tampered, honest[1], tampered])
    assert twice.metadata["domination_violations"] == 2 * planted


def test_planted_quasi_locality_violation_is_counted(monkeypatch):
    """An error above its bound at one (alpha, t, n) is counted there and summed by _reduce."""
    config = config_from_dict(
        {
            "experiment": "quasi-locality",
            "box": {"lengths": [12]},
            "lambda0": "full",
            "kappa": 1,
            "n_values": [2, 4],
            "samples": 3,
            "seed": 4,
            "time_grid": {"points": 7, "t_max": 3.0},
        }
    )
    honest = [ensembles.run_sample(config, i) for i in range(config.samples)]
    assert all(o.flags["bound_violations"] == 0 for o in honest)

    calls = []

    def planted(alphas, x):
        out = diagonal_products(alphas, x)
        if not calls:
            out[0, 0] = -1e6  # the vacuum at t = 0 for the largest radius
        calls.append(x)
        return out

    monkeypatch.setattr(ensembles, "diagonal_products", planted)
    tampered = ensembles.run_sample(config, 1)
    assert len(calls) == 2
    assert tampered.flags["bound_violations"] == 1
    rows = dict(tampered.rows)
    assert rows[(4, "error_sup")] > 1e3 > rows[(4, "bound_sup")]  # unclamped

    result = ensembles._reduce(config, [honest[0], tampered, honest[2]])
    assert result.metadata["bound_violations"] == 1
    twice = ensembles._reduce(config, [tampered, honest[1], tampered])
    assert twice.metadata["bound_violations"] == 2


class TestRunEnsemble:
    @pytest.mark.parametrize("kind", ["correlations", "quasi-locality"])
    def test_csv_independent_of_workers(self, kind):
        doc = {
            "experiment": kind,
            "box": {"lengths": [12]},
            "lambda0": "full",
            "kappa": 1,
            "samples": 3,
            "seed": 21,
            "time_grid": {"points": 20},
        }
        serial = render_csv(ensembles.run_ensemble(config_from_dict(doc), workers=1))
        pooled = render_csv(ensembles.run_ensemble(config_from_dict(doc), workers=2))
        assert serial == pooled

    def test_every_kind_has_key_fields(self):
        assert set(ensembles.KEY_FIELDS) == set(EXPERIMENT_KINDS)
        assert set(ensembles.KERNELS) <= set(EXPERIMENT_KINDS)

    def test_oracle_check_rejected_at_config_time(self):
        with pytest.raises(ConfigError):
            config_from_dict({"experiment": "oracle-check"})
