import itertools
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from osclab import anderson, ensembles
from osclab.anderson import DisorderConfig, SpectralData, assemble, diagonalize, sample_disorder, tails
from osclab.config import KINDS, config_from_dict
from osclab.errors import ConfigError
from osclab.fock_oracle import correlation_series, delta_field, diagonal_elements, evolve, neighborhood, project_localized, v_map
from osclab.lattice import BoxGeometry
from osclab.results import render_csv
from osclab.weyl import OccupationFamily

from conftest import kernel_family


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
        got = OccupationFamily(alphas)(_half_sq(z))
        ref = _rowwise_products(alphas, z)
        assert got.shape == (alphas.shape[0], 6)
        assert np.max(np.abs(got - ref)) < 1e-13

    def test_without_leading_axes(self):
        rng = np.random.default_rng(5)
        alphas = rng.integers(0, 4, size=(3, 7))
        z = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        got = OccupationFamily(alphas)(_half_sq(z))
        ref = [np.prod(diagonal_elements(al, z)) for al in alphas]
        assert got.shape == (3,)
        assert np.max(np.abs(got - ref)) < 1e-13

    def test_finite_at_large_displacements(self):
        rng = np.random.default_rng(6)
        m = 400
        radii = np.linspace(0.0, 40.0, m)
        z = radii * np.exp(2j * np.pi * rng.uniform(size=(3, m)))
        alphas = np.vstack([np.full(m, k) for k in range(4)] + [rng.integers(0, 4, size=m)])
        got = OccupationFamily(alphas)(_half_sq(z))
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got) <= 1.0)

    def test_zero_factor_gives_exact_zero(self):
        # L_1(1) = 0 exactly; the rows with alpha_j != 1 there must stay finite
        m = 5
        x = np.array([[1.0, 0.3, 2.0, 0.7, 4.0], [0.2, 1.0, 1.0, 3.0, 0.0]])
        alphas = np.array([[1, 0, 2, 0, 3], [0, 1, 0, 3, 0], [0] * m, [2, 2, 2, 2, 2], [1, 1, 1, 1, 1]])
        got = OccupationFamily(alphas)(x)
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
        got = OccupationFamily(alpha)(x)[0]
        ref = float(np.prod(diagonal_elements(alpha[0], np.sqrt(2.0 * x))))
        assert np.sign(got) == (-1.0) ** negatives
        assert got == pytest.approx(ref, rel=1e-14)

    def test_modulus_at_most_one_near_vacuum(self):
        # products close to 1, where rounding in the exponent could push them above 1
        rng = np.random.default_rng(7)
        m = 400
        x = rng.uniform(0.0, 1e-6, size=(4, m))
        alphas = np.vstack([np.full(m, k) for k in range(4)] + [rng.integers(0, 4, size=m)])
        got = OccupationFamily(alphas)(x)
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
        got = OccupationFamily(alphas)(_half_sq(z))
        ref = _rowwise_products(alphas, z)
        assert got.shape == ref.shape
        assert np.all(np.abs(got) <= 1.0 + 1e-12)
        assert np.allclose(got, ref, rtol=1e-11, atol=1e-13)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            OccupationFamily(np.zeros((2, 3), int))(np.zeros((4, 5)))
        with pytest.raises(ValueError):
            OccupationFamily(np.zeros(3, int))(np.zeros(3))
        with pytest.raises(ValueError):
            OccupationFamily(-np.ones((1, 3), int))(np.zeros(3))


def _spy_paths(monkeypatch):
    """Record the ``positive`` flag of every OccupationFamily._finish call."""
    paths = []
    finish = OccupationFamily._finish

    def spy(self, table, x_sum, positive):
        paths.append(positive)
        return finish(self, table, x_sum, positive)

    monkeypatch.setattr(OccupationFamily, "_finish", spy)
    return paths


class TestSupAlphaStrategy:
    def test_vacuum_full_and_random_rows(self):
        config = _config("correlations", "full", kappa=3, seed=5, alpha_random=4)
        family = ensembles.sup_alpha_strategy(config, 6, 2)
        rng = np.random.default_rng([5, 2, 0xA1FA])
        rows = [np.zeros(6, int), np.full(6, 3)] + [rng.integers(0, 4, size=6) for _ in range(4)]
        assert family.shape == (6, 6) and family.dtype == int
        assert np.array_equal(family, np.stack(rows))

    @pytest.mark.parametrize("kappa, count", [(0, 6), (2, 0)])
    def test_vacuum_alone(self, kappa, count):
        """No excitations allowed, or no regime mode to hold them."""
        family = ensembles.sup_alpha_strategy(_config("correlations", "full", kappa=kappa), count, 0)
        assert np.array_equal(family, np.zeros((1, count), int))

    def test_repeats_dropped_in_order(self):
        # one mode and kappa = 1: every random row repeats the vacuum or the full vector
        family = ensembles.sup_alpha_strategy(_config("correlations", "full", kappa=1, alpha_random=5), 1, 0)
        assert family.tolist() == [[0], [1]]


class TestOccupationFamily:
    @pytest.mark.parametrize("lead", [(), (7,), (3, 5)])
    def test_early_out_bitwise_equal_to_general_path(self, lead):
        # every factor positive: L_1, L_2, L_3 have no root below 0.29
        rng = np.random.default_rng(8)
        m = 11
        alphas = np.vstack([np.full(m, k) for k in range(4)] + [rng.integers(0, 4, size=(3, m))])
        x = rng.uniform(0.0, 0.25, size=lead + (m,))
        family = OccupationFamily(alphas)
        fast = family(x)
        general = family._finish(family._fill(x), x.sum(axis=-1), positive=False)
        assert fast.shape == (alphas.shape[0],) + lead
        assert np.array_equal(fast, general)
        assert np.array_equal(fast, OccupationFamily(alphas)(x))

    @pytest.mark.parametrize("value, sign", [(1.0, 0.0), (2.0, -1.0)])
    def test_zero_or_negative_factor_forces_general_path(self, monkeypatch, value, sign):
        # L_1(1) = 0 and L_1(2) = -1 at one mode of one time
        paths = _spy_paths(monkeypatch)
        x = np.full((4, 6), 0.1)
        x[2, 3] = value
        alphas = np.array([[0] * 6, [1] * 6, [0, 0, 0, 1, 0, 0]])
        got = OccupationFamily(alphas)(x)
        assert paths == [False]
        assert np.sign(got[1, 2]) == sign and np.sign(got[2, 2]) == sign
        assert np.all(got[:, [0, 1, 3]] > 0.0)
        assert np.max(np.abs(got - _rowwise_products(alphas, np.sqrt(2.0 * x)))) < 1e-14
        paths.clear()
        x[2, 3] = 0.1
        OccupationFamily(alphas)(x)
        assert paths == [True]

    def test_reuses_tables_per_shape(self):
        rng = np.random.default_rng(9)
        alphas = rng.integers(0, 4, size=(3, 5))
        family = OccupationFamily(alphas)
        xs = [rng.uniform(0.0, 6.0, size=(4, 5)) for _ in range(3)] + [rng.uniform(0.0, 6.0, size=5)]
        for x in xs:
            got = family(x, x.sum(axis=-1))
            assert np.array_equal(got, OccupationFamily(alphas)(x))
            ref = _rowwise_products(alphas, np.sqrt(2.0 * x)).reshape(got.shape)
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-14)
        assert sorted(family._buffers) == [(4, 5), (5,)]

    def test_vacuum_family_has_no_tables(self):
        x = np.array([[0.5, 3.0], [2.0, 0.0]])
        got = OccupationFamily(np.zeros((2, 2), int))(x)
        assert np.array_equal(got, np.exp(-0.5 * x.sum(axis=-1))[None, :].repeat(2, axis=0))


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


def _shell(center, d, n_sites=12):
    """Sites of a chain at distance d from the center, in the kernels' order."""
    return [y for y in (center - d, center + d) if 0 <= y < n_sites]


def _run_kernel(config, box, seed=11):
    """The config's kernel on the box's sample of ``seed`` (k_max 1, as in ``make_chain_spec``),
    solved for the config's regime as ``run_sample`` solves it."""
    h = assemble(box, sample_disorder(DisorderConfig(k_max=1.0, master_seed=seed), box, 0))
    spec = diagonalize(h, lambda0=config.lambda0_value())
    return ensembles.KERNELS[config.experiment](config, box, spec, 0)


def _restriction(spec, lam, f):
    """C_f = exp(-||V (f - X f)||^2 / 4), from the part of f outside the regime."""
    return np.exp(-np.linalg.norm(v_map(spec, f - project_localized(spec, lam, f))) ** 2 / 4)


@pytest.mark.parametrize("lambda0", ["full", 2.0])
class TestKernelsAgainstScalarForms:
    """The batched kernels against one-site, one-time routes on boxes beyond the Fock oracle.

    ``fock_oracle.correlation_series`` sums a correlation over intermediate
    states.  The phases theta = Im<X f_t, X g>, the envelopes Q_s(x, y) as
    sums over S of |(V u_x)_j (V v_y)_j|, the pq coefficients and the
    quasi-locality tails come from the field maps ``evolve``,
    ``project_localized`` and ``v_map``.  The kernels' rows on boxes of two
    and three modes are checked against the oracle itself in test_fock_oracle.
    """

    def test_correlations(self, chain12, lambda0):
        box, spec = chain12
        config = _config("correlations", lambda0, center=[2], shells=[1, 3, 5, 9], amplitude=0.9)
        self._check_correlations(box, spec, config)

    def test_correlations_amplitude_3(self, chain12, lambda0, monkeypatch):
        # a and a^2 differ, and some factors L_k(x) are negative
        box, spec = chain12
        paths = _spy_paths(monkeypatch)
        config = _config("correlations", lambda0, center=[2], shells=[1, 3, 5, 9], amplitude=3.0)
        self._check_correlations(box, spec, config)
        assert False in paths

    @staticmethod
    def _check_correlations(box, spec, config):
        center = config.center_index()
        rows, flags = _run_kernel(config, box)
        table = dict(rows)
        lam = config.lambda0_value()
        times = ensembles._time_grid(config, spec)
        alphas = kernel_family(config, spec)
        assert alphas.shape[0] >= 2
        f = delta_field(12, center, config.amplitude)
        S = slice(spec.localized_count(lam))
        vf = v_map(spec, f)[S]
        for d in config.shells:
            sups, overlaps = [], []
            for y in _shell(center, d):
                g = delta_field(12, y, config.amplitude)
                sups.append(
                    max(abs(correlation_series(spec, lam, al, f, g, t, beta_cutoff=20)) for al in alphas for t in times)
                )
                # a^2 Q_-1(x, y) = sum_{j in S} |(Vf)_j (Vg)_j|
                overlaps.append(np.sum(np.abs(vf * v_map(spec, g)[S])))
            assert table[(d, "correlation_sup")] == pytest.approx(np.mean(sups), rel=1e-12, abs=1e-14)
            assert table[(d, "overlap_sum")] == pytest.approx(np.mean(overlaps), rel=1e-12, abs=1e-14)
        assert flags == {"correlation_bound_violations": 0}

    def test_lr_bound(self, chain12, lambda0):
        box, spec = chain12
        center = 2
        config = _config("lr-bound", lambda0, center=[center], shells=[1, 3, 5, 9], amplitude=0.9)
        rows, flags = _run_kernel(config, box)
        table = dict(rows)
        lam = config.lambda0_value()
        times = ensembles._time_grid(config, spec)
        a = config.amplitude
        f = delta_field(12, center, a)
        xfs = [project_localized(spec, lam, evolve(spec, f, t)) for t in times]
        S = slice(spec.localized_count(lam))
        vf = v_map(spec, f)[S]
        for d in config.shells:
            sups, envelopes = [], []
            for y in _shell(center, d):
                g = delta_field(12, y, a)
                cc = _restriction(spec, lam, f) * _restriction(spec, lam, g)
                # |e^{-i theta} - 1| with theta = Im<X f_t, X g> = Im<X f_t, g>
                sups.append(max(cc * abs(np.exp(-1j * np.imag(np.vdot(xf, g))) - 1.0) for xf in xfs))
                envelopes.append(cc * min(2.0, np.sum(np.abs(vf * v_map(spec, g)[S]))))
            assert table[(d, "commutator_sup")] == pytest.approx(np.mean(sups), rel=1e-12, abs=1e-14)
            assert table[(d, "commutator_envelope")] == pytest.approx(np.mean(envelopes), rel=1e-12, abs=1e-14)
        assert flags == {"domination_violations": 0}

    def test_pq_bound(self, chain12, lambda0):
        box, spec = chain12
        center = 2
        config = _config("pq-bound", lambda0, center=[center], shells=[1, 3, 5, 9])
        rows, flags = _run_kernel(config, box)
        table = dict(rows)
        lam = config.lambda0_value()
        times = ensembles._time_grid(config, spec)
        # Q_s(x, y) = sum_{j in S} |(V u_x)_j (V v_y)_j|: (Vdelta_x)_j = phi_j(x) gamma_j^{-1/2} and
        # (V i delta_x)_j = i phi_j(x) gamma_j^{1/2}, so (u, v) = (1, 1), (1, i), (i, i) give s = -1, 0, +1
        envelopes = {"envelope_minus": (1, 1), "envelope_zero": (1, 1j), "envelope_plus": (1j, 1j)}
        S = slice(spec.localized_count(lam))
        for d in config.shells:
            sites = _shell(center, d)
            coefficients = {name: [] for name in ("qq_sup", "qp_sup", "pq_sup", "pp_sup")}
            for y in sites:
                # Re and Im of X (delta_y)_t at x are <dx, cos(2t sqrt(h)) X dy> and
                # <dx, h^{-1/2} sin(2t sqrt(h)) X dy>; -Re of X (i delta_y)_t is the h^{1/2} sin term
                real = [project_localized(spec, lam, evolve(spec, delta_field(12, y), t))[center] for t in times]
                imag = [project_localized(spec, lam, evolve(spec, delta_field(12, y, 1j), t))[center] for t in times]
                coefficients["qq_sup"].append(max(abs(v.imag) for v in real))
                coefficients["qp_sup"].append(max(abs(v.real) for v in real))
                coefficients["pq_sup"].append(max(abs(v.real) for v in real))
                coefficients["pp_sup"].append(max(abs(v.real) for v in imag))
            for name, values in coefficients.items():
                assert table[(d, name)] == pytest.approx(np.mean(values), rel=1e-12, abs=1e-14)
            for name, (u, v) in envelopes.items():
                vx = v_map(spec, delta_field(12, center, u))[S]
                want = np.mean([np.sum(np.abs(vx * v_map(spec, delta_field(12, y, v))[S])) for y in sites])
                assert table[(d, name)] == pytest.approx(want, rel=1e-12, abs=1e-14)
        assert flags == {"domination_violations": 0}

    def test_quasi_locality(self, chain12, lambda0):
        box, spec = chain12
        self._check_quasi_locality(box, spec, _config("quasi-locality", lambda0, kappa=0, n_values=[3, 1, 2, 11]))

    def test_quasi_locality_amplitude_3(self, chain12, lambda0):
        box, spec = chain12
        config = _config("quasi-locality", lambda0, kappa=0, n_values=[3, 1, 2, 11], amplitude=3.0)
        self._check_quasi_locality(box, spec, config)

    def test_quasi_locality_square(self, lambda0):
        box = BoxGeometry([4, 4])
        spec = diagonalize(assemble(box, sample_disorder(DisorderConfig(k_max=1.0, master_seed=8), box, 0)))
        config = _config("quasi-locality", lambda0, box={"lengths": [4, 4]}, kappa=0, n_values=[0, 2, 1, 4, 6])
        self._check_quasi_locality(box, spec, config, seed=8)

    @staticmethod
    def _check_quasi_locality(box, spec, config, seed=11):
        """kappa = 0, so the family is the vacuum and the error is C_f sqrt(2 - 2 exp(-||V f_{n,t}||^2 / 4))."""
        assert config.kappa == 0
        rows, flags = _run_kernel(config, box, seed)
        lam = config.lambda0_value()
        times = ensembles._time_grid(config, spec)
        center = config.center_index()
        f = delta_field(box.n_sites, center, config.amplitude)
        c_f = _restriction(spec, lam, f)
        xfs = [project_localized(spec, lam, evolve(spec, f, t)) for t in times]
        expected = []
        for n in config.n_values:
            outside = np.ones(box.n_sites, dtype=bool)
            outside[neighborhood(box, [center], n)] = False
            # V f_{n,t} with f_{n,t} = X 1_{outside X(n)} X f_t
            norms = [np.linalg.norm(v_map(spec, project_localized(spec, lam, xf * outside))) for xf in xfs]
            err = max(c_f * np.sqrt(max(0.0, 2 - 2 * np.exp(-w**2 / 4))) for w in norms)
            expected += [((n, "error_sup"), err), ((n, "bound_sup"), np.sqrt(2.0) * max(norms))]
        # the kernel emits its rows radius by radius, largest first; every table sorts them
        assert sorted(key for key, _ in rows) == sorted(key for key, _ in expected)
        got_by_key = dict(rows)
        for key, want in expected:
            got = got_by_key[key]
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14), key
            if key[0] == box.diameter():
                assert got == 0.0  # X(n) is the whole box
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

    class Planted(OccupationFamily):
        def __call__(self, x, x_sum=None):
            out = super().__call__(x, x_sum)
            if np.shape(x) == (config.time_points, config.box().n_sites):
                if not joint_calls:
                    out[0, 0] = 50.0  # the joint element of the first site, first alpha, t = 0
                joint_calls.append(x)
            return out

    monkeypatch.setattr(ensembles, "OccupationFamily", Planted)
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

    class Planted(OccupationFamily):
        def __call__(self, x, x_sum=None):
            out = super().__call__(x, x_sum)
            if not calls:
                out[0, 0] = -1e6  # the vacuum at t = 0 for the largest radius
            calls.append(x)
            return out

    monkeypatch.setattr(ensembles, "OccupationFamily", Planted)
    tampered = ensembles.run_sample(config, 1)
    assert len(calls) == 2
    assert tampered.flags["bound_violations"] == 1
    rows = dict(tampered.rows)
    assert rows[(4, "error_sup")] > 1e3 > rows[(4, "bound_sup")]  # unclamped

    result = ensembles._reduce(config, [honest[0], tampered, honest[2]])
    assert result.metadata["bound_violations"] == 1
    twice = ensembles._reduce(config, [tampered, honest[1], tampered])
    assert twice.metadata["bound_violations"] == 2


@pytest.mark.parametrize("lambda0", ["full", 2.0, 0.5])
def test_ordering_flag_quiet_on_ladder_boxes(lambda0):
    """rho_N <= rho_D at full and the interlacing bound hold on the default ladder (L = 50, 100, 200)."""
    config = config_from_dict({"experiment": "energy-density", "lambda0": lambda0, "kappa": 1, "samples": 4, "seed": 3})
    assert ensembles.run_ensemble(config).metadata["ordering_violations"] == 0


@pytest.mark.parametrize(
    "lambda0, gap, counted",
    [
        pytest.param("full", 1e-6, 1, id="full-neumann-above"),
        pytest.param("full", -1e-6, 0, id="full-neumann-below"),
        pytest.param(2.0, 1e-6, 0, id="2-neumann-above"),
        pytest.param(2.0, -1.0, 1, id="2-beyond-bound"),
        pytest.param("full", 1.0, 2, id="full-both"),
    ],
)
def test_planted_ordering_violation_is_counted(monkeypatch, lambda0, gap, counted):
    """rho_N = rho_D + gap on one L = 20 box; the bound 2 kappa r sqrt(lambda0) / n is below 0.5 there."""
    config = config_from_dict(
        {"experiment": "energy-density", "lambda0": lambda0, "kappa": 1, "samples": 1, "seed": 3, "lengths_ladder": [20]}
    )
    # rho_N is taken first, then rho_D
    calls = itertools.count()
    monkeypatch.setattr(
        ensembles, "excitation_energy_density", lambda spec, lam, kappa: 1.0 + (gap if next(calls) % 2 == 0 else 0.0)
    )
    assert ensembles.run_sample(config, 0).flags["ordering_violations"] == counted


#: The flags that count violations of a kernel's dominations.
DOMINATION_FLAGS = ("domination_violations", "bound_violations", "correlation_bound_violations")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    lengths=st.one_of(st.tuples(st.integers(3, 12)), st.tuples(st.integers(2, 4), st.integers(2, 3))),
    seed=st.integers(0, 2**16),
    k_max=st.floats(0.05, 8.0),
    lambda0=st.one_of(st.just("full"), st.floats(0.0, 12.0)),
    kappa=st.sampled_from([0, 1, 2]),
    t_max=st.floats(0.1, 1e3),
)
def test_kernels_report_no_domination_violation(lengths, seed, k_max, lambda0, kappa, t_max):
    """Every kernel's dominations hold on random small boxes, with h a band (1D) or an array (2D)."""
    for kind in ensembles.KERNELS:
        config = config_from_dict(
            {
                "experiment": kind,
                "box": {"lengths": list(lengths)},
                "disorder": {"k_max": k_max},
                "lambda0": lambda0,
                "kappa": kappa,
                "samples": 1,
                "seed": seed,
                "time_grid": {"points": 9, "t_max": t_max},
            }
        )
        flags = ensembles.run_sample(config, 0).flags
        assert {name: flags.get(name, 0) for name in DOMINATION_FLAGS} == dict.fromkeys(DOMINATION_FLAGS, 0), kind


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    lengths=st.one_of(st.tuples(st.integers(2, 7), st.integers(2, 7)), st.tuples(st.integers(2, 3), st.integers(2, 3), st.integers(2, 4))),
    seed=st.integers(0, 2**16),
    k_max=st.floats(0.05, 8.0),
    fraction=st.floats(-0.5, 1.5),
)
# a nearly degenerate pair at relative gap 1.2e-5: the pq-bound envelope_plus row differs by 1.03e-12
@example(lengths=(2, 3, 2), seed=0, k_max=0.05, fraction=0.5)
def test_kernels_agree_with_full_decomposition(lengths, seed, k_max, fraction):
    """Every kernel on the regime run_sample solves matches a run on numpy's eigh, with the same flags.

    lambda0 lies below the spectrum, inside it or above it, so S is empty, partial or everything.  The
    reference keeps eigh's |S| lowest modes and forms the tails from all of its others, in place of
    ``anderson.tails``; |S| is the window's, so both runs read one regime.

    The rows agree to 1e-12 relative, or to eps ||h|| / gap where gap, the smallest eigenvalue gap
    that touches a mode of S, makes that larger.  Below it the eigenvectors are fixed only to that
    accuracy (Davis-Kahan), so the window's and eigh's are equally valid and Sum_j |phi_j(x) phi_j(y)|
    may differ by as much.
    """
    box = BoxGeometry(list(lengths))
    h = assemble(box, sample_disorder(DisorderConfig(k_max=k_max, master_seed=seed), box, 0))
    evals = np.linalg.eigvalsh(h)
    lambda0 = max(0.0, float(evals[0] + fraction * (evals[-1] - evals[0])))
    count = diagonalize(h, lambda0=lambda0).modes.shape[1]
    full_evals, full_modes = np.linalg.eigh(h)
    full_evals = np.clip(full_evals, 0.0, None)
    gammas = np.sqrt(full_evals)
    # the gaps (j, j + 1) with j in S
    gaps = np.diff(evals)[:count]
    rel = max(1e-12, np.finfo(float).eps * np.abs(evals).max() / gaps.min()) if gaps.size else 1e-12

    def full_decomposition(h, lambda0):
        modes = np.ascontiguousarray(full_modes[:, :count])
        return SpectralData(eigenvalues=full_evals, gammas=gammas, modes=modes, h=h)

    def full_tails(spec, sites):
        return (np.square(full_modes[:, count:]) @ (1.0 / gammas[count:]))[sites]

    for kind in ensembles.KERNELS:
        config = config_from_dict(
            {
                "experiment": kind,
                "box": {"lengths": list(lengths)},
                "disorder": {"k_max": k_max},
                "lambda0": lambda0,
                "kappa": 1,
                "samples": 1,
                "seed": seed,
                "time_grid": {"points": 7, "t_max": 5.0},
            }
        )
        regime = ensembles.run_sample(config, 0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ensembles, "diagonalize", full_decomposition)
            patch.setattr(ensembles, "tails", full_tails)
            full = ensembles.run_sample(config, 0)
        assert regime.flags == full.flags, kind
        assert [key for key, _ in regime.rows] == [key for key, _ in full.rows], kind
        for (key, got), (_, want) in zip(regime.rows, full.rows):
            assert got == pytest.approx(want, rel=rel, abs=1e-14), (kind, key)


GRID_KINDS = ("lr-bound", "pq-bound", "correlations", "quasi-locality")


def _grid_kernel(kind, lengths, lambda0, points, **extra):
    """The kernel of ``kind`` on one sample of a small box, with ``points`` times on [0, 50]."""
    doc = {"experiment": kind, "box": {"lengths": lengths}, "lambda0": lambda0, "kappa": 1, "samples": 1, "seed": 2}
    config = config_from_dict({**doc, "time_grid": {"points": points, "t_max": 50.0}, **extra})
    box = config.box()
    spec = diagonalize(assemble(box, sample_disorder(config.disorder(), box, 0)), lambda0=config.lambda0_value())
    return partial(ensembles.KERNELS[kind], config, box, spec, 0)


@pytest.mark.parametrize("lengths, lambda0", [([12], "full"), ([5, 4], 2.0)])
@pytest.mark.parametrize("kind", GRID_KINDS)
def test_time_blocks_leave_rows_and_flags(monkeypatch, kind, lengths, lambda0):
    """The running maxima and violation counts do not depend on where the blocks of times end.

    One time per block, blocks of 7 (23 = 3 x 7 + 2 leaves a short last block) and one block for the
    whole grid give rows within 1e-13 relative and the same flags.  The slack is lowered until each
    domination counts some of its entries, so the counts compare entry by entry.
    """
    slack = {"lr-bound": -0.5, "pq-bound": -0.5, "correlations": -1.9, "quasi-locality": -0.1}[kind]
    monkeypatch.setattr(ensembles, "DOMINATION_SLACK", slack)
    kernel = _grid_kernel(kind, lengths, lambda0, 23)
    runs = []
    for block in (23, 1, 7):
        monkeypatch.setattr(anderson, "TIME_BLOCK", block)
        runs.append(kernel())
    (rows, flags), others = runs[0], runs[1:]
    assert all(count > 0 for count in flags.values())
    for got_rows, got_flags in others:
        assert got_flags == flags
        assert [key for key, _ in got_rows] == [key for key, _ in rows]
        for (key, got), (_, want) in zip(got_rows, rows):
            assert got == pytest.approx(want, rel=1e-13, abs=0.0), key


@pytest.mark.parametrize("lengths, lambda0", [([60], "full"), ([8, 8], 2.0)])
@pytest.mark.parametrize("kind", GRID_KINDS)
def test_kernel_memory_does_not_grow_with_the_grid(kind, lengths, lambda0):
    """Five times the time points raise a kernel's traced peak by less than a quarter: the tables of
    times hold TIME_BLOCK rows, and only the grid itself grows."""
    peaks = []
    for points in (400, 2000):
        kernel = _grid_kernel(kind, lengths, lambda0, points)
        kernel()  # anything formed once per process is formed before the trace
        tracemalloc.start()
        try:
            kernel()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0], peaks


def _kernel_config(kind):
    grid = {"points": 5, "t_max": 2.0}
    return config_from_dict({"experiment": kind, "box": {"lengths": [6, 5]}, "lambda0": 2.0, "samples": 1, "time_grid": grid})


@pytest.mark.parametrize("kind", sorted(ensembles.KERNELS))
def test_only_kernels_without_c_f_leave_out_modes(monkeypatch, kind):
    """Every kernel, whether it reads C_f or not, gets Phi_S alone, from the window."""
    kept = []

    def spy(h, **regime_args):
        spec = diagonalize(h, **regime_args)
        kept.append(spec.modes.shape[1] == spec.localized_count(2.0) < 30)
        return spec

    monkeypatch.setattr(ensembles, "diagonalize", spy)
    ensembles.run_sample(_kernel_config(kind), 0)
    assert kept == [True]


@pytest.mark.parametrize("kind", sorted(ensembles.KERNELS))
def test_tails_formed_only_where_c_f_is_read(monkeypatch, kind):
    """lr-bound and correlations form tau at the center and the shells, quasi-locality at the center
    alone, and the eigencorrelator and pq-bound nowhere."""
    read = []

    def spy(spec, sites):
        read.append(np.atleast_1d(sites).tolist())
        return tails(spec, sites)

    monkeypatch.setattr(ensembles, "tails", spy)
    config = _kernel_config(kind)
    ensembles.run_sample(config, 0)
    center, _, ys = ensembles._shells(config, config.box())
    pair = [[center, *ys.tolist()]]
    assert read == {"lr-bound": pair, "correlations": pair, "quasi-locality": [[center]]}.get(kind, [])


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

    def test_result_independent_of_configured_workers(self):
        """Tables and metadata, the config digest included, agree whether the config asks for 1 or 2 workers."""
        doc = {"experiment": "lr-bound", "box": {"lengths": [12]}, "samples": 3, "time_grid": {"points": 5}}
        serial = ensembles.run_ensemble(config_from_dict({**doc, "workers": 1}))
        pooled = ensembles.run_ensemble(config_from_dict({**doc, "workers": 2}))
        assert serial == pooled

    def test_every_kind_has_a_sampler(self):
        """The kernels and the two eigenvalue-only kinds, which run_sample samples itself, are the kinds."""
        assert set(ensembles.KERNELS) | {"energy-density", "gap-stats"} == set(KINDS)
        assert not set(ensembles.KERNELS) & {"energy-density", "gap-stats"}

    def test_oracle_check_rejected_at_config_time(self):
        with pytest.raises(ConfigError):
            config_from_dict({"experiment": "oracle-check"})
