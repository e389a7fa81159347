import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osclab.anderson import (
    RECONSTRUCTION_RTOL,
    SYMMETRY_TILE,
    DisorderConfig,
    SpectralData,
    Spectrum,
    assemble,
    diagonalize,
    eigencorrelator,
    eigencorrelator_profile,
    localized_modes,
    propagator_sums,
    sample_disorder,
    spectrum,
    _max_asymmetry,
)
from osclab.ensembles import DOMINATION_SLACK
from osclab.errors import ConfigError, NumericError
from osclab.lattice import BoxGeometry

from conftest import make_chain_spec


class TestSampling:
    def test_deterministic(self):
        box = BoxGeometry.of_lengths([50])
        cfg = DisorderConfig(k_max=2.0, master_seed=123)
        a = sample_disorder(cfg, box, 7)
        b = sample_disorder(cfg, box, 7)
        assert np.array_equal(a.k, b.k)
        c = sample_disorder(cfg, box, 8)
        assert not np.array_equal(a.k, c.k)

    def test_uniform_mean(self):
        box = BoxGeometry.of_lengths([100000])
        cfg = DisorderConfig(k_max=1.0, master_seed=0)
        k = sample_disorder(cfg, box, 0).k
        assert abs(k.mean() - 0.5) < 0.01

    def test_support(self):
        box = BoxGeometry.of_lengths([1000])
        cfg = DisorderConfig(k_max=0.3, master_seed=1)
        k = sample_disorder(cfg, box, 4).k
        assert np.all(k > 0.0) and np.all(k <= 0.3)

    def test_inverse_cdf_table(self):
        # piecewise-linear quantile function concentrating mass near k_max
        cfg = DisorderConfig(
            k_max=1.0,
            master_seed=9,
            kind="inverse_cdf",
            table_u=(0.0, 0.5, 1.0),
            table_k=(0.0, 0.8, 1.0),
        )
        box = BoxGeometry.of_lengths([20000])
        k = sample_disorder(cfg, box, 0).k
        assert np.all((k > 0) & (k <= 1.0))
        assert k.mean() > 0.6  # skewed upward by construction

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k_max=-1.0, master_seed=0),
            dict(k_max=1.0, master_seed=0, kind="gaussian"),
            dict(k_max=1.0, master_seed=0, kind="inverse_cdf"),
            dict(k_max=1.0, master_seed=0, kind="inverse_cdf", table_u=(0.0, 1.0), table_k=(0.5, 0.2)),
            dict(k_max=1.0, master_seed=0, kind="inverse_cdf", table_u=(0.1, 1.0), table_k=(0.0, 1.0)),
            dict(k_max=float("inf"), master_seed=0),
            dict(k_max=float("nan"), master_seed=0),
        ],
    )
    def test_malformed_config(self, kwargs):
        with pytest.raises(ConfigError):
            DisorderConfig(**kwargs)


class TestAssemble:
    def test_constant_potential_shifts_spectrum(self):
        box = BoxGeometry.of_lengths([3])
        sample = sample_disorder(DisorderConfig(k_max=1.0, master_seed=0), box, 0)
        c = 0.7
        sample = type(sample)(k=np.full(3, c), sample_index=0)
        evals = np.sort(np.linalg.eigvalsh(assemble(box, sample)))
        assert np.allclose(evals, [c, c + 1.0, c + 3.0], atol=1e-12)

    def test_positive_definite(self):
        box = BoxGeometry.of_lengths([8])
        sample = sample_disorder(DisorderConfig(k_max=1.0, master_seed=3), box, 1)
        assert np.linalg.eigvalsh(assemble(box, sample))[0] > 0.0

    def test_dirichlet_dominates_neumann(self):
        box = BoxGeometry.of_lengths([6])
        sample = sample_disorder(DisorderConfig(k_max=1.0, master_seed=3), box, 0)
        diff = assemble(box, sample, "dirichlet") - assemble(box, sample, "neumann")
        assert np.all(np.linalg.eigvalsh(diff) >= -1e-14)

    def test_dimension_mismatch(self):
        box = BoxGeometry.of_lengths([4])
        sample = sample_disorder(DisorderConfig(k_max=1.0, master_seed=0), BoxGeometry.of_lengths([5]), 0)
        with pytest.raises(ValueError):
            assemble(box, sample)


class TestDiagonalize:
    def test_diagonal_input(self):
        spec = diagonalize(np.diag([1.0, 4.0, 9.0]))
        assert np.allclose(spec.gammas, [1.0, 2.0, 3.0])
        assert np.allclose(np.abs(spec.modes), np.eye(3))

    def test_free_three_site_chain(self):
        h = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        spec = diagonalize(h)
        assert np.allclose(spec.eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)

    def test_reconstruction_contract(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((50, 50))
        h = m @ m.T  # PSD
        spec = diagonalize(h)
        recon = (spec.modes * spec.eigenvalues) @ spec.modes.T
        assert np.max(np.abs(recon - h)) <= 1e-10 * np.max(np.abs(h))
        assert np.max(np.abs(spec.modes.T @ spec.modes - np.eye(50))) < 1e-12

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            diagonalize(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_norm_bound(self):
        box, spec = make_chain_spec(30, seed=4, k_max=0.8)
        assert spec.norm <= 4 * 1 + 0.8 + 1e-12

    @pytest.mark.parametrize("broken", ["eigenvalue", "eigenvector", "nan"])
    def test_reconstruction_check(self, monkeypatch, broken):
        h = _box_hamiltonian([6, 5], "neumann")
        scale = np.max(np.abs(h))
        solve = np.linalg.eigh

        def wrong(m):
            evals, vecs = solve(m)
            evals, vecs = evals.copy(), vecs.copy()
            if broken == "eigenvalue":
                evals[-1] += 1e3 * RECONSTRUCTION_RTOL * scale
            elif broken == "eigenvector":
                vecs[:, -1] += 1e-6 * vecs[:, 0]
            else:
                vecs[3, 7] = np.nan
            return evals, vecs

        monkeypatch.setattr(np.linalg, "eigh", wrong)
        with pytest.raises(NumericError, match="reconstruction"):
            diagonalize(h)


def _box_hamiltonian(lengths, bc, seed=6):
    box = BoxGeometry.of_lengths(lengths)
    sample = sample_disorder(DisorderConfig(k_max=1.5, master_seed=seed), box, 0)
    return assemble(box, sample, bc)


BOXES = [pytest.param([30], id="chain30"), pytest.param([6, 5], id="box6x5")]
BCS = ["neumann", "dirichlet"]


class TestSpectrum:
    @pytest.mark.parametrize("bc", BCS)
    @pytest.mark.parametrize("lengths", BOXES)
    def test_matches_diagonalize(self, lengths, bc):
        h = _box_hamiltonian(lengths, bc)
        spec = spectrum(h, bc)
        dense = diagonalize(h, bc)
        assert type(spec) is Spectrum and spec.bc == bc
        assert np.max(np.abs(spec.eigenvalues - dense.eigenvalues)) <= 1e-12 * dense.norm
        assert np.array_equal(spec.gammas, np.sqrt(spec.eigenvalues))
        assert spec.flag_degenerate() == dense.flag_degenerate()
        assert localized_modes(spec, 2.0).size == localized_modes(dense, 2.0).size

    def test_has_no_modes(self):
        spec = spectrum(_box_hamiltonian([8], "neumann"))
        with pytest.raises(AttributeError):
            spec.modes

    @pytest.mark.parametrize("solve", [spectrum, diagonalize])
    @pytest.mark.parametrize(
        "h",
        [
            pytest.param(np.array([[1.0, 2.0], [0.0, 1.0]]), id="nonsymmetric"),
            pytest.param(np.ones((2, 3)), id="nonsquare"),
            pytest.param(np.ones(3), id="vector"),
            pytest.param(np.array([[2.0, np.inf], [np.inf, 2.0]]), id="inf"),
            pytest.param(np.array([[2.0, np.nan], [np.nan, 2.0]]), id="nan"),
        ],
    )
    def test_rejects_malformed(self, solve, h):
        with pytest.raises(ValueError):
            solve(h)

    @pytest.mark.parametrize("solve", [spectrum, diagonalize])
    def test_negative_eigenvalue(self, solve):
        with pytest.raises(NumericError):
            solve(np.diag([-1.0, 2.0]))

    @pytest.mark.parametrize("solve", [spectrum, diagonalize])
    def test_round_off_negatives_clamped(self, solve):
        spec = solve(np.diag([-1e-12, 1.0, 2.0]))
        assert spec.eigenvalues[0] == 0.0 and spec.gammas[0] == 0.0

    def test_solver_failure(self, monkeypatch):
        def fail(h):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NumericError):
            spectrum(np.eye(3))

    @pytest.mark.parametrize("bc", BCS)
    @pytest.mark.parametrize("lengths", BOXES)
    @pytest.mark.parametrize("broken", ["shifted", "trace_kept", "nan"])
    def test_invariant_check(self, monkeypatch, lengths, bc, broken):
        h = _box_hamiltonian(lengths, bc)
        scale = np.max(np.abs(h))
        solve = np.linalg.eigvalsh

        def wrong(m):
            evals = solve(m).copy()
            if broken == "shifted":
                return evals + 1e3 * RECONSTRUCTION_RTOL * scale
            if broken == "nan":
                evals[-1] = np.nan
                return evals
            # moves two eigenvalues apart: the trace stays, ||h||_F^2 does not
            evals[0] -= 1e-3 * scale
            evals[-1] += 1e-3 * scale
            return evals

        monkeypatch.setattr(np.linalg, "eigvalsh", wrong)
        with pytest.raises(NumericError):
            spectrum(h, bc)


# n is not a multiple of the tile, so the last tile is ragged
_ASYMMETRY_N = 2 * SYMMETRY_TILE + 37


class TestSymmetryCheck:
    @pytest.mark.parametrize("n", [1, 5, SYMMETRY_TILE, SYMMETRY_TILE + 1, _ASYMMETRY_N])
    def test_tiles_match_dense_form(self, n):
        h = np.random.default_rng(n).standard_normal((n, n))
        assert _max_asymmetry(h) == np.max(np.abs(h - h.T))
        assert _max_asymmetry(h + h.T) == 0.0

    @pytest.mark.parametrize("solve", [spectrum, diagonalize])
    @pytest.mark.parametrize(
        "where",
        [
            pytest.param((70, 3), id="diagonal-tile"),
            pytest.param((5, SYMMETRY_TILE + 9), id="off-diagonal-tile"),
            pytest.param((_ASYMMETRY_N - 30, _ASYMMETRY_N - 1), id="ragged-tile"),
        ],
    )
    @pytest.mark.parametrize("size, rejected", [(2e-12, True), (0.5e-12, False)])
    def test_planted_asymmetry(self, solve, where, size, rejected):
        h = _box_hamiltonian([_ASYMMETRY_N], "neumann")
        scale = np.max(np.abs(h))
        assert h[where] == 0.0
        h[where] = size * scale
        if rejected:
            with pytest.raises(ValueError, match="symmetric"):
                solve(h)
        else:
            assert solve(h).n == _ASYMMETRY_N


class TestLocalizedModes:
    def test_full_and_empty(self, chain12):
        _, spec = chain12
        assert localized_modes(spec, spec.norm).size == spec.n
        assert localized_modes(spec, spec.eigenvalues[0] * 0.5).size == 0

    def test_three_site_constant(self):
        box = BoxGeometry.of_lengths([3])
        sample = sample_disorder(DisorderConfig(k_max=1.0, master_seed=0), box, 0)
        sample = type(sample)(k=np.full(3, 0.5), sample_index=0)
        spec = diagonalize(assemble(box, sample))
        S = localized_modes(spec, 1.0)  # spectrum {0.5, 1.5, 3.5}
        assert S.tolist() == [0]

    def test_prefix_property(self, chain12):
        _, spec = chain12
        S = localized_modes(spec, float(np.median(spec.eigenvalues)))
        assert S.tolist() == list(range(S.size))


class TestEigencorrelator:
    def test_hand_two_by_two(self):
        spec = diagonalize(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        # eigenvectors (1, +-1)/sqrt(2): Q0(0,1) = 1/2 + 1/2
        assert abs(eigencorrelator(spec, 4.0, 0, 0, 1) - 1.0) < 1e-12

    def test_parseval_lower_bound(self, chain12):
        _, spec = chain12
        q = eigencorrelator(spec, spec.norm, 0, 3, 3)
        assert q >= 1.0 - 1e-12

    def test_empty_regime(self, chain12):
        _, spec = chain12
        assert eigencorrelator(spec, 1e-6, 0, 0, 1) == 0.0

    def test_symmetry_and_monotone(self, chain12):
        _, spec = chain12
        lam_lo = float(np.percentile(spec.eigenvalues, 30))
        lam_hi = float(np.percentile(spec.eigenvalues, 80))
        for s in (-1, 0, 1):
            a = eigencorrelator(spec, lam_lo, s, 2, 9)
            b = eigencorrelator(spec, lam_lo, s, 9, 2)
            assert abs(a - b) < 1e-14
            assert eigencorrelator(spec, lam_hi, s, 2, 9) >= a - 1e-14

    def test_dominates_dynamic_kernels(self, chain12):
        # |<dx, h^{s/2} u(h) X dy>| <= Q_s for u = cos(2t sqrt(h)), sin(2t sqrt(h))
        _, spec = chain12
        lam = float(np.percentile(spec.eigenvalues, 70))
        S = localized_modes(spec, lam)
        x, y = 1, 7
        prod = spec.modes[x, S] * spec.modes[y, S]
        for t in np.linspace(0.0, 9.0, 25):
            for s, w in ((-1, 1 / spec.gammas[S]), (0, np.ones(S.size)), (1, spec.gammas[S])):
                q = eigencorrelator(spec, lam, s, x, y)
                assert abs(np.sum(np.cos(2 * t * spec.gammas[S]) * w * prod)) <= q + 1e-12
                assert abs(np.sum(np.sin(2 * t * spec.gammas[S]) * w * prod)) <= q + 1e-12

    def test_profile_matches_scalar(self, chain12):
        _, spec = chain12
        lam = float(np.median(spec.eigenvalues))
        row = eigencorrelator_profile(spec, lam, -1, 5)
        for y in range(spec.n):
            assert abs(row[y] - eigencorrelator(spec, lam, -1, 5, y)) < 1e-14


class TestPropagatorSums:
    def test_matches_mode_sums(self, chain12):
        _, spec = chain12
        lam = float(np.percentile(spec.eigenvalues, 70))
        S = localized_modes(spec, lam)
        gam = spec.gammas[S]
        x, sites = 4, np.array([0, 4, 9])
        times = np.array([0.0, 0.4, 3.7, 250.0])
        sums = propagator_sums(spec, lam, x, sites, times, (1, -1, 0))
        for s, got in zip((1, -1, 0), sums):
            assert got.shape == (times.size, sites.size)
            u = np.cos if s == 0 else np.sin
            for i, t in enumerate(times):
                for k, y in enumerate(sites):
                    want = np.sum(u(2 * t * gam) * gam**s * spec.modes[x, S] * spec.modes[y, S])
                    assert abs(got[i, k] - want) < 1e-13

    def test_sites_outside_box_rejected(self, chain12):
        _, spec = chain12
        for x, sites in ((-1, [0]), (12, [0]), (0, [12]), (0, [-1])):
            with pytest.raises(ValueError):
                propagator_sums(spec, spec.norm, x, sites, [0.0], (0,))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        lengths=st.one_of(st.tuples(st.integers(1, 12)), st.tuples(st.integers(2, 4), st.integers(2, 3))),
        seed=st.integers(0, 2**16),
        k_max=st.floats(0.05, 8.0),
        level=st.one_of(st.none(), st.floats(0.0, 1.1)),
        times=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=8),
        data=st.data(),
    )
    def test_dominated_by_eigencorrelator(self, lengths, seed, k_max, level, times, data):
        """|sum| <= Q_s(x, y) for every s, off any grid: the domination the pq-bound flag tests."""
        box = BoxGeometry.of_lengths(list(lengths))
        sample = sample_disorder(DisorderConfig(k_max=k_max, master_seed=seed), box, 0)
        spec = diagonalize(assemble(box, sample))
        lam = np.inf if level is None else level * spec.norm
        x = data.draw(st.integers(0, box.n_sites - 1))
        sums = propagator_sums(spec, lam, x, np.arange(box.n_sites), np.array(times), (-1, 0, 1))
        for s, got in zip((-1, 0, 1), sums):
            envelope = eigencorrelator_profile(spec, lam, s, x)
            assert np.all(np.abs(got) <= envelope[None, :] + DOMINATION_SLACK)


class TestMinGap:
    def test_simple(self):
        assert diagonalize(np.diag([1.0, 2.0, 3.0])).min_gap() == 1.0

    def test_degenerate(self):
        spec = diagonalize(np.diag([2.0, 2.0, 5.0]))
        assert spec.min_gap() == 0.0
        assert spec.flag_degenerate()

    def test_single_mode(self):
        assert diagonalize(np.array([[2.0]])).min_gap() == np.inf
