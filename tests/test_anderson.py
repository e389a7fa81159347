import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osclab import _lapack, anderson
from osclab.anderson import (
    RECONSTRUCTION_RTOL,
    SYMMETRY_TILE,
    DisorderConfig,
    SpectralData,
    Spectrum,
    Tridiagonal,
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
from osclab.lattice import BoxGeometry, graph_laplacian, laplacian_diagonal

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
        diff = np.asarray(assemble(box, sample, "dirichlet")) - np.asarray(assemble(box, sample, "neumann"))
        assert np.all(np.linalg.eigvalsh(diff) >= -1e-14)

    def test_dimension_mismatch(self):
        box = BoxGeometry.of_lengths([4])
        sample = sample_disorder(DisorderConfig(k_max=1.0, master_seed=0), BoxGeometry.of_lengths([5]), 0)
        with pytest.raises(ValueError):
            assemble(box, sample)


def _box_hamiltonian(lengths, bc, seed=6):
    box = BoxGeometry.of_lengths(lengths)
    sample = sample_disorder(DisorderConfig(k_max=1.5, master_seed=seed), box, 0)
    return assemble(box, sample, bc)


BOXES = [pytest.param([30], id="chain30"), pytest.param([6, 5], id="box6x5")]
BCS = ["neumann", "dirichlet"]


#: The six eigensolvers, (owner, name), that spectrum and diagonalize may call.
SOLVERS = [
    (np.linalg, "eigvalsh"),
    (np.linalg, "eigh"),
    (_lapack, "dsterf"),
    (_lapack, "dstevd"),
    (_lapack, "dsytrd"),
    (_lapack, "dormtr"),
]


def _solver(lengths, numpy_name):
    """(owner, name) of the eigensolver that finds a box's eigenvalues in place of numpy's ``numpy_name``:
    a chain's h is a ``Tridiagonal``, and a dense h's eigenpairs come from ``dstevd`` on its reduced band."""
    if _lapack.binding() is None:
        return np.linalg, numpy_name
    if len(lengths) == 1:
        return _lapack, {"eigvalsh": "dsterf", "eigh": "dstevd"}[numpy_name]
    return {"eigvalsh": (np.linalg, "eigvalsh"), "eigh": (_lapack, "dstevd")}[numpy_name]


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

    @pytest.mark.parametrize("lengths", BOXES)
    @pytest.mark.parametrize("broken", ["eigenvalue", "eigenvector", "nan"])
    def test_reconstruction_check(self, monkeypatch, broken, lengths):
        h = _box_hamiltonian(lengths, "neumann")
        scale = np.max(np.abs(np.asarray(h)))
        owner, name = _solver(lengths, "eigh")
        solve = getattr(owner, name)

        def wrong(*band_or_h):
            evals, vecs = solve(*band_or_h)
            # order="K" keeps dstevd's F order, in which dormtr back-transforms a dense h's modes
            evals, vecs = evals.copy(), vecs.copy(order="K")
            if broken == "eigenvalue":
                evals[-1] += 1e3 * RECONSTRUCTION_RTOL * scale
            elif broken == "eigenvector":
                vecs[:, -1] += 1e-6 * vecs[:, 0]
            else:
                vecs[3, 7] = np.nan
            return evals, vecs

        monkeypatch.setattr(owner, name, wrong)
        with pytest.raises(NumericError, match="reconstruction"):
            diagonalize(h)


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
        """A LinAlgError from any of the five solvers is a NumericError."""
        failed = []

        def failing(name):
            def fail(*band_or_h):
                failed.append(name)
                raise np.linalg.LinAlgError("did not converge")

            return fail

        for owner, name in SOLVERS:
            monkeypatch.setattr(owner, name, failing(name))
        dense = _box_hamiltonian([3, 2], "neumann")
        for h in (Tridiagonal(np.ones(3), np.zeros(2)), dense):
            for solve in (spectrum, diagonalize):
                with pytest.raises(NumericError, match="did not converge"):
                    solve(h)
        if _lapack.binding() is None:
            assert failed == ["eigvalsh", "eigh"] * 2
        else:
            # the band of the identity runs where a chain's h does; a dense h is reduced before its band is solved
            assert failed == ["dsterf", "dstevd", "eigvalsh", "dsytrd"]

    @pytest.mark.parametrize("bc", BCS)
    @pytest.mark.parametrize("lengths", BOXES)
    @pytest.mark.parametrize("broken", ["shifted", "trace_kept", "nan"])
    def test_invariant_check(self, monkeypatch, lengths, bc, broken):
        h = _box_hamiltonian(lengths, bc)
        scale = np.max(np.abs(np.asarray(h)))
        owner, name = _solver(lengths, "eigvalsh")
        solve = getattr(owner, name)

        def wrong(*band_or_h):
            evals = solve(*band_or_h).copy()
            if broken == "shifted":
                return evals + 1e3 * RECONSTRUCTION_RTOL * scale
            if broken == "nan":
                evals[-1] = np.nan
                return evals
            # moves two eigenvalues apart: the trace stays, ||h||_F^2 does not
            evals[0] -= 1e-3 * scale
            evals[-1] += 1e-3 * scale
            return evals

        monkeypatch.setattr(owner, name, wrong)
        with pytest.raises(NumericError):
            spectrum(h, bc)


def _spy_solvers(monkeypatch):
    """Record, in call order, which of the five eigensolvers run."""
    calls = []

    def spy(name, solve):
        def wrapper(*band_or_h):
            calls.append(name)
            return solve(*band_or_h)

        return wrapper

    for owner, name in SOLVERS:
        monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
    return calls


def _solve_both(h, bc="neumann"):
    return spectrum(h, bc), diagonalize(h, bc)


def _assert_same_bits(spec, dense, h):
    """spectrum/diagonalize results (spec, dense) equal the clamped eigvalsh/eigh output exactly."""
    evals, modes = np.linalg.eigh(h)
    assert np.array_equal(spec.eigenvalues, np.clip(np.linalg.eigvalsh(h), 0.0, None))
    assert np.array_equal(dense.eigenvalues, np.clip(evals, 0.0, None))
    assert np.array_equal(dense.modes, modes)
    assert dense.modes.flags.c_contiguous


@pytest.mark.skipif(_lapack.binding() is None, reason="numpy's LAPACK exports no tridiagonal driver")
class TestTridiagonalPath:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(length=st.integers(1, 90), bc=st.sampled_from(BCS), seed=st.integers(0, 2**16), k_max=st.floats(0.05, 8.0))
    def test_bit_identical_to_dense(self, length, bc, seed, k_max):
        """A chain's band and its dense matrix give the same bits, on the band drivers and on numpy's."""
        box = BoxGeometry.of_lengths([length])
        h = assemble(box, sample_disorder(DisorderConfig(k_max=k_max, master_seed=seed), box, 0), bc)
        assert isinstance(h, Tridiagonal)
        before = h.d.copy(), h.e.copy()
        spec, dense = _solve_both(h, bc)
        # LAPACK overwrites its band, which must be a copy
        assert np.array_equal(h.d, before[0]) and np.array_equal(h.e, before[1])
        matrix = np.asarray(h)
        spec_matrix, dense_matrix = _solve_both(matrix, bc)
        assert np.array_equal(spec.eigenvalues, spec_matrix.eigenvalues)
        assert np.array_equal(spec.gammas, spec_matrix.gammas)
        assert np.array_equal(dense.eigenvalues, dense_matrix.eigenvalues)
        assert np.array_equal(dense.modes, dense_matrix.modes)
        assert dense_matrix.modes.flags.c_contiguous
        _assert_same_bits(spec, dense, matrix)

    @pytest.mark.parametrize("bc", BCS)
    def test_routing(self, monkeypatch, bc):
        """The type of h picks the solver: a band runs the band drivers, every array the dense ones,
        a chain's dense matrix too."""
        chain = _box_hamiltonian([30], bc)
        e = chain.e.copy()
        e[9] = 0.0
        split = Tridiagonal(chain.d, e)
        far = np.asarray(chain).copy()
        far[2, 17] = far[17, 2] = -0.5
        calls = _spy_solvers(monkeypatch)
        routes = []
        for h in (chain, split, np.asarray(chain), _box_hamiltonian([6, 5], bc), far):
            calls.clear()
            spec, dense = _solve_both(h, bc)
            routes.append(calls.copy())
            _assert_same_bits(spec, dense, np.asarray(h))
        assert routes == [["dsterf", "dstevd"]] * 2 + [["eigvalsh", "dsytrd", "dstevd", "dormtr"]] * 3

    def test_unbound_falls_back_to_dense(self, monkeypatch):
        """Without the binding, a chain and a 2D box both run numpy's solvers, with the same bits."""
        hs = [_box_hamiltonian([30], "dirichlet"), _box_hamiltonian([6, 5], "dirichlet")]
        bound = [_solve_both(h, "dirichlet") for h in hs]
        monkeypatch.setattr(_lapack, "binding", lambda: None)
        calls = _spy_solvers(monkeypatch)
        for h, (spec, dense) in zip(hs, bound):
            calls.clear()
            spec_dense, dense_dense = _solve_both(h, "dirichlet")
            assert calls == ["eigvalsh", "eigh"]
            assert np.array_equal(spec.eigenvalues, spec_dense.eigenvalues)
            assert np.array_equal(dense.eigenvalues, dense_dense.eigenvalues)
            assert np.array_equal(dense.modes, dense_dense.modes)

    def test_rejects_malformed_band(self):
        for d, e in (([], []), ([1.0, 2.0], [1.0, 2.0]), ([[1.0]], [])):
            with pytest.raises(ValueError):
                _lapack.dsterf(d, e)
            with pytest.raises(ValueError):
                _lapack.dstevd(d, e)


class TestTridiagonal:
    @pytest.mark.parametrize("bc", BCS)
    @pytest.mark.parametrize("lengths", [[1], [2], [30], [6, 5], [3, 2, 2]])
    def test_assemble_bits(self, lengths, bc):
        """A box with nu = 1 assembles to a band, any other to an array; both densify to
        Laplacian(bc) + diag(k) bit for bit."""
        box = BoxGeometry.of_lengths(lengths)
        sample = sample_disorder(DisorderConfig(k_max=1.5, master_seed=6), box, 0)
        expected = graph_laplacian(box, laplacian_diagonal(box, bc))
        expected[np.arange(box.n_sites), np.arange(box.n_sites)] += sample.k
        h = assemble(box, sample, bc)
        assert isinstance(h, Tridiagonal) == (len(lengths) == 1)
        assert type(np.asarray(h)) is np.ndarray
        assert np.asarray(h).tobytes() == expected.tobytes()
        assert np.asarray(h, dtype=np.float32).dtype == np.float32

    def test_frozen_copy(self):
        d, e = np.array([2.0, 3.0, 4.0]), np.array([-1.0, -1.0])
        h = Tridiagonal(d, e)
        d[0] = e[0] = 7.0
        assert h.d[0] == 2.0 and h.e[0] == -1.0 and h.shape == (3, 3)
        with pytest.raises(ValueError):
            h.d[1] = 0.0

    @pytest.mark.parametrize(
        "d, e",
        [
            pytest.param([], [], id="empty"),
            pytest.param([1.0, 2.0], [1.0, 2.0], id="long-e"),
            pytest.param([1.0, 2.0, 3.0], [1.0], id="short-e"),
            pytest.param([1.0], [0.0], id="one-site-with-e"),
            pytest.param([[1.0]], [], id="matrix-d"),
        ],
    )
    def test_rejects_malformed_shape(self, d, e):
        with pytest.raises(ValueError):
            Tridiagonal(d, e)

    @pytest.mark.parametrize("solve", [spectrum, diagonalize])
    @pytest.mark.parametrize("where", ["d", "e"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, solve, where, bad):
        d, e = np.full(4, 3.0), np.full(3, -1.0)
        {"d": d, "e": e}[where][-1] = bad
        with pytest.raises(ValueError, match="finite"):
            solve(Tridiagonal(d, e))

    @pytest.mark.parametrize("start, stop", [(0, 1), (0, 5), (3, 4), (3, 9), (8, 9)])
    def test_lower_rows_are_dense_rows(self, start, stop):
        h = Tridiagonal(np.arange(1.0, 10.0), -np.arange(1.0, 9.0))
        assert np.array_equal(h.lower_rows(start, stop), np.asarray(h)[start:stop, :stop])

    def test_chain_allocates_no_matrix(self):
        """A 5000-site chain's spectrum never forms the 200 MB dense h."""
        import tracemalloc

        box = BoxGeometry.of_lengths([5000])
        sample = sample_disorder(DisorderConfig(k_max=1.0, master_seed=2), box, 0)
        tracemalloc.start()
        try:
            spec = spectrum(assemble(box, sample))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert spec.n == 5000
        assert peak < 2 * 2**20


def test_binding_found_in_scipy_openblas():
    """numpy built against scipy-openblas exports the drivers under a name in ``_lapack.SYMBOLS``."""
    lapack = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("lapack", {})
    if lapack.get("name") != "scipy-openblas":
        pytest.skip(f"numpy's LAPACK is {lapack.get('name', 'not reported')}")
    assert _lapack.binding() is not None


@pytest.mark.skipif(_lapack.binding() is None, reason="numpy's LAPACK exports none of the routines")
def test_solvers_leave_no_cyclic_garbage():
    """No solver call leaves garbage that only the cyclic collector frees."""
    import gc

    chain = _box_hamiltonian([30], "neumann")
    box = np.asarray(_box_hamiltonian([6, 5], "neumann"))
    calls = [
        lambda: _lapack.dsterf(chain.d, chain.e),
        lambda: _lapack.dstevd(chain.d, chain.e),
        lambda: _lapack.dormtr(*_lapack.dsytrd(box)[::3], np.eye(30, order="F")),
        lambda: spectrum(chain),
        lambda: diagonalize(chain, lambda0=2.0),
        lambda: spectrum(box),
        lambda: diagonalize(box),
        lambda: diagonalize(box, lambda0=2.0),
    ]
    for call in calls:
        call()  # binds the routines
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for number, call in enumerate(calls):
            call()
            assert gc.collect() == 0, number
    finally:
        if enabled:
            gc.enable()


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
        h = np.asarray(_box_hamiltonian([_ASYMMETRY_N], "neumann"))
        scale = np.max(np.abs(h))
        assert h[where] == 0.0
        h[where] = size * scale
        if rejected:
            with pytest.raises(ValueError, match="symmetric"):
                solve(h)
        else:
            assert solve(h).n == _ASYMMETRY_N


class TestReconstructionTiles:
    """The tiled reconstruction check reads every block of O diag(evals) O^T - h, against both triangles of h.

    h = diag(evals) and O = identity plus one entry O_pq, so the only wrong
    entries of the product are (p, q) and its mirror, each of value O_pq
    evals_q = -(tol - a / 4): inside the tolerance tol.  Planting a, which
    the symmetry test accepts, in one triangle of h moves that triangle's
    error to tol + 3a / 4, which only the comparison with that triangle sees.
    """

    @pytest.mark.parametrize(
        "p, q",
        [
            # n is not a multiple of the tile, so the last tile is partial
            pytest.param(_ASYMMETRY_N - 1, _ASYMMETRY_N - 30, id="last-partial-tile"),
            pytest.param(SYMMETRY_TILE + 9, 5, id="off-diagonal-block"),
        ],
    )
    @pytest.mark.parametrize("asymmetry, rejected", [(None, False), ("lower", True), ("upper", True)])
    def test_planted_error(self, monkeypatch, p, q, asymmetry, rejected):
        evals = np.linspace(1.0, 2.0, _ASYMMETRY_N)
        h = np.diag(evals)
        tol = RECONSTRUCTION_RTOL * np.max(h)
        a = 0.5e-12 * np.max(h)
        if asymmetry == "lower":
            h[p, q] = a
        elif asymmetry == "upper":
            h[q, p] = a
        modes = np.eye(_ASYMMETRY_N)
        modes[p, q] = -(tol - a / 4) / evals[q]
        monkeypatch.setattr(anderson, "_eigh", lambda h: (evals, modes))
        if rejected:
            with pytest.raises(NumericError, match="reconstruction"):
                diagonalize(h)
        else:
            assert diagonalize(h).modes is modes

    @pytest.mark.parametrize("row", [0, SYMMETRY_TILE + 9, _ASYMMETRY_N - 1])
    def test_nan_in_any_tile(self, monkeypatch, row):
        evals = np.linspace(1.0, 2.0, _ASYMMETRY_N)
        modes = np.eye(_ASYMMETRY_N)
        modes[row, 5] = np.nan  # NaN spreads over row and column ``row`` of the product
        monkeypatch.setattr(anderson, "_eigh", lambda h: (evals, modes))
        with pytest.raises(NumericError, match="reconstruction"):
            diagonalize(np.diag(evals))


class TestBandReconstruction:
    """The reconstruction check of a band reads every diagonal and off-diagonal entry,
    across tile boundaries and in the last partial tile.

    O = identity, so O diag(evals) O^T = diag(evals); the band is diag(evals)
    plus one planted entry, and the error is that entry alone.
    """

    @pytest.mark.parametrize(
        "where",
        [
            pytest.param(("d", 0), id="first-diagonal"),
            pytest.param(("d", _ASYMMETRY_N - 1), id="last-diagonal"),
            pytest.param(("e", 0), id="first-off-diagonal"),
            pytest.param(("e", SYMMETRY_TILE - 1), id="off-diagonal-across-tiles"),
            pytest.param(("e", SYMMETRY_TILE), id="off-diagonal-in-tile"),
            pytest.param(("e", _ASYMMETRY_N - 2), id="last-off-diagonal"),
        ],
    )
    @pytest.mark.parametrize("factor, rejected", [(2.0, True), (0.5, False)])
    def test_planted_error(self, monkeypatch, where, factor, rejected):
        evals = np.linspace(1.0, 2.0, _ASYMMETRY_N)
        d, e = evals.copy(), np.zeros(_ASYMMETRY_N - 1)
        name, pos = where
        {"d": d, "e": e}[name][pos] += factor * RECONSTRUCTION_RTOL * 2.0
        h = Tridiagonal(d, e)
        modes = np.eye(_ASYMMETRY_N)
        assert anderson._reconstruction_error(h, evals, modes) == anderson._reconstruction_error(
            np.asarray(h), evals, modes
        )
        monkeypatch.setattr(anderson, "_eigh", lambda h: (evals, modes))
        if rejected:
            with pytest.raises(NumericError, match="reconstruction"):
                diagonalize(h)
        else:
            assert diagonalize(h).modes is modes


_DENSE_LENGTHS = st.lists(st.integers(2, 12), min_size=2, max_size=2) | st.lists(st.integers(2, 6), min_size=3, max_size=3)


@pytest.mark.skipif(_lapack.binding() is None, reason="numpy's LAPACK exports no dsytrd")
class TestDenseDriver:
    """dsytrd, dstevd and dormtr on all n columns are dsyevd's three steps, so they give eigh's bits."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        lengths=_DENSE_LENGTHS,
        bc=st.sampled_from(BCS),
        seed=st.integers(0, 2**16),
        k_max=st.floats(0.05, 8.0),
        asymmetry=st.sampled_from([None, "lower", "upper"]),
    )
    def test_bit_identical_to_eigh(self, lengths, bc, seed, k_max, asymmetry):
        box = BoxGeometry.of_lengths(lengths)
        h = assemble(box, sample_disorder(DisorderConfig(k_max=k_max, master_seed=seed), box, 0), bc)
        # an asymmetry the symmetry test accepts; eigh reads only the lower triangle
        i, j = sorted(np.random.default_rng(seed).choice(box.n_sites, 2, replace=False), reverse=True)
        if asymmetry is not None:
            h[(i, j) if asymmetry == "lower" else (j, i)] += 0.5e-12 * np.max(np.abs(h))
        before = h.copy()
        a, d, e, tau = _lapack.dsytrd(h)
        evals, modes = _lapack.dstevd(d, e)
        _lapack.dormtr(a, tau, modes)
        expected = np.linalg.eigh(h)
        assert np.array_equal(h, before)  # LAPACK overwrites its matrix, which must be a copy
        assert np.array_equal(evals, expected[0])
        assert np.array_equal(modes, expected[1])
        # diagonalize keeps every mode by default, in eigh's bits and layout
        spec = diagonalize(h, bc)
        assert np.array_equal(spec.eigenvalues, np.clip(expected[0], 0.0, None))
        assert np.array_equal(spec.modes, expected[1])
        assert spec.modes.flags.c_contiguous

    def test_rejects_malformed_matrix(self):
        for h in (np.ones((2, 3)), np.ones(3), np.empty((0, 0))):
            with pytest.raises(ValueError):
                _lapack.dsytrd(h)
        a, _, _, tau = _lapack.dsytrd(np.asarray(_box_hamiltonian([3, 2], "neumann")))
        good = np.eye(6, order="F")
        read_only = good.copy(order="F")
        read_only.setflags(write=False)
        for c in (np.eye(6), np.eye(5, order="F"), np.eye(6, dtype=np.float32, order="F"), read_only, np.ones(6)):
            with pytest.raises(ValueError):
                _lapack.dormtr(a, tau, c)
        with pytest.raises(ValueError):
            _lapack.dormtr(a, tau[:-1], good)


def _window_case():
    """A 6x5 box and a lambda0 that keeps its lowest third: the window runs."""
    h = np.asarray(_box_hamiltonian([6, 5], "neumann"))
    evals = np.linalg.eigvalsh(h)
    return h, float(evals[9] + evals[10]) / 2


@pytest.mark.skipif(_lapack.binding() is None, reason="numpy's LAPACK exports no dsytrd")
class TestWindow:
    def test_back_transforms_only_the_window(self, monkeypatch):
        h, lambda0 = _window_case()
        columns = []
        ormtr = _lapack.dormtr

        def spy(a, tau, c):
            columns.append(c.shape[1])
            ormtr(a, tau, c)

        monkeypatch.setattr(_lapack, "dormtr", spy)
        spec = diagonalize(h, lambda0=lambda0)
        assert columns == [10]
        evals, modes = np.linalg.eigh(h)
        assert np.array_equal(spec.eigenvalues, np.clip(evals, 0.0, None))
        assert spec.modes.shape == (30, 10) and spec.modes.flags.c_contiguous
        signs = np.sign(np.sum(spec.modes * modes[:, :10], axis=0))
        assert np.max(np.abs(spec.modes - modes[:, :10] * signs)) < 1e-12

    @pytest.mark.parametrize(
        "fault, match",
        [
            pytest.param(None, None, id="none"),
            pytest.param("eigenvalue", "invariants", id="eigenvalue-outside-S"),
            pytest.param("eigenvalue-nan", "invariants", id="eigenvalue-nan"),
            pytest.param("band", "^band residual", id="band-column-outside-S"),
            pytest.param("band-nan", "^band residual", id="band-nan"),
            pytest.param("mode-mixed", "^residual", id="mode-mixed"),
            pytest.param("mode-nan", "^residual", id="mode-nan"),
            pytest.param("mode-scaled", "^orthonormality", id="mode-scaled"),
        ],
    )
    def test_planted_fault(self, monkeypatch, fault, match):
        """Each check of the window contract rejects a fault that passes every check before it."""
        h, lambda0 = _window_case()
        scale = np.max(np.abs(h))
        stevd, ormtr = _lapack.dstevd, _lapack.dormtr

        def wrong_stevd(d, e):
            evals, z = stevd(d, e)
            if fault == "eigenvalue":
                evals[-1] += 1e-6 * scale
            elif fault == "eigenvalue-nan":
                evals[-1] = np.nan
            elif fault == "band":
                z[:, -1] += 1e-6 * z[:, 0]
            elif fault == "band-nan":
                z[4, -1] = np.nan
            return evals, z

        def wrong_ormtr(a, tau, c):
            ormtr(a, tau, c)
            if fault == "mode-mixed":
                c[:, 0] += 1e-6 * c[:, 1]
            elif fault == "mode-nan":
                c[4, 0] = np.nan
            elif fault == "mode-scaled":
                c[:, 0] *= 1.0 + 1e-6  # still an eigenvector, no longer a unit one

        monkeypatch.setattr(_lapack, "dstevd", wrong_stevd)
        monkeypatch.setattr(_lapack, "dormtr", wrong_ormtr)
        if fault is None:
            assert diagonalize(h, lambda0=lambda0).modes.shape == (30, 10)
        else:
            with pytest.raises(NumericError, match=match):
                diagonalize(h, lambda0=lambda0)

    def test_kept_modes_are_enforced(self):
        h, lambda0 = _window_case()
        spec = diagonalize(h, lambda0=lambda0)
        assert localized_modes(spec, lambda0).size == 10
        with pytest.raises(ValueError, match="only 10 were kept"):
            localized_modes(spec, 2 * lambda0)

    @pytest.mark.parametrize("lambda0", [-1.0, np.nan])
    def test_rejects_bad_regime(self, lambda0):
        h, _ = _window_case()
        with pytest.raises(ValueError):
            diagonalize(h, lambda0=lambda0)

    @pytest.mark.parametrize("kwargs", [pytest.param({}, id="full"), pytest.param({"lambda0": 2.0}, id="window")])
    def test_peak_memory(self, kwargs):
        """Beside h, a dense solve holds at most three n x n buffers at once: h's reduction, Z and
        dstevd's workspace, which is freed before Z is used; no C-ordered copy of a partial Z."""
        import tracemalloc

        h = np.asarray(_box_hamiltonian([20, 20], "neumann"))
        diagonalize(h, **kwargs)
        tracemalloc.start()
        try:
            diagonalize(h, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.2 * h.nbytes


_WINDOW_BOXES = (
    st.lists(st.integers(2, 10), min_size=2, max_size=2).filter(lambda l: l[0] * l[1] <= 60)
    | st.lists(st.integers(2, 4), min_size=3, max_size=3).filter(lambda l: l[0] * l[1] * l[2] <= 60)
)


def _regime_level(evals, level, fraction):
    """A lambda0 below the spectrum, at the eigenvalue of a fraction of it, or above it."""
    return {"empty": 0.5 * evals[0], "partial": evals[int(fraction * (evals.size - 1))], "all": 2.0 * evals[-1]}[level]


@pytest.mark.skipif(_lapack.binding() is None, reason="numpy's LAPACK exports no dsytrd")
class TestWindowAgreement:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        lengths=_WINDOW_BOXES,
        bc=st.sampled_from(BCS),
        seed=st.integers(0, 2**16),
        k_max=st.floats(0.05, 8.0),
        level=st.sampled_from(["empty", "partial", "all"]),
        fraction=st.floats(0.0, 1.0),
    )
    def test_matches_eigh(self, lengths, bc, seed, k_max, level, fraction):
        """Eigenvalues are eigh's bits and the kept columns eigh's up to sign."""
        box = BoxGeometry.of_lengths(lengths)
        h = assemble(box, sample_disorder(DisorderConfig(k_max=k_max, master_seed=seed), box, 0), bc)
        evals, modes = np.linalg.eigh(h)
        evals = np.clip(evals, 0.0, None)
        lambda0 = _regime_level(evals, level, fraction)
        spec = diagonalize(h, bc, lambda0=lambda0)
        count = int(np.searchsorted(evals, lambda0, side="right"))
        assert np.array_equal(spec.eigenvalues, evals)
        assert spec.modes.shape == (box.n_sites, count)
        signs = np.where(np.sum(spec.modes * modes[:, :count], axis=0) < 0, -1.0, 1.0)
        assert np.max(np.abs(spec.modes - modes[:, :count] * signs), initial=0.0) <= 1e-12


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
