import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osclab import _lapack, anderson
from osclab.anderson import (
    RECONSTRUCTION_RTOL,
    DisorderConfig,
    Spectrum,
    Stencil,
    assemble,
    diagonalize,
    eigencorrelator_profile,
    propagator_sums,
    sample_disorder,
    spectrum,
)
from osclab.ensembles import DOMINATION_SLACK
from osclab.errors import ConfigError, NumericError
from osclab.lattice import BoxGeometry, laplacian_diagonal

from conftest import chain_stencil, make_chain_spec


class TestSampling:
    def test_deterministic(self):
        box = BoxGeometry([50])
        cfg = DisorderConfig(k_max=2.0, master_seed=123)
        a = sample_disorder(cfg, box, 7)
        b = sample_disorder(cfg, box, 7)
        assert np.array_equal(a, b)
        c = sample_disorder(cfg, box, 8)
        assert not np.array_equal(a, c)

    def test_uniform_mean(self):
        box = BoxGeometry([100000])
        cfg = DisorderConfig(k_max=1.0, master_seed=0)
        k = sample_disorder(cfg, box, 0)
        assert abs(k.mean() - 0.5) < 0.01

    def test_support(self):
        box = BoxGeometry([1000])
        cfg = DisorderConfig(k_max=0.3, master_seed=1)
        k = sample_disorder(cfg, box, 4)
        assert np.all(k > 0.0) and np.all(k <= 0.3)

    def test_inverse_cdf_table(self):
        # piecewise-linear quantile function concentrating mass near k_max
        cfg = DisorderConfig(
            k_max=1.0,
            master_seed=9,
            table_u=(0.0, 0.5, 1.0),
            table_k=(0.0, 0.8, 1.0),
        )
        box = BoxGeometry([20000])
        k = sample_disorder(cfg, box, 0)
        assert np.all((k > 0) & (k <= 1.0))
        assert k.mean() > 0.6  # skewed upward by construction

    def test_redraws_are_bounded(self):
        """A table that passes the load check but draws k > 0 only at u = 1 - 2^-53 raises NumericError,
        naming the table and its zero mass, once DISORDER_REDRAWS rounds have drawn no k > 0."""
        u_star = float(np.nextafter(np.nextafter(1.0, 0.0), 0.0))
        table = dict(table_u=(0.0, u_star, 1.0), table_k=(0.0, 0.0, 1.0))
        cfg = DisorderConfig(k_max=1.0, master_seed=0, **table)
        message = (
            rf"table \[0.0, {u_star!r}, 1.0\] -> \[0.0, 0.0, 1.0\] \(zero mass u\* = {u_star!r}\) "
            f"drew k <= 0 at 12 sites in {anderson.DISORDER_REDRAWS} redraw rounds"
        )
        with pytest.raises(NumericError, match=message):
            sample_disorder(cfg, BoxGeometry([12]), 0)

    def test_large_zero_mass(self):
        """A valid table that draws k = 0 with probability 0.9 fills a 40 x 40 box with k > 0."""
        table = dict(table_u=(0.0, 0.9, 1.0), table_k=(0.0, 0.0, 1.0))
        cfg = DisorderConfig(k_max=1.0, master_seed=3, **table)
        box = BoxGeometry([40, 40])
        for index in range(8):
            k = sample_disorder(cfg, box, index)
            assert np.all((k > 0) & (k <= 1.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k_max=-1.0, master_seed=0),
            dict(k_max=1.0, master_seed=0, table_u=(0.0, 1.0)),
            dict(k_max=1.0, master_seed=0, table_k=(0.0, 1.0)),
            dict(k_max=1.0, master_seed=0, table_u=(0.0, 1.0), table_k=(0.5, 0.2)),
            dict(k_max=1.0, master_seed=0, table_u=(0.1, 1.0), table_k=(0.0, 1.0)),
            dict(k_max=float("inf"), master_seed=0),
            dict(k_max=float("nan"), master_seed=0),
            dict(k_max=10.0, master_seed=0, table_u=(0.3, 0.1), table_k=(5.0, -2.0, 7.0)),
        ],
    )
    def test_malformed_config(self, kwargs):
        with pytest.raises(ConfigError):
            DisorderConfig(**kwargs)

    @pytest.mark.parametrize("k_max", [1e-300, 0.3, 1.0, 1.5, 2.0, 7.25, 1e300])
    def test_default_table_draws_uniform_bits(self, k_max):
        """interp on the default table [0, 1] -> [0, k_max] returns the bits of uniform(0, k_max)."""
        box = BoxGeometry([1600])
        for seed in range(5):
            cfg = DisorderConfig(k_max=k_max, master_seed=seed)
            assert [t.tolist() for t in cfg.table] == [[0.0, 1.0], [0.0, k_max]]
            want = np.random.default_rng([seed, 4]).uniform(0.0, k_max, size=box.n_sites)
            assert sample_disorder(cfg, box, 4).tobytes() == want.tobytes()


class TestAssemble:
    def test_constant_potential_shifts_spectrum(self):
        box = BoxGeometry([3])
        c = 0.7
        evals = np.sort(np.linalg.eigvalsh(assemble(box, np.full(3, c))))
        assert np.allclose(evals, [c, c + 1.0, c + 3.0], atol=1e-12)

    def test_positive_definite(self):
        box = BoxGeometry([8])
        k = sample_disorder(DisorderConfig(k_max=1.0, master_seed=3), box, 1)
        assert np.linalg.eigvalsh(assemble(box, k))[0] > 0.0

    def test_dirichlet_dominates_neumann(self):
        box = BoxGeometry([6])
        k = sample_disorder(DisorderConfig(k_max=1.0, master_seed=3), box, 0)
        diff = np.asarray(assemble(box, k, "dirichlet")) - np.asarray(assemble(box, k, "neumann"))
        assert np.all(np.linalg.eigvalsh(diff) >= -1e-14)

    def test_dimension_mismatch(self):
        box = BoxGeometry([4])
        k = sample_disorder(DisorderConfig(k_max=1.0, master_seed=0), BoxGeometry([5]), 0)
        with pytest.raises(ValueError):
            assemble(box, k)


def _box_hamiltonian(lengths, bc, seed=6):
    box = BoxGeometry(lengths)
    return assemble(box, sample_disorder(DisorderConfig(k_max=1.5, master_seed=seed), box, 0), bc)


BOXES = [pytest.param([30], id="chain30"), pytest.param([6, 5], id="box6x5")]
BCS = ["neumann", "dirichlet"]


#: The seven eigensolvers, (owner, name), that spectrum and diagonalize may call.
SOLVERS = [
    (np.linalg, "eigvalsh"),
    (np.linalg, "eigh"),
    (_lapack, "dsterf"),
    (_lapack, "dstevd"),
    (_lapack, "dstein"),
    (_lapack, "dsytrd"),
    (_lapack, "dormtr"),
]


def _solver(numpy_name):
    """(owner, name) of the eigensolver that finds a box's eigenvalues in place of numpy's ``numpy_name``:
    the band drivers, on a chain's band or on the band ``dsytrd`` reduces a larger box's h to."""
    if _lapack.binding() is None:
        return np.linalg, numpy_name
    return _lapack, {"eigvalsh": "dsterf", "eigh": "dstevd"}[numpy_name]


class TestDiagonalize:
    def test_diagonal_input(self):
        """A one-site h is its own diagonal: gamma = sqrt(h), and the mode is +-1."""
        for k, gamma in ((1.0, 1.0), (4.0, 2.0), (9.0, 3.0)):
            spec = diagonalize(chain_stencil([k]))
            assert np.allclose(spec.gammas, [gamma])
            assert np.array_equal(np.abs(spec.modes), [[1.0]])

    def test_free_three_site_chain(self):
        spec = diagonalize(chain_stencil([1.0, 2.0, 1.0]))
        assert np.allclose(spec.eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)

    def test_reconstruction_contract(self):
        box = BoxGeometry([10, 5])
        h = Stencil(box, laplacian_diagonal(box) + np.random.default_rng(2).uniform(0.0, 20.0, 50))
        spec = diagonalize(h)
        recon = (spec.modes * spec.eigenvalues) @ spec.modes.T
        assert np.max(np.abs(recon - np.asarray(h))) <= 1e-10 * np.max(np.abs(h.d))
        assert np.max(np.abs(spec.modes.T @ spec.modes - np.eye(50))) < 1e-12

    def test_norm_bound(self):
        box, spec = make_chain_spec(30, seed=4, k_max=0.8)
        assert spec.norm <= 4 * 1 + 0.8 + 1e-12

    @pytest.mark.parametrize("lengths", BOXES)
    @pytest.mark.parametrize("broken", ["eigenvalue", "eigenvector", "nan"])
    def test_reconstruction_check(self, monkeypatch, broken, lengths):
        """At lambda0 = inf the window contract rejects a wrong eigenvalue by the invariants, and a
        wrong or NaN eigenvector by the residual."""
        h = _box_hamiltonian(lengths, "neumann")
        scale = np.max(np.abs(np.asarray(h)))
        owner, name = _solver("eigh")
        solve = getattr(owner, name)

        def wrong(*band_or_h):
            evals, vecs = solve(*band_or_h)
            # order="K" keeps dstevd's F order, in which dormtr back-transforms the modes of a box with nu >= 2
            evals, vecs = evals.copy(), vecs.copy(order="K")
            if broken == "eigenvalue":
                evals[-1] += 1e3 * RECONSTRUCTION_RTOL * scale
            elif broken == "eigenvector":
                vecs[:, -1] += 1e-6 * vecs[:, 0]
            else:
                vecs[3, 7] = np.nan
            return evals, vecs

        monkeypatch.setattr(owner, name, wrong)
        with pytest.raises(NumericError, match="invariants" if broken == "eigenvalue" else "^residual"):
            diagonalize(h)


class TestSpectrum:
    @pytest.mark.parametrize("bc", BCS)
    @pytest.mark.parametrize("lengths", BOXES)
    def test_matches_diagonalize(self, lengths, bc):
        h = _box_hamiltonian(lengths, bc)
        spec = spectrum(h)
        dense = diagonalize(h)
        assert type(spec) is Spectrum
        assert np.max(np.abs(spec.eigenvalues - dense.eigenvalues)) <= 1e-12 * dense.norm
        assert np.array_equal(spec.gammas, np.sqrt(spec.eigenvalues))
        assert spec.flag_degenerate() == dense.flag_degenerate()
        assert spec.localized_count(2.0) == dense.localized_count(2.0)

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
        """An array is no h, whatever its shape or entries: the error names the ``Stencil`` that assemble builds."""
        with pytest.raises(TypeError, match="Stencil"):
            solve(h)

    @pytest.mark.parametrize("solve", [spectrum, diagonalize])
    def test_negative_eigenvalue(self, solve):
        with pytest.raises(NumericError):
            solve(chain_stencil([-1.0]))

    @pytest.mark.parametrize("solve", [spectrum, diagonalize])
    def test_round_off_negatives_clamped(self, solve):
        # eigenvalues d - 1 = -1e-12 and d + 1
        spec = solve(chain_stencil(np.full(2, 1.0 - 1e-12)))
        assert spec.eigenvalues[0] == 0.0 and spec.gammas[0] == 0.0

    def test_solver_failure(self, monkeypatch):
        """A LinAlgError from any of the solvers in SOLVERS is a NumericError."""
        failed = []

        def failing(name):
            def fail(*band_or_h):
                failed.append(name)
                raise np.linalg.LinAlgError("did not converge")

            return fail

        for owner, name in SOLVERS:
            monkeypatch.setattr(owner, name, failing(name))
        for lengths in ([3], [3, 2]):
            for solve in (spectrum, diagonalize):
                with pytest.raises(NumericError, match="did not converge"):
                    solve(_box_hamiltonian(lengths, "neumann"))
        if _lapack.binding() is None:
            assert failed == ["eigvalsh", "eigh"] * 2
        else:
            # a chain's band is solved as it is; a 2D box's h is reduced before its band is solved
            assert failed == ["dsterf", "dstevd", "dsytrd", "dsytrd"]

    @pytest.mark.parametrize("bc", BCS)
    @pytest.mark.parametrize("lengths", BOXES)
    @pytest.mark.parametrize("broken", ["shifted", "trace_kept", "nan"])
    def test_invariant_check(self, monkeypatch, lengths, bc, broken):
        h = _box_hamiltonian(lengths, bc)
        scale = np.max(np.abs(np.asarray(h)))
        owner, name = _solver("eigvalsh")
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
            spectrum(h)


def _spy_solvers(monkeypatch):
    """Record, in call order, which of the eigensolvers in SOLVERS run."""
    calls = []

    def spy(name, solve):
        def wrapper(*band_or_h):
            calls.append(name)
            return solve(*band_or_h)

        return wrapper

    for owner, name in SOLVERS:
        monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
    return calls


def _solve_both(h):
    return spectrum(h), diagonalize(h)


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
        """A chain's band on the band drivers gives the bits of numpy's solvers on its dense matrix."""
        box = BoxGeometry([length])
        h = assemble(box, sample_disorder(DisorderConfig(k_max=k_max, master_seed=seed), box, 0), bc)
        before = h.d.copy()
        spec, dense = _solve_both(h)
        # LAPACK overwrites its band, which must be a copy
        assert np.array_equal(h.d, before)
        _assert_same_bits(spec, dense, np.asarray(h))

    @pytest.mark.parametrize("bc", BCS)
    def test_routing(self, monkeypatch, bc):
        """The dimension of the box picks the route: a chain's band runs the band drivers as it is, and
        any other box's h is reduced by dsytrd first, for its eigenvalues too.  At lambda0 = inf
        diagonalize runs dstevd alone on the band, no dsterf."""
        calls = _spy_solvers(monkeypatch)
        routes = []
        for lengths in ([30], [6, 5], [3, 2, 2]):
            h = _box_hamiltonian(lengths, bc)
            calls.clear()
            spec, dense = _solve_both(h)
            routes.append(calls.copy())
            _assert_same_bits(spec, dense, np.asarray(h))
        assert routes == [["dsterf", "dstevd"]] + [["dsytrd", "dsterf", "dsytrd", "dstevd", "dormtr"]] * 2

    def test_unbound_falls_back_to_dense(self, monkeypatch):
        """Without the binding, a chain and a 2D box both run numpy's solvers, with the same bits."""
        hs = [_box_hamiltonian([30], "dirichlet"), _box_hamiltonian([6, 5], "dirichlet")]
        bound = [_solve_both(h) for h in hs]
        monkeypatch.setattr(_lapack, "binding", lambda: None)
        calls = _spy_solvers(monkeypatch)
        for h, (spec, dense) in zip(hs, bound):
            calls.clear()
            spec_dense, dense_dense = _solve_both(h)
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
        """Every box assembles to a stencil, which densifies to Laplacian(bc) + diag(k) bit for bit,
        the Laplacian taken from l1 distances."""
        box = BoxGeometry(lengths)
        k = sample_disorder(DisorderConfig(k_max=1.5, master_seed=6), box, 0)
        c = box.coords()
        adjacent = (np.abs(c[:, None, :] - c[None, :, :]).sum(axis=2) == 1).astype(float)
        expected = np.diag(laplacian_diagonal(box, bc) + k) - adjacent
        h = assemble(box, k, bc)
        assert type(h) is Stencil
        assert type(np.asarray(h)) is np.ndarray
        assert np.asarray(h).tobytes() == expected.tobytes()
        assert np.asarray(h, dtype=np.float32).dtype == np.float32

    def test_frozen_copy(self):
        """A chain's stencil is its band: d a frozen copy, and e the -1 between neighbours."""
        d = np.array([2.0, 3.0, 4.0])
        h = chain_stencil(d)
        d[0] = 7.0
        assert h.d[0] == 2.0 and h.shape == (3, 3) and np.array_equal(h.e, [-1.0, -1.0])
        with pytest.raises(ValueError):
            h.d[1] = 0.0

    @pytest.mark.parametrize(
        "lengths, d",
        [
            pytest.param([1], [], id="empty"),
            pytest.param([2], [1.0, 2.0, 3.0], id="long-d"),
            pytest.param([3], [1.0, 2.0], id="short-d"),
            pytest.param([1], [[1.0]], id="matrix-d"),
        ],
    )
    def test_rejects_malformed_shape(self, lengths, d):
        with pytest.raises(ValueError):
            Stencil(BoxGeometry(lengths), d)

    @pytest.mark.parametrize("solve", [spectrum, diagonalize])
    @pytest.mark.parametrize("where", ["d"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, solve, where, bad):
        d = np.full(4, 3.0)
        {"d": d}[where][-1] = bad
        with pytest.raises(ValueError, match="finite"):
            solve(chain_stencil(d))

    @pytest.mark.parametrize("lengths", [[1, 1], [6, 5], [3, 2, 4], [4, 1, 3], [1, 7]])
    def test_stencil_is_its_dense_matrix(self, lengths):
        """Products with vectors and matrices, shape, entries: all those of np.asarray(h).  The dense form
        takes its edges from ``_graph`` and the products from the neighbour slices, so a length-1 axis
        inside the box checks the one neighbour rule both read."""
        h = _box_hamiltonian(lengths, "dirichlet")
        dense = np.asarray(h)
        n = dense.shape[0]
        assert h.shape == dense.shape
        x = np.random.default_rng(3).standard_normal((n, 4))
        assert np.allclose(h @ x, dense @ x, rtol=0.0, atol=1e-14)
        assert np.allclose(h @ x[:, 0], dense @ x[:, 0], rtol=0.0, atol=1e-14)
        assert np.array_equal(h.e, np.full(np.count_nonzero(dense - np.diag(np.diag(dense))) // 2, -1.0))

    def test_band_product(self):
        h = chain_stencil(np.arange(1.0, 10.0))
        x = np.random.default_rng(4).standard_normal((9, 3))
        assert np.allclose(h @ x, np.asarray(h) @ x, rtol=0.0, atol=1e-13)

    def test_stencil_frozen_copy(self):
        box = BoxGeometry([2, 2])
        d = np.full(4, 2.0)
        h = Stencil(box, d)
        d[0] = 7.0
        assert h.d[0] == 2.0
        with pytest.raises(ValueError):
            h.d[1] = 0.0
        with pytest.raises(ValueError):
            Stencil(box, np.ones(5))

    def test_edges_formed_once(self):
        """``e`` is one read-only array, formed with the stencil, and no argument of it."""
        h = Stencil(BoxGeometry([3, 2]), np.full(6, 2.0))
        assert h.e is h.e and not h.e.flags.writeable
        assert np.array_equal(h.e, np.full(7, -1.0))
        with pytest.raises(TypeError):
            Stencil(h.box, h.d, h.e)

    @pytest.mark.skipif(_lapack.binding() is None, reason="numpy's eigvalsh takes h's dense form, 200 MB here")
    def test_chain_allocates_no_matrix(self):
        """A 5000-site chain's spectrum never forms the 200 MB dense h."""
        import tracemalloc

        box = BoxGeometry([5000])
        k = sample_disorder(DisorderConfig(k_max=1.0, master_seed=2), box, 0)
        tracemalloc.start()
        try:
            spec = spectrum(assemble(box, k))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert spec.n == 5000
        assert peak < 2 * 2**20


def test_binding_found_in_scipy_openblas(request):
    """numpy built against scipy-openblas exports the drivers under a name in ``_lapack.SYMBOLS``."""
    if request.config.getoption("--without-lapack"):
        pytest.skip("the routines are unbound by --without-lapack")
    lapack = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("lapack", {})
    if lapack.get("name") != "scipy-openblas":
        pytest.skip(f"numpy's LAPACK is {lapack.get('name', 'not reported')}")
    assert _lapack.binding() is not None


@pytest.mark.skipif(_lapack.binding() is None, reason="numpy's LAPACK exports none of the routines")
def test_solvers_leave_no_cyclic_garbage():
    """No solver call leaves garbage that only the cyclic collector frees."""
    import gc

    chain = _box_hamiltonian([30], "neumann")
    box = _box_hamiltonian([6, 5], "neumann")

    def reduce_and_map_back():
        a = np.array(np.asarray(box), order="F")
        _lapack.dormtr(a, _lapack.dsytrd(a)[2], np.eye(30, order="F"))

    calls = [
        lambda: _lapack.dsterf(chain.d, chain.e),
        lambda: _lapack.dstevd(chain.d, chain.e),
        lambda: _lapack.dstein(chain.d, chain.e, _lapack.dsterf(chain.d, chain.e)[:5]),
        reduce_and_map_back,
        lambda: spectrum(chain),
        lambda: diagonalize(chain, lambda0=2.0),
        lambda: spectrum(box),
        lambda: diagonalize(box),
        lambda: diagonalize(box, lambda0=2.0),
        lambda: diagonalize(box, lambda0=100.0),
        lambda: anderson.tails(diagonalize(box, lambda0=2.0), np.arange(30)),
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


#: Sites of the chain TestBandReconstruction plants its errors in.
_BAND_N = 293


@pytest.mark.skipif(_lapack.binding() is None, reason="numpy's LAPACK exports no tridiagonal driver")
class TestBandReconstruction:
    """The residual check at lambda0 = inf reads an error planted at any diagonal or off-diagonal
    entry of a chain, at its exact threshold.

    The chain's window returns numpy's eigenpairs of h plus delta at the symmetric
    entries (r, c) and (c, r).  As eigenpairs of h their residual is
    delta * max_j max(|phi_j(r)|, |phi_j(c)|), up to round-off far below it,
    so delta is chosen from h's own eigenvectors to make that factor *
    tol * scale.
    """

    @pytest.mark.parametrize(
        "where",
        [
            pytest.param(("d", 0), id="first-diagonal"),
            pytest.param(("d", _BAND_N - 1), id="last-diagonal"),
            pytest.param(("e", 0), id="first-off-diagonal"),
            pytest.param(("e", 127), id="off-diagonal-across-tiles"),
            pytest.param(("e", 128), id="off-diagonal-in-tile"),
            pytest.param(("e", _BAND_N - 2), id="last-off-diagonal"),
        ],
    )
    @pytest.mark.parametrize("factor, rejected", [(2.0, True), (0.5, False)])
    def test_planted_error(self, monkeypatch, where, factor, rejected):
        h = _box_hamiltonian([_BAND_N], "neumann")
        name, pos = where
        row, col = (pos, pos) if name == "d" else (pos + 1, pos)
        planted = np.asarray(h)
        peak = np.max(np.abs(np.linalg.eigh(planted)[1][[row, col]]))
        planted[row, col] += factor * RECONSTRUCTION_RTOL * np.max(np.abs(planted)) / peak
        planted[col, row] = planted[row, col]
        evals, modes = np.linalg.eigh(planted)
        modes = np.ascontiguousarray(modes)
        monkeypatch.setattr(anderson, "_band_window", lambda d, e, lambda0: (evals, modes))
        if rejected:
            with pytest.raises(NumericError, match="^residual"):
                diagonalize(h)
        else:
            assert diagonalize(h).modes is modes


class TestNumpyBranch:
    """Without the binding ``anderson._solve`` runs numpy's ``eigvalsh``/``eigh`` under the contract of
    the LAPACK branch: a fault planted in their output is rejected by the same check with the same
    message.  On a chain the band drivers return numpy's bits, so the same fault gives the same
    numbers on both branches and the messages agree in full."""

    @pytest.mark.parametrize(
        "fault, check",
        [
            pytest.param("shifted", "^eigenvalues miss the invariants of h: ", id="invariants"),
            pytest.param("mixed", r"^residual max\|h Phi_S - Phi_S Lambda_S\| ", id="residual"),
            pytest.param("scaled", r"^orthonormality max\|Phi_S\^T Phi_S - I\| ", id="orthonormality"),
        ],
    )
    def test_planted_fault(self, monkeypatch, fault, check):
        h = _box_hamiltonian([30], "neumann")
        scale = np.max(np.abs(np.asarray(h)))
        # eigenvalues alone for the invariants, every mode for the checks of Phi_S
        numpy_name, solve = ("eigvalsh", spectrum) if fault == "shifted" else ("eigh", diagonalize)

        def planted(owner, name):
            right = getattr(owner, name)

            def wrong(*band_or_h):
                if fault == "shifted":
                    return right(*band_or_h) + 1e3 * RECONSTRUCTION_RTOL * scale
                evals, vecs = right(*band_or_h)
                vecs = vecs.copy()
                if fault == "mixed":
                    vecs[:, -1] += 1e-6 * vecs[:, 0]
                else:
                    vecs[:, 0] *= 1.0 + 1e-6  # still an eigenvector, no longer a unit one
                return evals, vecs

            return wrong

        branches = [(np.linalg, numpy_name)]
        if _lapack.binding() is not None:
            branches.insert(0, (_lapack, {"eigvalsh": "dsterf", "eigh": "dstevd"}[numpy_name]))
        messages = []
        for owner, name in branches:
            with monkeypatch.context() as patch:
                if owner is np.linalg:
                    patch.setattr(_lapack, "binding", lambda: None)
                patch.setattr(owner, name, planted(owner, name))
                with pytest.raises(NumericError, match=check) as raised:
                    solve(h)
            messages.append(str(raised.value))
        assert len(messages) == 1 + (_lapack.binding() is not None) and len(set(messages)) == 1


_DENSE_LENGTHS = st.lists(st.integers(2, 12), min_size=2, max_size=2) | st.lists(st.integers(2, 6), min_size=3, max_size=3)


@pytest.mark.skipif(_lapack.binding() is None, reason="numpy's LAPACK exports no dsytrd")
class TestDenseDriver:
    """dsytrd, dstevd and dormtr on all n columns are dsyevd's three steps, so they give eigh's bits."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(lengths=_DENSE_LENGTHS, bc=st.sampled_from(BCS), seed=st.integers(0, 2**16), k_max=st.floats(0.05, 8.0))
    def test_bit_identical_to_eigh(self, lengths, bc, seed, k_max):
        box = BoxGeometry(lengths)
        h = assemble(box, sample_disorder(DisorderConfig(k_max=k_max, master_seed=seed), box, 0), bc)
        a = np.array(np.asarray(h), order="F")
        d, e, tau = _lapack.dsytrd(a)
        evals, modes = _lapack.dstevd(d, e)
        _lapack.dormtr(a, tau, modes)
        expected = np.linalg.eigh(np.asarray(h))
        assert np.array_equal(evals, expected[0])
        assert np.array_equal(modes, expected[1])
        # diagonalize keeps every mode by default, in eigh's bits and layout
        spec = diagonalize(h)
        assert np.array_equal(spec.eigenvalues, np.clip(expected[0], 0.0, None))
        assert np.array_equal(spec.modes, expected[1])
        assert spec.modes.flags.c_contiguous

    def test_rejects_malformed_matrix(self):
        h = np.asarray(_box_hamiltonian([3, 2], "neumann"))
        read_only = np.array(h, order="F")
        read_only.setflags(write=False)
        for bad in (np.ones((2, 3), order="F"), np.ones(3), np.empty((0, 0), order="F"), h + np.eye(6), read_only):
            with pytest.raises(ValueError):
                _lapack.dsytrd(bad)
        a = np.array(h, order="F")
        _, _, tau = _lapack.dsytrd(a)
        good = np.eye(6, order="F")
        read_only = good.copy(order="F")
        read_only.setflags(write=False)
        for c in (np.eye(6), np.eye(5, order="F"), np.eye(6, dtype=np.float32, order="F"), read_only, np.ones(6)):
            with pytest.raises(ValueError):
                _lapack.dormtr(a, tau, c)
        with pytest.raises(ValueError):
            _lapack.dormtr(a, tau[:-1], good)


def _window_case():
    """A 6x5 box's stencil and a lambda0 that keeps its lowest third: the window runs."""
    h = _box_hamiltonian([6, 5], "neumann")
    evals = np.linalg.eigvalsh(h)
    return h, float(evals[9] + evals[10]) / 2


def _assert_window(spec, h, count):
    """spec is the window of h with |S| = count: eigvalsh's eigenvalues, and eigh's columns up to sign."""
    evals, modes = np.linalg.eigh(np.asarray(h))
    assert np.array_equal(spec.eigenvalues, np.clip(np.linalg.eigvalsh(np.asarray(h)), 0.0, None))
    assert spec.modes.shape == (evals.size, count) and spec.modes.flags.c_contiguous
    signs = np.where(np.sum(spec.modes * modes[:, :count], axis=0) < 0, -1.0, 1.0)
    assert np.max(np.abs(spec.modes - modes[:, :count] * signs), initial=0.0) <= 1e-12


@pytest.mark.skipif(_lapack.binding() is None, reason="numpy's LAPACK exports no dsytrd")
class TestWindow:
    def test_back_transforms_only_the_window(self, monkeypatch):
        """A 2D box runs the window, which maps back only the columns of S."""
        h, lambda0 = _window_case()
        calls = _spy_solvers(monkeypatch)
        columns = []
        ormtr = _lapack.dormtr

        def spy(a, tau, c):
            columns.append(c.shape[1])
            ormtr(a, tau, c)

        monkeypatch.setattr(_lapack, "dormtr", spy)
        spec = diagonalize(h, lambda0=lambda0)
        assert calls == ["dsytrd", "dsterf", "dstein", "dormtr"] and columns == [10]
        _assert_window(spec, h, 10)

    @pytest.mark.parametrize(
        "fault, match",
        [
            pytest.param(None, None, id="none"),
            pytest.param("eigenvalue", "invariants", id="eigenvalue-outside-S"),
            pytest.param("eigenvalue-nan", "invariants", id="eigenvalue-nan"),
            pytest.param("mode-mixed", "^residual", id="mode-mixed"),
            pytest.param("mode-nan", "^residual", id="mode-nan"),
            pytest.param("mode-scaled", "^orthonormality", id="mode-scaled"),
        ],
    )
    def test_planted_fault(self, monkeypatch, fault, match):
        """Each check of the window contract rejects a fault that passes every check before it, both in
        the window (dsterf and dstein) and at lambda0 = inf (dstevd alone)."""
        h, lambda0 = _window_case()
        scale = np.max(np.abs(np.asarray(h)))
        sterf, stein, stevd = _lapack.dsterf, _lapack.dstein, _lapack.dstevd

        def wrong_evals(evals):
            if fault == "eigenvalue":
                evals[-1] += 1e-6 * scale
            elif fault == "eigenvalue-nan":
                evals[-1] = np.nan
            return evals

        def wrong_z(z):
            if fault == "mode-mixed":
                z[:, 0] += 1e-6 * z[:, 1]
            elif fault == "mode-nan":
                z[4, 0] = np.nan
            elif fault == "mode-scaled":
                z[:, 0] *= 1.0 + 1e-6  # still an eigenvector, no longer a unit one
            return z

        def wrong_stevd(d, e):
            evals, z = stevd(d, e)
            return wrong_evals(evals), wrong_z(z)

        monkeypatch.setattr(_lapack, "dsterf", lambda d, e: wrong_evals(sterf(d, e)))
        monkeypatch.setattr(_lapack, "dstein", lambda *band_and_eigenvalues: wrong_z(stein(*band_and_eigenvalues)))
        monkeypatch.setattr(_lapack, "dstevd", wrong_stevd)
        for regime, count in ((lambda0, 10), (np.inf, 30)):
            if fault is None:
                assert diagonalize(h, lambda0=regime).modes.shape == (30, count)
            else:
                with pytest.raises(NumericError, match=match):
                    diagonalize(h, lambda0=regime)

    @pytest.mark.parametrize("lengths", [[30], [6, 5], [5, 4, 3]], ids=["chain", "2D", "3D"])
    def test_finite_regime_routes(self, monkeypatch, lengths):
        """Every lambda0 runs the window: dsterf, then dstein on S, or dstevd where S is every mode, from
        lambda0 = lambda_n on; the eigenvalues are eigvalsh's bits either way.  At lambda0 = inf dstevd
        runs alone."""
        h = _box_hamiltonian(lengths, "neumann")
        evals = spectrum(h).eigenvalues
        calls = _spy_solvers(monkeypatch)
        routes = []
        for lambda0 in (0.5 * evals[0], float(np.median(evals)), float(evals[-1]), 2.0 * evals[-1], np.inf):
            calls.clear()
            spec = diagonalize(h, lambda0=lambda0)
            routes.append([name for name in calls if name not in ("dsytrd", "dormtr")])
            if lambda0 < np.inf:
                _assert_window(spec, h, spec.localized_count(lambda0))
        assert routes == [["dsterf", "dstein"]] * 2 + [["dsterf", "dstevd"]] * 2 + [["dstevd"]]

    def test_every_mode_route_is_checked(self, monkeypatch):
        """Where S is every mode the window takes dstevd's vectors, and its residual check rejects a mixed one."""
        h, _ = _window_case()
        stevd = _lapack.dstevd

        def mixed(d, e):
            evals, z = stevd(d, e)
            z[:, 0] += 1e-6 * z[:, 1]
            return evals, z

        monkeypatch.setattr(_lapack, "dstevd", mixed)
        with pytest.raises(NumericError, match="^residual"):
            diagonalize(h, lambda0=2.0 * spectrum(h).norm)

    def test_kept_modes_are_enforced(self):
        h, lambda0 = _window_case()
        spec = diagonalize(h, lambda0=lambda0)
        assert spec.localized_count(lambda0) == 10
        with pytest.raises(ValueError, match="only 10 were kept"):
            spec.localized_count(2 * lambda0)

    @pytest.mark.parametrize("lambda0", [-1.0, np.nan])
    def test_rejects_bad_regime(self, lambda0):
        h, _ = _window_case()
        with pytest.raises(ValueError):
            diagonalize(h, lambda0=lambda0)

    @pytest.mark.parametrize(
        "lengths, lambda0, every_tail, budget",
        [
            pytest.param([20, 20], np.inf, False, 3.2, id="full"),
            pytest.param([20, 20], 2.0, False, 1.25, id="window"),
            pytest.param([20, 20], 2.0, True, 1.25, id="window-tails"),
            pytest.param([20, 20], None, False, 3.2, id="every-mode"),
            pytest.param([400], np.inf, False, 2.5, id="chain-full"),
        ],
    )
    def test_peak_memory(self, lengths, lambda0, every_tail, budget):
        """From assembly on, a 20x20 box's solve that keeps every mode, at lambda0 = inf or at
        lambda0 = 2 ||h||, holds at most three n x n buffers at once: the reduced h, Z and dstevd's
        workspace, and then Phi_S and the residual, from which Phi_S Lambda_S is taken in blocks of
        n x RESIDUAL_BLOCK.  A chain has no reduced h, so its full solve stays under 2.5 n x n.  The
        window holds one n x n buffer, the reduced h, beside n x |S| columns; the tails at every
        site, formed after it, add three blocks of n x TAILS_BLOCK."""
        import tracemalloc

        box = BoxGeometry(lengths)
        k = sample_disorder(DisorderConfig(k_max=1.5, master_seed=6), box, 0)
        if lambda0 is None:
            lambda0 = 2.0 * spectrum(assemble(box, k)).norm

        def solve():
            spec = diagonalize(assemble(box, k), lambda0=lambda0)
            if every_tail:
                anderson.tails(spec, np.arange(box.n_sites))

        solve()  # binds the routines
        tracemalloc.start()
        try:
            solve()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < budget * box.n_sites**2 * 8

    @pytest.mark.parametrize(
        "lengths, lambda0",
        [([40, 40], 2.0), ([6, 5], 2.0), ([5, 4, 3], 2.0), ([400], 0.5)],
        ids=["40x40", "6x5", "5x4x3", "chain400"],
    )
    def test_eigenvalues_are_eigvalsh_bits(self, lengths, lambda0):
        h = _box_hamiltonian(lengths, "neumann")
        spec = diagonalize(h, lambda0=lambda0)
        assert 0 < spec.modes.shape[1] < spec.n
        assert np.array_equal(spec.eigenvalues, spectrum(h).eigenvalues)
        assert np.array_equal(spec.eigenvalues, np.clip(np.linalg.eigvalsh(np.asarray(h)), 0.0, None))


@pytest.mark.skipif(_lapack.binding() is None, reason="numpy's LAPACK exports no dstein")
class TestInverseIteration:
    """dstein's edge cases: T has a zero off-diagonal entry, S holds 0, 1 or n - 1 modes, vectors fail
    to converge.  dstein always takes T as one block."""

    @staticmethod
    def _band_stencil(d, e):
        """A chain's stencil whose band, dense form and product are those of (d, e), not of the Laplacian."""
        h = Stencil(BoxGeometry([d.size]), d)
        dense = np.diag(h.d) + np.diag(e, 1) + np.diag(e, -1)
        object.__setattr__(h, "e", e)
        object.__setattr__(h, "_apply", lambda x, out: np.matmul(dense, x, out=out))
        return h, dense

    def test_band_with_a_zero(self):
        """A band with an exact zero: dsterf's bits on all of it, and inverse iteration on it as one
        block, its vectors eigh's up to sign in the order of the eigenvalues."""
        chain = _box_hamiltonian([30], "neumann")
        d, e = chain.d, chain.e.copy()
        e[9] = 0.0
        band = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        evals, modes = np.linalg.eigh(band)
        got, z = anderson._band_window(d, e, float(evals[14] + evals[15]) / 2)
        assert np.array_equal(got, _lapack.dsterf(d, e))
        assert z.shape == (30, 15) and z.flags.f_contiguous
        signs = np.where(np.sum(z * modes[:, :15], axis=0) < 0, -1.0, 1.0)
        assert np.max(np.abs(z - modes[:, :15] * signs)) <= 1e-12

    @pytest.mark.parametrize("coupling", [0.0, 1e-300, 1e-17])
    def test_identical_halves(self, coupling):
        """Two identical 15-site halves, joined by an entry dsterf takes for zero, have pairs of equal
        eigenvalues across the join.  The window as one block passes diagonalize's residual and
        orthonormality checks, and its eigenvalues are spectrum's bits."""
        half = _box_hamiltonian([15], "neumann")
        d, e = np.tile(half.d, 2), np.concatenate((half.e, [-coupling], half.e))
        evals = _lapack.dsterf(d, e)
        assert np.max(np.abs(evals[1::2] - evals[::2])) <= 1e-14
        lambda0 = float(evals[15] + evals[16]) / 2
        got, z = anderson._band_window(d, e, lambda0)
        assert np.array_equal(got, evals) and z.shape == (30, 16) and z.flags.f_contiguous
        h, dense = self._band_stencil(d, e)
        spec = diagonalize(h, lambda0=lambda0)
        assert np.array_equal(spec.modes, z)
        assert np.array_equal(spec.eigenvalues, spectrum(h).eigenvalues)
        assert np.max(np.abs(dense @ z - z * evals[:16])) <= RECONSTRUCTION_RTOL * np.max(np.abs(dense))
        assert np.max(np.abs(z.T @ z - np.eye(16))) <= RECONSTRUCTION_RTOL

    @pytest.mark.parametrize("lengths", [[30], [6, 5]], ids=["band", "stencil"])
    @pytest.mark.parametrize("count", [0, 1, 29])
    def test_regime_sizes(self, lengths, count):
        h = _box_hamiltonian(lengths, "neumann")
        evals = np.linalg.eigvalsh(np.asarray(h))
        lambda0 = 0.5 * evals[0] if count == 0 else float(evals[count - 1] + evals[count]) / 2
        _assert_window(diagonalize(h, lambda0=lambda0), h, count)

    @pytest.mark.parametrize(
        "w", [pytest.param(np.ones(5), id="more-values-than-rows"), pytest.param(np.ones((1, 2)), id="not-a-vector")]
    )
    def test_rejects_malformed_input(self, w):
        with pytest.raises(ValueError):
            _lapack.dstein(np.full(4, 2.0), np.full(3, -1.0), w)

    def test_unconverged_vectors(self, monkeypatch):
        from types import SimpleNamespace

        h, lambda0 = _window_case()
        bound = _lapack.binding()

        def unconverged(*args):
            bound.dstein(*args)
            args[-1]._obj.value = 2  # INFO: two vectors failed

        monkeypatch.setattr(_lapack, "binding", lambda: SimpleNamespace(**{**vars(bound), "dstein": unconverged}))
        with pytest.raises(NumericError, match="2 of 10 eigenvectors failed to converge"):
            diagonalize(h, lambda0=lambda0)


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
        """At every finite lambda0, S every mode included, the window's eigenvalues are eigvalsh's bits
        and its columns eigh's up to sign."""
        box = BoxGeometry(lengths)
        h = assemble(box, sample_disorder(DisorderConfig(k_max=k_max, master_seed=seed), box, 0), bc)
        lambda0 = _regime_level(np.clip(np.linalg.eigvalsh(h), 0.0, None), level, fraction)
        spec = diagonalize(h, lambda0=lambda0)
        _assert_window(spec, h, spec.localized_count(lambda0))


def _eigh_tails(h, count):
    """tau(x) = sum_{j not in S} phi_j(x)^2 / gamma_j from numpy's eigh, for the |S| = count lowest modes."""
    evals, modes = np.linalg.eigh(np.asarray(h))
    return np.square(modes[:, count:]) @ (1.0 / np.sqrt(evals[count:]))


class TestTails:
    """tau(x) = sum_{j not in S} phi_j(x)^2 / gamma_j, the C_f input ``anderson.tails`` forms at the
    sites asked for, by the Chebyshev expansion on the window."""

    @pytest.mark.parametrize("fallback", [False, True], ids=["lapack", "numpy"])
    @pytest.mark.parametrize("lengths", BOXES)
    def test_matches_full_decomposition(self, monkeypatch, lengths, fallback):
        """On a chain and on a 2D box, bound or through numpy: the window's modes and the tails match eigh."""
        if fallback:
            monkeypatch.setattr(_lapack, "binding", lambda: None)
        h = _box_hamiltonian(lengths, "neumann")
        full = diagonalize(h)
        lambda0 = float(np.median(full.eigenvalues))
        count = full.localized_count(lambda0)
        spec = diagonalize(h, lambda0=lambda0)
        want = sum(full.modes[:, j] ** 2 / full.gammas[j] for j in range(count, full.n))
        assert 0 < count < spec.n and spec.modes.shape == (spec.n, count)
        signs = np.where(np.sum(spec.modes * full.modes[:, :count], axis=0) < 0, -1.0, 1.0)
        assert np.max(np.abs(spec.modes - full.modes[:, :count] * signs)) <= 1e-12
        assert np.allclose(anderson.tails(spec, np.arange(spec.n)), want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize(
        "lengths, lambda0",
        [([400], 0.5), ([6, 5], 2.0), ([40, 40], 2.0), ([5, 4, 3], 2.0)],
        ids=["chain400", "6x5", "40x40", "5x4x3"],
    )
    def test_expansion_matches_eigh(self, lengths, lambda0):
        h = _box_hamiltonian(lengths, "neumann")
        spec = diagonalize(h, lambda0=lambda0)
        count = spec.modes.shape[1]
        assert 0 < count < spec.n
        assert np.allclose(anderson.tails(spec, np.arange(spec.n)), _eigh_tails(h, count), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize(
        "sites",
        [
            pytest.param(37, id="one-site"),
            pytest.param([90, 3, 57, 3, 11], id="unsorted"),
            pytest.param(np.arange(20, 85)[::-1], id="across-a-block-edge"),
            pytest.param(np.arange(120), id="every-site"),
        ],
    )
    @pytest.mark.parametrize("lengths", [[120], [12, 10]], ids=["chain120", "box12x10"])
    def test_at_the_sites_asked_for(self, lengths, sites):
        """tau at a site, at unsorted and repeated sites, at 65 sites (one TAILS_BLOCK and one more) and at
        every site is eigh's, one entry per site in their order."""
        h = _box_hamiltonian(lengths, "neumann")
        spec = diagonalize(h, lambda0=2.0)
        assert 0 < spec.modes.shape[1] < spec.n
        got = anderson.tails(spec, sites)
        assert got.shape == (np.size(sites),)
        assert np.allclose(got, _eigh_tails(h, spec.modes.shape[1])[np.ravel(sites)], rtol=1e-13, atol=0.0)

    def test_rejects_sites_outside_the_box(self):
        spec = diagonalize(_box_hamiltonian([6, 5], "neumann"), lambda0=2.0)
        for sites in ([3, 30], [-1]):
            with pytest.raises(ValueError, match="outside"):
                anderson.tails(spec, sites)

    @pytest.mark.parametrize("lengths", BOXES)
    def test_empty_regime_expands_over_the_whole_spectrum(self, lengths):
        h = _box_hamiltonian(lengths, "neumann")
        spec = diagonalize(h, lambda0=0.5 * spectrum(h).eigenvalues[0])
        assert spec.modes.shape == (spec.n, 0)
        assert np.allclose(anderson.tails(spec, np.arange(spec.n)), _eigh_tails(h, 0), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("lengths", BOXES)
    def test_zero_when_every_mode_is_kept(self, lengths):
        """At lambda0 = inf and at a finite lambda0 above the spectrum: the window keeps every mode."""
        h = _box_hamiltonian(lengths, "neumann")
        for lambda0 in (np.inf, 2.0 * spectrum(h).norm):
            spec = diagonalize(h, lambda0=lambda0)
            assert spec.modes.shape == (spec.n, spec.n)
            assert np.array_equal(anderson.tails(spec, np.arange(spec.n)), np.zeros(spec.n))

    @pytest.mark.parametrize("lengths", BOXES)
    @pytest.mark.parametrize("fault", ["low-degree", "nan"])
    def test_truncation_check(self, monkeypatch, lengths, fault):
        """The a posteriori check rejects an expansion cut too early, and a NaN in it, and names the site."""
        h = _box_hamiltonian(lengths, "neumann")
        spec = diagonalize(h, lambda0=float(np.median(spectrum(h).eigenvalues)))
        if fault == "low-degree":
            monkeypatch.setattr(anderson, "_tails_degree", lambda a, b: 3)
        else:
            expansion = anderson._inverse_sqrt_chebyshev

            def with_nan(a, b, degree):
                coef = expansion(a, b, degree)
                coef[-1] = np.nan
                return coef

            monkeypatch.setattr(anderson, "_inverse_sqrt_chebyshev", with_nan)
        with pytest.raises(NumericError, match=r"^tails expansion: .* tau\(17\)"):
            anderson.tails(spec, [17, 4])

    def test_degree_bound(self):
        """The a priori degree meets its bound, the least that does, and grows like sqrt(b / a)."""
        for a, b in [(2.0, 8.6), (0.5, 8.6), (1e-2, 8.6), (8.0, 8.6 + 1e-9)]:
            m = anderson._tails_degree(a, b)
            r = np.sqrt(b / a)
            q = (r - 1.0) / (r + 1.0)
            assert np.sqrt(r) * (r + 1.0) * q ** (m + 1) <= anderson.TAILS_RTOL
            assert m == 0 or np.sqrt(r) * (r + 1.0) * q**m > anderson.TAILS_RTOL
        assert anderson._tails_degree(0.5, 8.6) > 2 * anderson._tails_degree(2.0, 8.6)

    def test_coefficients(self):
        """The closed-form coefficients are those of the cosine transform of lambda^{-1/2} at Chebyshev nodes."""
        a, b, degree = 0.5, 8.6, 60
        nodes = np.pi * (np.arange(400) + 0.5) / 400
        values = ((b - a) / 2 * np.cos(nodes) + (a + b) / 2) ** -0.5
        want = 2 / nodes.size * np.cos(np.outer(np.arange(degree + 1), nodes)) @ values
        want[0] /= 2
        assert np.max(np.abs(anderson._inverse_sqrt_chebyshev(a, b, degree) - want)) <= 1e-14


class TestLocalizedModes:
    def test_full_and_empty(self, chain12):
        _, spec = chain12
        assert spec.localized_count(spec.norm) == spec.n
        assert spec.localized_count(spec.eigenvalues[0] * 0.5) == 0

    def test_three_site_constant(self):
        box = BoxGeometry([3])
        spec = diagonalize(assemble(box, np.full(3, 0.5)))
        assert spec.localized_count(1.0) == 1  # spectrum {0.5, 1.5, 3.5}

    def test_prefix_property(self, chain12):
        _, spec = chain12
        lam = float(np.median(spec.eigenvalues))
        count = spec.localized_count(lam)
        assert np.all(spec.eigenvalues[:count] <= lam) and np.all(spec.eigenvalues[count:] > lam)


def _chain12_at(lambda0):
    """The chain12 fixture's h solved for the regime lambda0."""
    return make_chain_spec(12, lambda0=lambda0)[1]


class TestEigencorrelator:
    def test_hand_two_by_two(self):
        spec = diagonalize(chain_stencil([2.0, 2.0]), lambda0=4.0)
        # eigenvectors (1, +-1)/sqrt(2): Q0(0,1) = 1/2 + 1/2
        assert abs(eigencorrelator_profile(spec, 0, 0, [1])[0] - 1.0) < 1e-12

    def test_parseval_lower_bound(self, chain12):
        _, spec = chain12
        (q,) = eigencorrelator_profile(spec, 0, 3, [3])
        assert q >= 1.0 - 1e-12

    def test_empty_regime(self):
        for s in (-1, 0, 1):
            assert np.array_equal(eigencorrelator_profile(_chain12_at(1e-6), s, 0, np.arange(12)), np.zeros(12))

    def test_symmetry_and_monotone(self, chain12):
        _, spec = chain12
        lo = _chain12_at(float(np.percentile(spec.eigenvalues, 30)))
        hi = _chain12_at(float(np.percentile(spec.eigenvalues, 80)))
        for s in (-1, 0, 1):
            (a,) = eigencorrelator_profile(lo, s, 2, [9])
            (b,) = eigencorrelator_profile(lo, s, 9, [2])
            assert abs(a - b) < 1e-14
            assert eigencorrelator_profile(hi, s, 2, [9])[0] >= a - 1e-14

    def test_dominates_dynamic_kernels(self, chain12):
        # |<dx, h^{s/2} u(h) X dy>| <= Q_s for u = cos(2t sqrt(h)), sin(2t sqrt(h))
        _, spec = chain12
        regime = _chain12_at(float(np.percentile(spec.eigenvalues, 70)))
        gam = regime.localized_gammas
        x, y = 1, 7
        prod = regime.modes[x] * regime.modes[y]
        for t in np.linspace(0.0, 9.0, 25):
            for s, w in ((-1, 1 / gam), (0, np.ones(gam.size)), (1, gam)):
                (q,) = eigencorrelator_profile(regime, s, x, [y])
                assert abs(np.sum(np.cos(2 * t * gam) * w * prod)) <= q + 1e-12
                assert abs(np.sum(np.sin(2 * t * gam) * w * prod)) <= q + 1e-12

    def test_profile_matches_scalar(self, chain12):
        """Each entry of the profile is the scalar mode sum over S of the full decomposition."""
        _, spec = chain12
        lam = float(np.median(spec.eigenvalues))
        count = spec.localized_count(lam)
        row = eigencorrelator_profile(_chain12_at(lam), -1, 5, np.arange(spec.n))
        for y in range(spec.n):
            want = sum(abs(spec.modes[5, j] * spec.modes[y, j]) / spec.gammas[j] for j in range(count))
            assert abs(row[y] - want) < 1e-14


def _sum_tables(spec, x, sites, grid, powers):
    """The sums of ``propagator_sums`` at ``sites`` on the whole grid: its blocks stacked, one (times, sites)
    table per power."""
    blocks = [sums for sums, _ in propagator_sums(spec, x, spec.modes[sites].T, grid, powers)]
    return tuple(np.concatenate(tables) for tables in zip(*blocks))


class TestPropagatorSums:
    @pytest.mark.parametrize("block, bounds", [(1, [(0, 1), (1, 2), (2, 3)]), (2, [(0, 2), (2, 3)]), (64, [(0, 3)])])
    def test_blocks_tile_the_grid(self, chain12, monkeypatch, block, bounds):
        """Each block covers the next TIME_BLOCK times, and its sums are those of the times it covers alone."""
        _, spec = chain12
        monkeypatch.setattr(anderson, "TIME_BLOCK", block)
        times, sites = np.linspace(0.0, 7.9, 3), [2, 0, 11]
        blocks = [sums for sums, _ in propagator_sums(spec, 5, spec.modes[sites].T, (0.0, 7.9, 3), (0, 1))]
        stops = np.cumsum([len(sums[0]) for sums in blocks])
        assert list(zip([0, *stops[:-1]], stops)) == bounds
        for (start, stop), sums in zip(bounds, blocks):
            for t, (cos, sin) in zip(times[start:stop], zip(*sums)):
                alone = [table[0] for table in _sum_tables(spec, 5, sites, (t, t, 1), (0, 1))]
                assert np.allclose(cos, alone[0], rtol=0, atol=1e-15)
                assert np.allclose(sin, alone[1], rtol=0, atol=1e-15)

    def test_matches_mode_sums(self, chain12):
        """At each time, a one-point grid whose one row is evaluated directly, the sums are the mode sums."""
        _, spec = chain12
        lam = float(np.percentile(spec.eigenvalues, 70))
        count = spec.localized_count(lam)
        gam = spec.gammas[:count]
        x, sites = 4, np.array([0, 4, 9])
        for t in (0.0, 0.4, 3.7, 250.0):
            sums = _sum_tables(_chain12_at(lam), x, sites, (t, t, 1), (1, -1, 0))
            for s, got in zip((1, -1, 0), sums):
                assert got.shape == (1, sites.size)
                u = np.cos if s == 0 else np.sin
                for k, y in enumerate(sites):
                    want = np.sum(u(2 * t * gam) * gam**s * spec.modes[x, :count] * spec.modes[y, :count])
                    assert abs(got[0, k] - want) < 1e-13

    def test_right_factor_needs_a_row_per_mode(self, chain12):
        """R has a row per mode of S, whatever its columns; any other row count is a ValueError."""
        _, spec = chain12
        regime = _chain12_at(float(np.percentile(spec.eigenvalues, 70)))
        count, grid = regime.localized_gammas.size, (0.0, 9.0, 70)
        assert count < 12
        for columns in (1, 3, 12):
            sums = _sum_tables(regime, 5, np.arange(columns), grid, (-1, 0))
            assert [table.shape for table in sums] == [(70, columns)] * 2
        for rows in (0, count - 1, count + 1, 12):
            with pytest.raises(ValueError, match=f"R has {rows} rows for {count} modes"):
                propagator_sums(regime, 5, np.ones((rows, 3)), grid, (0,))

    def test_sites_outside_box_rejected(self, chain12):
        """x outside the box is a ValueError of ``propagator_sums``; the sites are R's to hold, and
        ``eigencorrelator_profile`` checks them as well as x."""
        _, spec = chain12
        for x in (-1, 12):
            with pytest.raises(ValueError):
                propagator_sums(spec, x, spec.modes.T, (0.0, 0.0, 1), (0,))
        for x, sites in ((-1, [0]), (12, [0]), (0, [12]), (0, [-1])):
            with pytest.raises(ValueError):
                eigencorrelator_profile(spec, 0, x, sites)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        lengths=st.one_of(st.tuples(st.integers(1, 12)), st.tuples(st.integers(2, 4), st.integers(2, 3))),
        seed=st.integers(0, 2**16),
        k_max=st.floats(0.05, 8.0),
        level=st.one_of(st.none(), st.floats(0.0, 1.1)),
        start=st.floats(0.0, 1e6),
        span=st.floats(0.0, 1e6),
        points=st.integers(1, 8),
        data=st.data(),
    )
    def test_dominated_by_eigencorrelator(self, lengths, seed, k_max, level, start, span, points, data):
        """|sum| <= Q_s(x, y) for every s, on any grid, single arbitrary times included: the domination the
        pq-bound flag tests."""
        box = BoxGeometry(list(lengths))
        h = assemble(box, sample_disorder(DisorderConfig(k_max=k_max, master_seed=seed), box, 0))
        spec = diagonalize(h, lambda0=np.inf if level is None else level * spectrum(h).norm)
        x = data.draw(st.integers(0, box.n_sites - 1))
        sums = _sum_tables(spec, x, np.arange(box.n_sites), (start, start + span, points), (-1, 0, 1))
        for s, got in zip((-1, 0, 1), sums):
            envelope = eigencorrelator_profile(spec, s, x, np.arange(box.n_sites))
            assert np.all(np.abs(got) <= envelope[None, :] + DOMINATION_SLACK)


def _blocks(spec, grid):
    """Every block's sums of all three powers at all sites of ``spec`` and its phase tables, copied."""
    blocks = propagator_sums(spec, 4, spec.modes.T, grid, (-1, 0, 1))
    # the next block overwrites the phase tables, so each is copied as it comes
    return [[table.copy() for table in (*sums, *tables)] for sums, tables in blocks]


def _direct_blocks(spec, grid):
    """What ``_blocks`` returns, from np.cos/np.sin of 2 t gamma on every row of np.linspace(*grid), the
    tables scaled by gamma^s phi_4 and stacked into one product with Phi_S^T as ``propagator_sums`` does."""
    gam, right, times = spec.localized_gammas, spec.modes.T, np.linspace(*grid)
    blocks = []
    for start in range(0, times.size, anderson.TIME_BLOCK):
        angles = 2.0 * times[start : start + anderson.TIME_BLOCK, None] * gam
        cos, sin = np.cos(angles), np.sin(angles)
        scaled = np.concatenate([(cos if s == 0 else sin) * (spec.modes[4] * gam**s) for s in (-1, 0, 1)])
        blocks.append([*np.split(scaled @ right, 3), cos, sin])
    return blocks


class TestPhaseRotation:
    """``propagator_sums`` forms each block's phases by angle addition from its first row."""

    @pytest.mark.parametrize("points", [1, 2, 63, 64, 65, 400, 2000])
    @pytest.mark.parametrize("start, t_max", [(0.0, 1.0), (0.0, 20.0), (0.0, 1e4), (5.0, 30.0)])
    def test_matches_direct_phases(self, chain12, points, start, t_max):
        """Every table and every sum agrees with np.cos/np.sin of 2 t gamma to 1e-13 absolute, or to
        2 eps max|2 t gamma| where that is larger: np.cos/np.sin round each angle 2 t gamma to about
        eps |2 t gamma| themselves, 4e-12 at t = 1e4, and the rotation rounds it differently."""
        _, spec = chain12
        grid = (start, t_max, points)
        tol = max(1e-13, 2 * np.finfo(float).eps * 2 * t_max * spec.gammas.max())
        rotated, direct = _blocks(spec, grid), _direct_blocks(spec, grid)
        assert len(rotated) == len(direct) == -(-points // anderson.TIME_BLOCK)
        for got, want in zip(rotated, direct):
            for table, ref in zip(got, want):
                assert table.shape == ref.shape
                assert np.max(np.abs(table - ref)) <= tol

    def test_first_block_of_a_grid_from_zero_is_direct(self, chain12):
        """From t = 0 the offset table is the first block's own phases, so that block is bitwise the direct one."""
        _, spec = chain12
        grid = (0.0, 50.0, 150)
        for table, ref in zip(_blocks(spec, grid)[0], _direct_blocks(spec, grid)[0]):
            assert np.array_equal(table, ref)

    @pytest.mark.parametrize("points", [1, 2, 64, 65, 129, 400, 2000])
    @pytest.mark.parametrize("start, stop", [(0.0, 20.0), (5.0, 30.0), (1.0, 1.0), (0.0, 1e-310), (0.0, 5e-324)])
    def test_grid_times_are_linspace_bit_for_bit(self, points, start, stop):
        """The times a block starts at are np.linspace's, its last point and zero-step branch included: a
        span of subnormal 5e-324 has a step of 0 from 3 points on, where np.linspace divides first."""
        grid = (start, stop, points)
        times = np.array([anderson._grid_time(grid, i) for i in range(points)])
        assert times.tobytes() == np.linspace(*grid).tobytes()

    def test_grid_is_not_formed(self, chain12):
        """The first block of a grid of 10^11 points, whose times alone would take 800 GB, holds little."""
        _, spec = chain12
        grid = (0.0, 20.0, 10**11)
        tracemalloc.start()
        try:
            _, (cos, sin) = next(propagator_sums(spec, 4, spec.modes.T, grid, (-1, 0)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        times = np.array([anderson._grid_time(grid, i) for i in range(anderson.TIME_BLOCK)])
        assert np.allclose(cos, np.cos(2.0 * times[:, None] * spec.gammas), rtol=0, atol=1e-13)
        assert np.allclose(sin, np.sin(2.0 * times[:, None] * spec.gammas), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("points", [0, -3])
    def test_grid_needs_a_point(self, chain12, points):
        """A grid of no times is a ValueError, raised by the call before any block is asked for."""
        _, spec = chain12
        with pytest.raises(ValueError, match=f"at least one point, got {points}"):
            propagator_sums(spec, 4, spec.modes.T, (0.0, 3.0, points), (-1, 0))


class TestMinGap:
    def test_simple(self):
        # eigenvalues 1 and 3
        assert diagonalize(chain_stencil([2.0, 2.0])).min_gap() == pytest.approx(2.0, abs=1e-14)

    def test_degenerate(self):
        # the 2 x 2 box is a 4-cycle: eigenvalues 0, 2, 2, 4
        spec = diagonalize(Stencil(BoxGeometry([2, 2]), np.full(4, 2.0)))
        assert spec.min_gap() <= 1e-14
        assert spec.flag_degenerate()

    def test_single_mode(self):
        assert diagonalize(chain_stencil([2.0])).min_gap() == np.inf
