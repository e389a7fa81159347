import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osclab.anderson import RECONSTRUCTION_RTOL, DisorderConfig, assemble, diagonalize, sample_disorder, spectrum
from osclab.freeboson import default_time_grid, excitation_energy_density, many_body_energy
from osclab.anderson import eigencorrelator_profile, propagator_sums
from osclab.errors import NumericError
from osclab.fock_oracle import evolve, project_localized, v_inverse, v_map
from osclab.lattice import BoxGeometry, box_boundary

from conftest import chain_stencil, make_chain_spec, random_field


def single_site_spec(k=4.0):
    return diagonalize(chain_stencil([k]))


class TestVMap:
    def test_zero(self, chain12):
        _, spec = chain12
        assert np.all(v_map(spec, np.zeros(12, complex)) == 0.0)

    def test_needs_every_mode(self):
        box = BoxGeometry([6, 5])
        h = assemble(box, sample_disorder(DisorderConfig(k_max=1.0, master_seed=5), box, 0))
        spec = diagonalize(h, lambda0=2.0)
        assert spec.modes.shape[1] < spec.n
        for transform in (v_map, v_inverse):
            with pytest.raises(ValueError, match="V needs all 30 modes"):
                transform(spec, np.ones(30, complex))

    def test_single_site(self):
        spec = single_site_spec(4.0)  # gamma = 2
        g = v_map(spec, np.array([1.0 + 0.0j]))
        assert abs(g[0] - 2**-0.5) < 1e-15

    def test_roundtrip(self, chain12):
        _, spec = chain12
        rng = np.random.default_rng(0)
        for _ in range(20):
            f = random_field(rng, 12)
            assert np.max(np.abs(v_inverse(spec, v_map(spec, f)) - f)) < 1e-12
            g = random_field(rng, 12)
            assert np.max(np.abs(v_map(spec, v_inverse(spec, g)) - g)) < 1e-12

    def test_real_linear_not_complex_linear(self, chain12):
        _, spec = chain12
        f = random_field(np.random.default_rng(1), 12)
        assert np.max(np.abs(v_map(spec, 1j * f) - 1j * v_map(spec, f))) > 1e-6
        a, b = 0.3, -1.7  # real linearity
        lhs = v_map(spec, a * f + b * f.conj())
        rhs = a * v_map(spec, f) + b * v_map(spec, f.conj())
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        lengths=st.one_of(st.tuples(st.integers(1, 12)), st.tuples(st.integers(1, 4), st.integers(1, 3))),
        seed=st.integers(0, 2**16),
        k_max=st.floats(0.05, 8.0),
        field_seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.01, 10.0),
    )
    def test_preserves_symplectic_form(self, lengths, seed, k_max, field_seed, scale):
        """Im<Vf, Vg> = Im<f, g> on random boxes: the Weyl-relation phase is the same in sites and modes."""
        box = BoxGeometry(list(lengths))
        spec = diagonalize(assemble(box, sample_disorder(DisorderConfig(k_max=k_max, master_seed=seed), box, 0)))
        rng = np.random.default_rng(field_seed)
        f, g = random_field(rng, box.n_sites, scale), random_field(rng, box.n_sites, scale)
        got = np.imag(np.vdot(v_map(spec, f), v_map(spec, g)))
        assert abs(got - np.imag(np.vdot(f, g))) <= 1e-14 * np.linalg.norm(f) * np.linalg.norm(g)

    def test_real_field_real_modes(self, chain12):
        _, spec = chain12
        g = v_map(spec, np.ones(12, dtype=complex))
        assert np.max(np.abs(g.imag)) == 0.0

    def test_mode_extraction(self, chain12):
        _, spec = chain12
        g = np.zeros(12, dtype=complex)
        g[4] = 1.0
        f = v_inverse(spec, g)
        expected = np.sqrt(spec.gammas[4]) * spec.modes[:, 4]
        assert np.max(np.abs(f - expected)) < 1e-14


class TestEvolve:
    def test_time_zero(self, chain12):
        _, spec = chain12
        f = random_field(np.random.default_rng(2), 12)
        assert np.max(np.abs(evolve(spec, f, 0.0) - f)) < 1e-14

    def test_single_site_closed_form(self):
        spec = single_site_spec(4.0)  # gamma = 2
        f = np.array([1.0 + 0.0j])
        for t in (0.1, 0.9, 2.3):
            ft = evolve(spec, f, t)
            expected = np.cos(4 * t) + 0.5j * np.sin(4 * t)
            assert abs(ft[0] - expected) < 1e-14

    def test_group_law_and_isometry(self, chain12):
        _, spec = chain12
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = random_field(rng, 12)
            t, s = rng.uniform(-4, 4, size=2)
            a = evolve(spec, evolve(spec, f, t), s)
            b = evolve(spec, f, t + s)
            assert np.max(np.abs(a - b)) < 1e-10
            n0 = np.linalg.norm(v_map(spec, f))
            nt = np.linalg.norm(v_map(spec, evolve(spec, f, t)))
            assert abs(n0 - nt) < 1e-12


class TestProjection:
    def test_full_and_empty(self, chain12):
        _, spec = chain12
        f = random_field(np.random.default_rng(4), 12)
        assert np.max(np.abs(project_localized(spec, spec.norm, f) - f)) < 1e-12
        assert np.all(project_localized(spec, 1e-9, f) == 0.0)

    def test_idempotent_and_commutes_with_evolve(self, chain12):
        _, spec = chain12
        lam = float(np.median(spec.eigenvalues))
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = random_field(rng, 12)
            xf = project_localized(spec, lam, f)
            assert np.max(np.abs(project_localized(spec, lam, xf) - xf)) < 1e-12
            t = rng.uniform(-3, 3)
            a = project_localized(spec, lam, evolve(spec, f, t))
            b = evolve(spec, project_localized(spec, lam, f), t)
            assert np.max(np.abs(a - b)) < 1e-10


def dynamics_blocks(lam, t):
    """The four real blocks of the chain12 fixture's h mapping (Re g, Im g) to (Re[X g_t], Im[X g_t]).

    (cos(2t sqrt(h)) X, -sin(2t sqrt(h)) sqrt(h) X, sin(2t sqrt(h)) h^{-1/2} X,
    cos(2t sqrt(h)) X), one row x at a time from the propagator sums of the regime lam.
    """
    _, regime = make_chain_spec(12, lambda0=lam)
    sites = np.arange(regime.n)
    # one time is one block of the sums
    rows = [next(propagator_sums(regime, x, regime.modes.T, (t, t, 1), (-1, 0, 1)))[0] for x in sites]
    minus, zero, plus = (np.array([row[k][0] for row in rows]) for k in range(3))
    return zero, -plus, minus, zero


class TestBlockMatrix:
    """The propagator sums over all site pairs are the blocks of the free dynamics."""

    def test_time_zero(self, chain12):
        _, spec = chain12
        lam = float(np.median(spec.eigenvalues))
        ul, ur, ll, lr = dynamics_blocks(lam, 0.0)
        phi = spec.modes[:, : spec.localized_count(lam)]
        X = phi @ phi.T
        assert np.max(np.abs(ul - X)) < 1e-13
        assert np.max(np.abs(lr - X)) < 1e-13
        assert np.max(np.abs(ur)) == 0.0 and np.max(np.abs(ll)) == 0.0

    def test_consistency_with_evolution(self, chain12):
        _, spec = chain12
        lam = float(np.percentile(spec.eigenvalues, 70))
        rng = np.random.default_rng(6)
        for t in (0.3, 1.7):
            g = random_field(rng, 12)
            ul, ur, ll, lr = dynamics_blocks(lam, t)
            re = ul @ g.real + ur @ g.imag
            im = ll @ g.real + lr @ g.imag
            direct = project_localized(spec, lam, evolve(spec, g, t))
            assert np.max(np.abs(re - direct.real)) < 1e-10
            assert np.max(np.abs(im - direct.imag)) < 1e-10

    def test_cos_block_within_envelope(self, chain12):
        _, spec = chain12
        lam = float(np.percentile(spec.eigenvalues, 70))
        _, regime = make_chain_spec(12, lambda0=lam)
        for t in (0.0, 0.9, 4.1):
            ul = dynamics_blocks(lam, t)[0]
            for x in (0, 5):
                for y in (3, 11):
                    assert abs(ul[x, y]) <= eigencorrelator_profile(regime, 0, x, [y])[0] + 1e-12


class TestEnergies:
    def test_ground_energy(self, chain12):
        _, spec = chain12
        assert abs(many_body_energy(spec, np.zeros((1, 12), int))[0] - spec.gammas.sum()) < 1e-12

    def test_single_site(self):
        spec = single_site_spec(4.0)
        assert abs(many_body_energy(spec, np.array([[3]]))[0] - 14.0) < 1e-14

    def test_excitation_identity(self, chain12):
        _, spec = chain12
        rng = np.random.default_rng(9)
        e0 = many_body_energy(spec, np.zeros((1, 12), int))[0]
        alphas = rng.integers(0, 4, size=(10, 12))
        gaps = many_body_energy(spec, alphas) - e0
        for alpha, gap in zip(alphas, gaps):
            assert abs(gap - 2 * np.sum(spec.gammas * alpha)) < 1e-12

    def test_rejects_bad_family(self, chain12):
        _, spec = chain12
        for alphas in (np.zeros(12, int), np.zeros((2, 11), int), -np.ones((1, 12), int)):
            with pytest.raises(ValueError):
                many_body_energy(spec, alphas)

    @pytest.mark.parametrize("occupations, length", [(10, 5), (3, 6), (2, 12)])
    def test_bits_of_the_int_form(self, occupations, length):
        """Every energy is bitwise (2 alpha + 1) @ gamma on int vectors, for gap-stats' enumeration (a
        transposed, F-ordered array) and for its C-ordered copy."""
        spec = diagonalize(chain_stencil(np.linspace(2.0, 3.0, length)))
        alphas = np.indices((occupations,) * length).reshape(length, -1).T
        for family in (alphas, np.ascontiguousarray(alphas)):
            assert np.array_equal(many_body_energy(spec, family), (2 * family + 1) @ spec.gammas)
        assert many_body_energy(spec, alphas[:0]).shape == (0,)

    def test_one_float_temporary(self):
        """On 2^16 vectors of 16 modes (8 MiB) the traced peak is one float copy of them and the energies."""
        import tracemalloc

        spec = diagonalize(chain_stencil(np.linspace(2.0, 3.0, 16)))
        alphas = np.indices((2,) * 16).reshape(16, -1).T
        many_body_energy(spec, alphas)
        tracemalloc.start()
        try:
            many_body_energy(spec, alphas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * alphas.nbytes, peak

    def test_density_cases(self, chain12):
        _, spec = chain12
        assert excitation_energy_density(spec, spec.norm, 0) == 0.0
        assert excitation_energy_density(spec, 1e-9, 3) == 0.0
        spec1 = single_site_spec(4.0)
        assert abs(excitation_energy_density(spec1, 4.0, 1) - 4.0) < 1e-14


@pytest.mark.parametrize("lengths", [[40], [6, 5], [4, 3, 3]], ids=["chain-40", "box-6x5", "box-4x3x3"])
def test_neumann_dirichlet_bracketing(lengths):
    """h_D - h_N is diagonal, nonnegative and of rank r, the boundary-site count, so the ascending
    spectra interlace: lambda_j(h_N) <= lambda_j(h_D) <= lambda_{j+r}(h_N), up to their accuracy."""
    box = BoxGeometry(lengths)
    n, r = box.n_sites, box_boundary(box).size
    cfg = DisorderConfig(k_max=1.0, master_seed=21)
    for i in range(5):
        k = sample_disorder(cfg, box, i)
        h_n, h_d = assemble(box, k, "neumann"), assemble(box, k, "dirichlet")
        assert np.all(h_d.d >= h_n.d) and np.count_nonzero(h_d.d - h_n.d) == r
        neumann, dirichlet = spectrum(h_n).eigenvalues, spectrum(h_d).eigenvalues
        tol = RECONSTRUCTION_RTOL * dirichlet[-1]
        assert np.all(neumann <= dirichlet + tol)
        assert np.all(dirichlet[: n - r] <= neumann[r:] + tol)


def test_default_time_grid(chain12):
    _, spec = chain12
    start, stop, points = default_time_grid(spec, points=100)
    assert (start, points) == (0.0, 100) and stop == 4 * np.pi / np.min(np.diff(spec.gammas))
    assert default_time_grid(spec, points=10, t_max=2.0) == (0.0, 2.0, 10)


def test_default_time_grid_rejects_zero_spacing():
    # constant k on a square box: the Laplacian's symmetry repeats eigenvalues exactly
    box = BoxGeometry([6, 6])
    cfg = DisorderConfig(k_max=1.0, master_seed=1, table_u=(0.0, 1.0), table_k=(0.5, 0.5))
    spec = diagonalize(assemble(box, sample_disorder(cfg, box, 0)))
    assert np.min(np.diff(spec.gammas)) == 0.0
    with pytest.raises(NumericError, match="spacing 0"):
        default_time_grid(spec, points=5)
    assert default_time_grid(spec, points=5, t_max=2.0) == (0.0, 2.0, 5)
