import numpy as np
import pytest

from osclab.anderson import DisorderConfig, assemble, diagonalize, sample_disorder
from osclab.freeboson import (
    counting_function,
    default_time_grid,
    delta_field,
    evolve,
    excitation_energy_density,
    many_body_energy,
    project_localized,
    v_inverse,
    v_map,
)
from osclab.anderson import eigencorrelator, localized_modes, propagator_sums
from osclab.lattice import BoxGeometry, box_boundary

from conftest import make_chain_spec, random_field


def single_site_spec(k=4.0):
    return diagonalize(np.array([[k]]))


class TestVMap:
    def test_zero(self, chain12):
        _, spec = chain12
        assert np.all(v_map(spec, np.zeros(12, complex)) == 0.0)

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

    def test_preserves_symplectic_form(self, chain12):
        # Im<Vf, Vg> = Im<f, g>: the Weyl-relation phase is the same in sites and modes
        _, spec = chain12
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = random_field(rng, 12)
            g = random_field(rng, 12)
            assert abs(np.imag(np.vdot(v_map(spec, f), v_map(spec, g))) - np.imag(np.vdot(f, g))) < 1e-12

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


def dynamics_blocks(spec, lam, t):
    """The four real blocks mapping (Re g, Im g) to (Re[X g_t], Im[X g_t]).

    (cos(2t sqrt(h)) X, -sin(2t sqrt(h)) sqrt(h) X, sin(2t sqrt(h)) h^{-1/2} X,
    cos(2t sqrt(h)) X), one row x at a time from the propagator sums.
    """
    sites = np.arange(spec.n)
    rows = [propagator_sums(spec, lam, x, sites, [t], (-1, 0, 1)) for x in sites]
    minus, zero, plus = (np.array([row[k][0] for row in rows]) for k in range(3))
    return zero, -plus, minus, zero


class TestBlockMatrix:
    """The propagator sums over all site pairs are the blocks of the free dynamics."""

    def test_time_zero(self, chain12):
        _, spec = chain12
        lam = float(np.median(spec.eigenvalues))
        ul, ur, ll, lr = dynamics_blocks(spec, lam, 0.0)
        S = localized_modes(spec, lam)
        X = spec.modes[:, S] @ spec.modes[:, S].T
        assert np.max(np.abs(ul - X)) < 1e-13
        assert np.max(np.abs(lr - X)) < 1e-13
        assert np.max(np.abs(ur)) == 0.0 and np.max(np.abs(ll)) == 0.0

    def test_consistency_with_evolution(self, chain12):
        _, spec = chain12
        lam = float(np.percentile(spec.eigenvalues, 70))
        rng = np.random.default_rng(6)
        for t in (0.3, 1.7):
            g = random_field(rng, 12)
            ul, ur, ll, lr = dynamics_blocks(spec, lam, t)
            re = ul @ g.real + ur @ g.imag
            im = ll @ g.real + lr @ g.imag
            direct = project_localized(spec, lam, evolve(spec, g, t))
            assert np.max(np.abs(re - direct.real)) < 1e-10
            assert np.max(np.abs(im - direct.imag)) < 1e-10

    def test_cos_block_within_envelope(self, chain12):
        _, spec = chain12
        lam = float(np.percentile(spec.eigenvalues, 70))
        for t in (0.0, 0.9, 4.1):
            ul = dynamics_blocks(spec, lam, t)[0]
            for x in (0, 5):
                for y in (3, 11):
                    assert abs(ul[x, y]) <= eigencorrelator(spec, lam, 0, x, y) + 1e-12


class TestEnergies:
    def test_ground_energy(self, chain12):
        _, spec = chain12
        assert abs(many_body_energy(spec, np.zeros(12, int)) - spec.gammas.sum()) < 1e-12

    def test_single_site(self):
        spec = single_site_spec(4.0)
        assert abs(many_body_energy(spec, np.array([3])) - 14.0) < 1e-14

    def test_excitation_identity(self, chain12):
        _, spec = chain12
        rng = np.random.default_rng(9)
        e0 = many_body_energy(spec, np.zeros(12, int))
        for _ in range(10):
            alpha = rng.integers(0, 4, size=12)
            gap = many_body_energy(spec, alpha) - e0
            assert abs(gap - 2 * np.sum(spec.gammas * alpha)) < 1e-12

    def test_density_cases(self, chain12):
        _, spec = chain12
        assert excitation_energy_density(spec, spec.norm, 0) == 0.0
        assert excitation_energy_density(spec, 1e-9, 3) == 0.0
        spec1 = single_site_spec(4.0)
        assert abs(excitation_energy_density(spec1, 4.0, 1) - 4.0) < 1e-14


class TestCountingFunction:
    def test_extremes(self, chain12):
        _, spec = chain12
        grid = np.array([0.0, spec.norm + 1.0])
        counts = counting_function(spec, grid)
        assert counts[0] == 0 and counts[-1] == spec.n

    def test_three_site_jumps(self):
        box = BoxGeometry.of_lengths([3])
        sample = sample_disorder(DisorderConfig(k_max=1.0, master_seed=0), box, 0)
        sample = type(sample)(k=np.full(3, 0.5), sample_index=0)
        spec = diagonalize(assemble(box, sample))
        grid = np.array([0.4, 0.6, 1.4, 1.6, 3.4, 3.6])
        assert counting_function(spec, grid).tolist() == [0, 1, 1, 2, 2, 3]
        # strictly-below convention: no jump exactly at an eigenvalue
        assert counting_function(spec, np.array([0.5, 1.5, 3.5])).tolist() == [0, 1, 2]

    def test_neumann_dirichlet_bracketing(self):
        box = BoxGeometry.of_lengths([40])
        cfg = DisorderConfig(k_max=1.0, master_seed=21)
        grid = np.linspace(0.0, 5.0, 50)
        for i in range(5):
            sample = sample_disorder(cfg, box, i)
            n_count = counting_function(diagonalize(assemble(box, sample, "neumann")), grid)
            d_count = counting_function(diagonalize(assemble(box, sample, "dirichlet")), grid)
            diff = n_count - d_count
            assert np.all(diff >= 0)
            assert np.all(diff <= box_boundary(box).size)

    def test_grid_validation(self, chain12):
        _, spec = chain12
        with pytest.raises(ValueError):
            counting_function(spec, np.array([1.0, 0.5]))


def test_default_time_grid(chain12):
    _, spec = chain12
    grid = default_time_grid(spec, points=100)
    assert grid.size == 100 and grid[0] == 0.0 and grid[-1] > 0
    assert default_time_grid(spec, points=10, t_max=2.0)[-1] == 2.0
