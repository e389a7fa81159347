import numpy as np
import pytest

from osclab.anderson import localized_modes
from osclab.errors import BudgetError
from osclab.fock_oracle import (
    OracleBundle,
    TruncationSpec,
    build_restricted_operators,
    ladder_matrices,
    oracle_commutator_norm,
    oracle_expectation,
    weyl_matrix_1d_oracle,
)
from osclab.freeboson import delta_field, evolve, project_localized, v_map
from osclab.weyl import (
    dynamic_correlation,
    lr_weyl_commutator_norm,
    matrix_element,
    matrix_element_1d,
    pq_commutator_matrix,
    quasi_locality_error,
    restriction_constant,
    symplectic_phase_on_grid,
)

from conftest import make_chain_spec, random_field


def make_bundle(spec, lambda0, dim=14, cutoff=None):
    trunc = TruncationSpec(per_mode_dim=dim, mode_count=spec.n, occupation_cutoff=cutoff)
    return build_restricted_operators(spec, lambda0, trunc)


class TestLadder:
    def test_two_level(self):
        a, adag = ladder_matrices(2)
        assert np.array_equal(a, [[0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(adag, a.T)

    def test_number_operator(self):
        a, adag = ladder_matrices(9)
        num = adag @ a
        for k in range(9):
            assert abs(num[k, k] - k) < 1e-13

    def test_commutator_defect_confined_to_top(self):
        a, adag = ladder_matrices(7)
        defect = a @ adag - adag @ a - np.eye(7)
        assert abs(defect[6, 6] + 7.0) < 1e-13
        defect[6, 6] = 0.0
        assert np.max(np.abs(defect)) < 1e-13


@pytest.mark.filterwarnings("ignore:truncation leakage")
@pytest.mark.filterwarnings("ignore:displacement")
class TestWeyl1dOracle:
    def test_identity(self):
        assert np.allclose(weyl_matrix_1d_oracle(0.0, 10), np.eye(10))

    def test_vacuum_element(self):
        w = weyl_matrix_1d_oracle(2.0, 40)
        assert abs(w[0, 0] - np.exp(-1.0)) < 1e-10

    def test_unitary(self):
        w = weyl_matrix_1d_oracle(1.1 - 0.4j, 20)
        assert np.max(np.abs(w.conj().T @ w - np.eye(20))) < 1e-12

    def test_matches_closed_form(self):
        rng = np.random.default_rng(0)
        w_cache = {}
        for _ in range(120):
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            n, k = rng.integers(0, 11, size=2)
            if z not in w_cache:
                w_cache[z] = weyl_matrix_1d_oracle(z, 40)
            assert abs(w_cache[z][n, k] - matrix_element_1d(int(n), int(k), z)) < 1e-8

    def test_dimension_doubling_converges(self):
        # entries actually consumed downstream: occupations <= 4 at D = 14,
        # occupations <= 10 at D = 40
        for z in (0.4 + 0.2j, 1.2 - 0.9j, 1.5):
            w14 = weyl_matrix_1d_oracle(z, 14)[:5, :5]
            w28 = weyl_matrix_1d_oracle(z, 28)[:5, :5]
            assert np.max(np.abs(w14 - w28)) < 1e-8
        w40 = weyl_matrix_1d_oracle(1.5 + 1.5j, 40)[:11, :11]
        w80 = weyl_matrix_1d_oracle(1.5 + 1.5j, 80)[:11, :11]
        assert np.max(np.abs(w40 - w80)) < 1e-12

    def test_truncation_warning(self):
        with pytest.warns(UserWarning):
            weyl_matrix_1d_oracle(4.0, 6)


class TestBundleBasics:
    def test_budget(self):
        with pytest.raises(BudgetError):
            TruncationSpec(per_mode_dim=30, mode_count=3)

    def test_mode_count_limit(self):
        _, spec = make_chain_spec(4, seed=1)
        with pytest.raises(ValueError):
            make_bundle(spec, spec.norm, dim=5)

    def test_ground_energy(self, pair_spec):
        _, spec = pair_spec
        bundle = make_bundle(spec, spec.norm)
        assert abs(bundle.energies[bundle.state_index([0, 0])] - spec.gammas.sum()) < 1e-12

    def test_ccr_low_block(self, pair_spec):
        _, spec = pair_spec
        bundle = make_bundle(spec, spec.norm)
        low = bundle.band_projector(5)
        for x in (0, 1):
            for y in (0, 1):
                comm = bundle.position(x) @ bundle.momentum(y) - bundle.momentum(y) @ bundle.position(x)
                block = (low[:, None] * (comm - 1j * (x == y) * np.eye(bundle.trunc.dim))) * low[None, :]
                assert np.max(np.abs(block)) < 1e-12

    def test_hamiltonian_spectrum_from_qp(self, pair_spec):
        # q^T h q + p^T p reproduces the diagonal E_alpha on a low block
        _, spec = pair_spec
        bundle = make_bundle(spec, spec.norm)
        h = (spec.modes * spec.eigenvalues) @ spec.modes.T
        dim = bundle.trunc.dim
        ham = np.zeros((dim, dim), dtype=complex)
        for x in range(2):
            ham += bundle.momentum(x) @ bundle.momentum(x)
            for y in range(2):
                ham += h[x, y] * (bundle.position(x) @ bundle.position(y))
        low = bundle.band_projector(6)
        diff = (low[:, None] * (ham - np.diag(bundle.energies))) * low[None, :]
        assert np.max(np.abs(diff)) < 1e-9


@pytest.mark.filterwarnings("ignore:truncation leakage")
class TestLemma31Structure:
    def test_projection_commutes_with_regime_weyl(self, pair_spec):
        _, spec = pair_spec
        lam = float(spec.eigenvalues[0]) + 1e-9  # S = {0}
        bundle = make_bundle(spec, lam, cutoff=None)
        rng = np.random.default_rng(1)
        for _ in range(5):
            f = random_field(rng, 2, scale=0.6)
            xf = project_localized(spec, lam, f)
            w = bundle.weyl(xf)
            p = np.diag(bundle.p_diag)
            assert np.max(np.abs(p @ w - w @ p)) < 1e-10

    def test_restricted_norm_equals_cf(self, pair_spec):
        _, spec = pair_spec
        lam = float(spec.eigenvalues[0]) + 1e-9
        bundle = make_bundle(spec, lam, cutoff=None)
        rng = np.random.default_rng(2)
        for _ in range(5):
            f = random_field(rng, 2, scale=0.7)
            cf = restriction_constant(spec, lam, f)
            assert cf < 1.0  # generic field leaks outside the regime
            norm = np.linalg.norm(bundle.restricted(bundle.weyl(f)), 2)
            assert abs(norm - cf) < 1e-8


@pytest.mark.filterwarnings("ignore:truncation leakage")
class TestDynamicsOracle:
    def test_heisenberg_weyl_is_evolved_weyl(self, pair_spec):
        _, spec = pair_spec
        bundle = make_bundle(spec, spec.norm)
        low = bundle.band_projector(6)
        rng = np.random.default_rng(3)
        for _ in range(5):
            f = random_field(rng, 2, scale=0.5)
            t = rng.uniform(-3, 3)
            lhs = bundle.heisenberg(bundle.weyl(f), t)
            rhs = bundle.weyl(evolve(spec, f, t))
            diff = (low[:, None] * (lhs - rhs)) * low[None, :]
            assert np.max(np.abs(diff)) < 1e-6

    def test_product_formula(self, pair_spec):
        _, spec = pair_spec
        bundle = make_bundle(spec, spec.norm)
        rng = np.random.default_rng(4)
        for _ in range(8):
            f = random_field(rng, 2, scale=0.6)
            w = bundle.weyl(f)
            alpha = rng.integers(0, 4, size=2)
            beta = rng.integers(0, 4, size=2)
            got = w[bundle.state_index(alpha), bundle.state_index(beta)]
            assert abs(got - matrix_element(spec, alpha, beta, f)) < 1e-7


@pytest.mark.filterwarnings("ignore:truncation leakage")
class TestRestrictedQuantitiesOracle:
    """Dual-route checks of the exact closed forms on a two-site system."""

    def lam_regime(self, spec):
        return float(spec.eigenvalues[0]) + 1e-9  # S = {0}

    def test_lr_action_identity_low_block(self, pair_spec):
        # [W(f)_I(t), W(g)_I] = C_f C_g (e^{-i theta} - 1) W(Xg) W(Xf_t) P on low bands
        _, spec = pair_spec
        lam = self.lam_regime(spec)
        bundle = make_bundle(spec, lam, cutoff=None)
        rng = np.random.default_rng(5)
        low = bundle.band_projector(4)
        for _ in range(5):
            f = random_field(rng, 2, scale=0.5)
            g = random_field(rng, 2, scale=0.5)
            t = rng.uniform(-2, 2)
            a = bundle.heisenberg(bundle.restricted(bundle.weyl(f)), t)
            b = bundle.restricted(bundle.weyl(g))
            cf = restriction_constant(spec, lam, f)
            cg = restriction_constant(spec, lam, g)
            theta = float(symplectic_phase_on_grid(spec, lam, f, g, t)[0])
            xft = project_localized(spec, lam, evolve(spec, f, t))
            xg = project_localized(spec, lam, g)
            rhs = (
                cf
                * cg
                * (np.exp(-1j * theta) - 1.0)
                * (bundle.weyl(xg) @ bundle.weyl(xft) @ np.diag(bundle.p_diag))
            )
            diff = (low[:, None] * (a @ b - b @ a - rhs)) * low[None, :]
            assert np.max(np.abs(diff)) < 1e-6

    def test_lr_norm_small_displacements(self, pair_spec):
        # norm-level agreement needs small displacements: band-edge compression
        # distorts commutator norms at the same order as the commutator itself
        _, spec = pair_spec
        lam = self.lam_regime(spec)
        bundle = make_bundle(spec, lam, cutoff=4)
        rng = np.random.default_rng(6)
        for _ in range(5):
            f = random_field(rng, 2, scale=2e-4)
            g = random_field(rng, 2, scale=2e-4)
            t = rng.uniform(-2, 2)
            a = bundle.heisenberg(bundle.restricted(bundle.weyl(f)), t)
            b = bundle.restricted(bundle.weyl(g))
            got = oracle_commutator_norm(a, b)
            want = lr_weyl_commutator_norm(spec, lam, f, g, t)
            assert abs(got - want) < 1e-6

    def test_pq_commutators(self, pair_spec):
        _, spec = pair_spec
        lam = self.lam_regime(spec)
        bundle = make_bundle(spec, lam, cutoff=4)
        low = bundle.band_projector(3)
        p_mat = np.diag(bundle.p_diag)
        rng = np.random.default_rng(7)
        for _ in range(4):
            x, y = rng.integers(0, 2, size=2)
            t = rng.uniform(-3, 3)
            coeffs = pq_commutator_matrix(spec, lam, int(x), int(y), t)
            ops_f = [bundle.position(int(x)), bundle.momentum(int(x))]
            ops_g = [bundle.position(int(y)), bundle.momentum(int(y))]
            for i in range(2):
                for j in range(2):
                    a = bundle.heisenberg(bundle.restricted(ops_f[i]), t)
                    b = bundle.restricted(ops_g[j])
                    comm = a @ b - b @ a
                    diff = (low[:, None] * (comm - 1j * coeffs[i, j] * p_mat)) * low[None, :]
                    assert np.max(np.abs(diff)) < 1e-6

    def test_dynamic_correlation(self, pair_spec):
        _, spec = pair_spec
        lam = self.lam_regime(spec)
        bundle = make_bundle(spec, lam, cutoff=None)
        rng = np.random.default_rng(8)
        for _ in range(6):
            f = random_field(rng, 2, scale=0.5)
            g = random_field(rng, 2, scale=0.5)
            t = rng.uniform(-3, 3)
            alpha = np.array([int(rng.integers(0, 3)), 0])
            psi = bundle.psi(alpha)
            a = bundle.heisenberg(bundle.restricted(bundle.weyl(f)), t)
            b = bundle.restricted(bundle.weyl(g))
            got = oracle_expectation(psi, a @ b) - oracle_expectation(psi, a) * oracle_expectation(psi, b)
            want = dynamic_correlation(spec, lam, alpha, f, g, t)
            assert abs(got - want) < 1e-6

    def test_quasi_locality_error(self, pair_spec):
        box, spec = pair_spec
        lam = self.lam_regime(spec)
        bundle = make_bundle(spec, lam, cutoff=None)
        rng = np.random.default_rng(9)
        for _ in range(6):
            f = delta_field(2, 0, complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))
            t = rng.uniform(-3, 3)
            alpha = np.array([int(rng.integers(0, 3)), 0])
            n = 0
            # strictly local approximation W_hat = C_hat W(1_{X(n)} X f_t)
            xft = project_localized(spec, lam, evolve(spec, f, t))
            chopped = xft.copy()
            chopped[1:] = 0.0  # X(0) = {0}
            cf = restriction_constant(spec, lam, f)
            c_loc = restriction_constant(spec, lam, chopped)
            w_hat = (cf / c_loc) * bundle.weyl(chopped)
            a = bundle.heisenberg(bundle.weyl(f), t)
            diff_restricted = bundle.restricted(a - w_hat)
            got = np.linalg.norm(diff_restricted @ bundle.psi(alpha))
            want = quasi_locality_error(spec, box, lam, alpha, f, [0], n, t)
            assert abs(got - want) < 1e-6
