import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osclab.anderson import DisorderConfig, assemble, diagonalize, sample_disorder
from osclab.fock_oracle import (
    OracleBundle,
    TruncationSpec,
    correlation_series,
    delta_field,
    diagonal_elements,
    laguerre,
    matrix_element_1d,
    oracle_expectation,
    v_inverse,
    v_map,
)
from osclab.lattice import BoxGeometry

from conftest import chain_stencil, laguerre_direct, random_field


class TestLaguerre:
    def test_order_zero(self):
        for k in (0, 3, 7):
            for x in (0.0, 1.3, 9.0):
                assert laguerre(0, k, x) == 1.0

    def test_order_one(self):
        for x in (0.0, 0.5, 2.0):
            assert abs(laguerre(1, 0, x) - (1.0 - x)) < 1e-15

    def test_against_direct_sum(self):
        from math import comb, factorial

        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(0, 12))
            k = int(rng.integers(0, 8))
            x = float(rng.uniform(0.0, 6.0))
            ref = laguerre_direct(n, k, x)
            # the alternating sum itself loses digits; scale by its term sizes
            condition = sum(comb(n + k, n - j) * x**j / factorial(j) for j in range(n + 1))
            assert abs(laguerre(n, k, x) - ref) < 1e-13 * max(1.0, condition)

    def test_specific_value(self):
        assert abs(laguerre(3, 2, 1.5) - laguerre_direct(3, 2, 1.5)) < 1e-12

    def test_uniform_bound(self):
        from math import comb, exp

        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(0, 25))
            k = int(rng.integers(0, 25))
            x = float(rng.uniform(0.0, 8.0))
            assert abs(laguerre(n, k, x)) <= comb(n + k, n) * exp(x / 2) * (1 + 1e-12)


class TestMatrixElement1d:
    def test_vacuum(self):
        assert abs(matrix_element_1d(0, 0, 2.0) - np.exp(-1.0)) < 1e-15

    def test_identity_at_zero(self):
        assert matrix_element_1d(3, 3, 0.0) == 1.0
        assert matrix_element_1d(2, 5, 0.0) == 0.0

    def test_conjugation_consistency(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n, k = rng.integers(0, 12, size=2)
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            lhs = matrix_element_1d(int(n), int(k), z)
            rhs = np.conj(matrix_element_1d(int(k), int(n), -z))
            assert abs(lhs - rhs) < 1e-13

    def test_unitarity_row_sums(self):
        for n in range(11):
            for z in (0.3, 1.1 + 0.7j, -2.4 + 1.1j, 3.0j):
                total, k = 0.0, 0
                while k < 200:
                    term = abs(matrix_element_1d(n, k, z)) ** 2
                    total += term
                    if k > n + 10 and term < 1e-16:
                        break
                    k += 1
                assert abs(total - 1.0) < 1e-8

    def test_large_occupations_against_mpmath(self):
        """Absolute error <= 1e-12 for occupations up to 300 and |z| up to 30."""
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60

        def reference(n, k, z):
            if n > k:
                return mp.conj(reference(k, n, -z))
            z = mp.mpc(z.real, z.imag)
            x = abs(z) ** 2 / 2
            return (
                mp.sqrt(mp.factorial(n) / mp.factorial(k))
                * (1j * mp.conj(z) / mp.sqrt(2)) ** (k - n)
                * mp.laguerre(n, k - n, x)
                * mp.exp(-x / 2)
            )

        rng = np.random.default_rng(30)
        occupations = (0, 1, 7, 40, 61, 120, 200, 300)
        for n in occupations:
            for k in occupations:
                for radius in (0.3, 2.0, 8.0, 17.0, 30.0):
                    z = radius * np.exp(2j * np.pi * rng.uniform())
                    ref = complex(reference(n, k, z))
                    assert abs(matrix_element_1d(n, k, z) - ref) <= 1e-12

    def test_diagonal_elements_match(self):
        rng = np.random.default_rng(3)
        alphas = rng.integers(0, 6, size=8)
        zs = random_field(rng, 8)
        vals = diagonal_elements(alphas, zs)
        for a, z, v in zip(alphas, zs, vals):
            assert abs(v - matrix_element_1d(int(a), int(a), z)) < 1e-13


class TestManyBodyElements:
    @pytest.mark.filterwarnings("ignore:truncation leakage")
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**16),
        k_max=st.floats(0.05, 8.0),
        z=st.lists(st.complex_numbers(max_magnitude=1.0), min_size=4, max_size=4),
    )
    def test_weyl_relation_via_resolution_of_identity(self, seed, k_max, z):
        """W(f) W(g) = exp(-(i/2) Im<f, g>) W(f + g) on a low block of the oracle, on random two-site boxes.

        The product of the oracle's matrices sums over every intermediate
        occupation state.  f and g are V^{-1} of mode displacements of modulus
        at most 1, so 24 levels per mode hold the block to 3e-15 (200 examples)
        however soft the box, while Im<f, g> is taken in sites.
        """
        box = BoxGeometry([2])
        spec = diagonalize(assemble(box, sample_disorder(DisorderConfig(k_max=k_max, master_seed=seed), box, 0)))
        f, g = v_inverse(spec, np.array(z[:2])), v_inverse(spec, np.array(z[2:]))
        bundle = OracleBundle(spec, spec.norm, TruncationSpec(per_mode_dim=24, mode_count=2))
        low = np.flatnonzero(bundle.band_projector(3))
        product = bundle.weyl(f) @ bundle.weyl(g)[:, low]
        expected = np.exp(-0.5j * np.imag(np.vdot(f, g))) * bundle.weyl(f + g)[:, low]
        assert np.max(np.abs(product[low] - expected[low])) < 1e-13


class TestDynamicCorrelation:
    """The restricted dynamic correlation through its intermediate-state series."""

    def test_zero_g(self, chain12):
        _, spec = chain12
        f = random_field(np.random.default_rng(14), 12)
        alpha = np.zeros(12, int)
        g = np.zeros(12, complex)
        assert abs(correlation_series(spec, spec.norm, alpha, f, g, 1.3, beta_cutoff=20)) < 1e-14

    def test_fields_outside_regime(self, chain12):
        # Vf supported outside S makes both restricted operators scalar on the regime
        _, spec = chain12
        lam = float(np.percentile(spec.eigenvalues, 40))
        count = spec.localized_count(lam)
        g = np.zeros(12, dtype=complex)
        g[count:] = 0.3 + 0.2j
        f = v_inverse(spec, g)
        alpha = np.zeros(12, int)
        alpha[:count] = 1
        assert abs(correlation_series(spec, lam, alpha, f, f, 0.7, beta_cutoff=5)) < 1e-13

    def test_alpha_outside_regime_rejected(self, chain12):
        _, spec = chain12
        lam = float(np.percentile(spec.eigenvalues, 40))
        alpha = np.zeros(12, int)
        alpha[-1] = 1  # top mode is never localized at this lambda0
        with pytest.raises(ValueError):
            correlation_series(spec, lam, alpha, delta_field(12, 0), delta_field(12, 1), 0.0, beta_cutoff=5)

    def test_bounded_by_two(self, chain12):
        # each truncated mode sum is at most 1 by Cauchy-Schwarz, so any cutoff keeps the bound
        _, spec = chain12
        lam = float(np.percentile(spec.eigenvalues, 80))
        count = spec.localized_count(lam)
        rng = np.random.default_rng(15)
        for _ in range(100):
            f = random_field(rng, 12, scale=rng.uniform(0.1, 3.0))
            g = random_field(rng, 12, scale=rng.uniform(0.1, 3.0))
            alpha = np.zeros(12, int)
            alpha[:count] = rng.integers(0, 3, size=count)
            c = correlation_series(spec, lam, alpha, f, g, rng.uniform(-4, 4), beta_cutoff=8)
            assert abs(c) <= 2.0 + 1e-12


class TestCorrelationSeries:
    @pytest.mark.filterwarnings("ignore:truncation leakage")
    def test_matches_fock_oracle(self, pair_spec):
        # <AB> - <A><B> in psi_alpha with A = tau_t(W(f)_I), B = W(g)_I, at S = {0} and at S = both modes
        _, spec = pair_spec
        rng = np.random.default_rng(16)
        for lam in (float(spec.eigenvalues[0]) + 1e-9, spec.norm):
            bundle = OracleBundle(spec, lam, TruncationSpec(per_mode_dim=14, mode_count=2))
            count = spec.localized_count(lam)
            for _ in range(5):
                f = random_field(rng, 2, scale=0.5)
                g = random_field(rng, 2, scale=0.5)
                t = rng.uniform(-3, 3)
                alpha = np.zeros(2, int)
                alpha[:count] = rng.integers(0, 3, size=count)
                a = bundle.heisenberg(bundle.restricted(bundle.weyl(f)), t)
                b = bundle.restricted(bundle.weyl(g))
                psi = bundle.psi(alpha)
                want = oracle_expectation(psi, a @ b) - oracle_expectation(psi, a) * oracle_expectation(psi, b)
                series = correlation_series(spec, lam, alpha, f, g, t, beta_cutoff=40)
                assert abs(series - want) < 5e-12

    def test_single_mode_vacuum_identity(self):
        spec = diagonalize(chain_stencil([2.25]))  # gamma = 1.5
        rng = np.random.default_rng(17)
        f = random_field(rng, 1, scale=0.7)
        g = random_field(rng, 1, scale=0.7)
        alpha = np.zeros(1, int)
        eta = v_map(spec, f)[0]
        xi = v_map(spec, g)[0]
        expected = (
            np.exp(-0.5j * np.imag(np.conj(eta) * xi)) * matrix_element_1d(0, 0, eta + xi)
            - matrix_element_1d(0, 0, eta) * matrix_element_1d(0, 0, xi)
        )
        got = correlation_series(spec, spec.norm, alpha, f, g, 0.0, beta_cutoff=60)
        assert abs(got - expected) < 1e-10

    def test_zero_displacements(self, chain12):
        _, spec = chain12
        alpha = np.zeros(12, int)
        z = np.zeros(12, complex)
        assert correlation_series(spec, spec.norm, alpha, z, z, 1.0, beta_cutoff=5) == 0.0

    def test_cutoff_validation(self, chain12):
        _, spec = chain12
        alpha = np.zeros(12, int)
        alpha[0] = 3
        with pytest.raises(ValueError):
            correlation_series(spec, spec.norm, alpha, delta_field(12, 0), delta_field(12, 1), 0.0, beta_cutoff=2)
