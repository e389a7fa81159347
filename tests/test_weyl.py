import numpy as np
import pytest

from osclab.anderson import eigencorrelator, localized_modes
from osclab.fock_oracle import correlation_series
from osclab.freeboson import delta_field, evolve, project_localized, v_inverse, v_map
from osclab.lattice import BoxGeometry
from osclab.weyl import (
    diagonal_elements,
    dynamic_correlation,
    laguerre,
    lr_envelope,
    lr_weyl_commutator_norm,
    matrix_element,
    matrix_element_1d,
    mode_product_sum,
    pq_commutator_matrix,
    quasi_locality_bound,
    quasi_locality_error,
    restriction_constant,
    symplectic_phase_on_grid,
)

from conftest import laguerre_direct, make_chain_spec, random_field


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
    def test_zero_field(self, chain12):
        _, spec = chain12
        rng = np.random.default_rng(4)
        alpha = rng.integers(0, 3, size=12)
        assert matrix_element(spec, alpha, alpha, np.zeros(12, complex)) == 1.0
        beta = alpha.copy()
        beta[3] += 1
        assert matrix_element(spec, alpha, beta, np.zeros(12, complex)) == 0.0

    def test_vacuum_gaussian(self, chain12):
        _, spec = chain12
        f = random_field(np.random.default_rng(5), 12, scale=0.4)
        zero = np.zeros(12, int)
        expected = np.exp(-np.linalg.norm(v_map(spec, f)) ** 2 / 4)
        assert abs(matrix_element(spec, zero, zero, f) - expected) < 1e-13

    def test_weyl_relation_via_resolution_of_identity(self, pair_spec):
        # <a|W(f+g)|b> = exp(i Im<f,g>/2) sum_c <a|W(f)|c><c|W(g)|b>
        _, spec = pair_spec
        rng = np.random.default_rng(6)
        for _ in range(5):
            f = random_field(rng, 2, scale=0.5)
            g = random_field(rng, 2, scale=0.5)
            alpha = rng.integers(0, 3, size=2)
            beta = rng.integers(0, 3, size=2)
            lhs = matrix_element(spec, alpha, beta, f + g)
            acc = 0.0 + 0.0j
            for c0 in range(25):
                for c1 in range(25):
                    mid = np.array([c0, c1])
                    acc += matrix_element(spec, alpha, mid, f) * matrix_element(spec, mid, beta, g)
            phase = np.exp(0.5j * np.imag(np.vdot(f, g)))
            assert abs(lhs - phase * acc) < 1e-7


class TestRestriction:
    def test_supported_inside(self, chain12):
        _, spec = chain12
        lam = float(np.percentile(spec.eigenvalues, 60))
        S = localized_modes(spec, lam)
        g = np.zeros(12, dtype=complex)
        g[S] = 1.0 + 0.5j
        f = v_inverse(spec, g)
        assert abs(restriction_constant(spec, lam, f) - 1.0) < 1e-12

    def test_empty_regime(self, chain12):
        _, spec = chain12
        f = random_field(np.random.default_rng(9), 12)
        c = restriction_constant(spec, 1e-9, f)
        expected = np.exp(-np.linalg.norm(v_map(spec, f)) ** 2 / 4)
        assert abs(c - expected) < 1e-13

    def test_time_invariance(self, chain12):
        _, spec = chain12
        lam = float(np.median(spec.eigenvalues))
        rng = np.random.default_rng(10)
        f = random_field(rng, 12)
        c0 = restriction_constant(spec, lam, f)
        for t in rng.uniform(-8, 8, size=100):
            ct = restriction_constant(spec, lam, evolve(spec, f, t))
            assert abs(ct - c0) < 1e-12


class TestLiebRobinson:
    def test_disjoint_supports_at_time_zero(self, chain12):
        _, spec = chain12
        rng = np.random.default_rng(11)
        f = np.zeros(12, complex)
        g = np.zeros(12, complex)
        f[:4] = random_field(rng, 4)
        g[8:] = random_field(rng, 4)
        assert lr_weyl_commutator_norm(spec, spec.norm, f, g, 0.0) < 1e-14

    def test_self_commutator(self, chain12):
        _, spec = chain12
        f = random_field(np.random.default_rng(12), 12)
        assert lr_weyl_commutator_norm(spec, spec.norm, f, f, 0.0) < 1e-14

    def test_inequality_chain(self, chain12):
        # value <= C_f C_g |Im<Xf_t, Xg>| <= |Im<Xf_t, g>| and value <= envelope
        _, spec = chain12
        lam = float(np.percentile(spec.eigenvalues, 70))
        rng = np.random.default_rng(13)
        for _ in range(50):
            f = random_field(rng, 12)
            g = random_field(rng, 12)
            t = rng.uniform(-5, 5)
            val = lr_weyl_commutator_norm(spec, lam, f, g, t)
            cf = restriction_constant(spec, lam, f)
            cg = restriction_constant(spec, lam, g)
            theta = float(symplectic_phase_on_grid(spec, lam, f, g, t)[0])
            xft = project_localized(spec, lam, evolve(spec, f, t))
            im_direct = np.imag(np.vdot(xft, g))
            assert abs(theta - im_direct) < 1e-10
            assert val <= cf * cg * abs(theta) + 1e-12
            assert cf * cg * abs(theta) <= abs(im_direct) + 1e-12
            assert val <= lr_envelope(spec, lam, f, g) + 1e-12

    def test_envelope_reduces_to_eigencorrelator(self, chain12):
        _, spec = chain12
        lam = float(np.percentile(spec.eigenvalues, 70))
        x, y = 2, 9
        env = mode_product_sum(spec, lam, delta_field(12, x), delta_field(12, y))
        assert abs(env - eigencorrelator(spec, lam, -1, x, y)) < 1e-12


class TestPqCommutators:
    def test_time_zero(self, chain12):
        _, spec = chain12
        lam = float(np.percentile(spec.eigenvalues, 70))
        S = localized_modes(spec, lam)
        x, y = 3, 8
        m = pq_commutator_matrix(spec, lam, x, y, 0.0)
        overlap = float(np.sum(spec.modes[x, S] * spec.modes[y, S]))
        assert m[0, 0] == 0.0 and m[1, 1] == 0.0
        assert abs(m[0, 1] - overlap) < 1e-13
        assert abs(m[1, 0] + overlap) < 1e-13

    def test_site_outside_box_rejected(self, chain12):
        _, spec = chain12
        for x, y in ((0, 12), (12, 0), (-1, 3)):
            with pytest.raises(ValueError):
                pq_commutator_matrix(spec, spec.norm, x, y, 0.5)

    def test_envelopes(self, chain12):
        _, spec = chain12
        lam = float(np.percentile(spec.eigenvalues, 70))
        x, y = 1, 10
        qm = eigencorrelator(spec, lam, -1, x, y)
        q0 = eigencorrelator(spec, lam, 0, x, y)
        qp = eigencorrelator(spec, lam, 1, x, y)
        for t in np.linspace(-6, 6, 60):
            m = pq_commutator_matrix(spec, lam, x, y, t)
            assert abs(m[0, 0]) <= qm + 1e-12
            assert abs(m[0, 1]) <= q0 + 1e-12
            assert abs(m[1, 0]) <= q0 + 1e-12
            assert abs(m[1, 1]) <= qp + 1e-12


class TestDynamicCorrelation:
    def test_zero_g(self, chain12):
        _, spec = chain12
        f = random_field(np.random.default_rng(14), 12)
        alpha = np.zeros(12, int)
        assert abs(dynamic_correlation(spec, spec.norm, alpha, f, np.zeros(12, complex), 1.3)) < 1e-14

    def test_fields_outside_regime(self, chain12):
        # Vf supported outside S makes both restricted operators scalar on the regime
        _, spec = chain12
        lam = float(np.percentile(spec.eigenvalues, 40))
        S = localized_modes(spec, lam)
        g = np.zeros(12, dtype=complex)
        g[S.size:] = 0.3 + 0.2j
        f = v_inverse(spec, g)
        alpha = np.zeros(12, int)
        alpha[: S.size] = 1
        assert abs(dynamic_correlation(spec, lam, alpha, f, f, 0.7)) < 1e-13

    def test_alpha_outside_regime_rejected(self, chain12):
        _, spec = chain12
        lam = float(np.percentile(spec.eigenvalues, 40))
        alpha = np.zeros(12, int)
        alpha[-1] = 1  # top mode is never localized at this lambda0
        with pytest.raises(ValueError):
            dynamic_correlation(spec, lam, alpha, delta_field(12, 0), delta_field(12, 1), 0.0)

    def test_bounded_by_two(self, chain12):
        _, spec = chain12
        lam = float(np.percentile(spec.eigenvalues, 80))
        S = localized_modes(spec, lam)
        rng = np.random.default_rng(15)
        for _ in range(100):
            f = random_field(rng, 12, scale=rng.uniform(0.1, 3.0))
            g = random_field(rng, 12, scale=rng.uniform(0.1, 3.0))
            alpha = np.zeros(12, int)
            alpha[: S.size] = rng.integers(0, 3, size=S.size)
            c = dynamic_correlation(spec, lam, alpha, f, g, rng.uniform(-4, 4))
            assert abs(c) <= 2.0 + 1e-12


class TestCorrelationSeries:
    def test_matches_closed_form(self, pair_spec):
        _, spec = pair_spec
        rng = np.random.default_rng(16)
        for _ in range(10):
            f = random_field(rng, 2, scale=0.5)
            g = random_field(rng, 2, scale=0.5)
            t = rng.uniform(-3, 3)
            alpha = rng.integers(0, 2, size=2)
            closed = dynamic_correlation(spec, spec.norm, alpha, f, g, t)
            series = correlation_series(spec, spec.norm, alpha, f, g, t, beta_cutoff=40)
            assert abs(closed - series) < 1e-8

    def test_single_mode_vacuum_identity(self):
        from osclab.anderson import diagonalize

        spec = diagonalize(np.array([[2.25]]))  # gamma = 1.5
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


class TestQuasiLocality:
    def test_saturated_neighborhood(self, chain12):
        box, spec = chain12
        f = delta_field(12, 5, 0.8 + 0.3j)
        alpha = np.zeros(12, int)
        err = quasi_locality_error(spec, box, spec.norm, alpha, f, [5], box.diameter(), 2.1)
        assert err == 0.0

    def test_vacuum_closed_form(self, chain12):
        box, spec = chain12
        f = delta_field(12, 5, 1.2)
        alpha = np.zeros(12, int)
        for n, t in ((0, 0.7), (2, 1.9), (4, 3.3)):
            err = quasi_locality_error(spec, box, spec.norm, alpha, f, [5], n, t)
            # independent route: ||V f_{n,t}|| via explicit projection and chopping
            ft = evolve(spec, f, t)
            mask = np.ones(12)
            lo, hi = max(0, 5 - n), min(11, 5 + n)
            mask[lo : hi + 1] = 0.0
            w = v_map(spec, ft * mask)
            expected = np.sqrt(max(0.0, 2 - 2 * np.exp(-np.linalg.norm(w) ** 2 / 4)))
            assert abs(err - expected) < 1e-12

    def test_dominated_by_bound(self):
        box, spec = make_chain_spec(12, seed=23)
        lam = float(np.percentile(spec.eigenvalues, 75))
        S = localized_modes(spec, lam)
        rng = np.random.default_rng(18)
        for _ in range(1000):
            site = int(rng.integers(0, 12))
            f = delta_field(12, site, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
            n = int(rng.integers(0, 6))
            t = float(rng.uniform(-5, 5))
            kappa = int(rng.integers(0, 3))
            alpha = np.zeros(12, int)
            if S.size:
                alpha[rng.integers(0, S.size)] = kappa
            err = quasi_locality_error(spec, box, lam, alpha, f, [site], n, t)
            bound = quasi_locality_bound(spec, box, lam, f, [site], n, t, kappa)
            assert err <= bound + 1e-12

    def test_support_violation_rejected(self, chain12):
        box, spec = chain12
        f = delta_field(12, 5)
        with pytest.raises(ValueError):
            quasi_locality_error(spec, box, spec.norm, np.zeros(12, int), f, [4], 1, 0.0)
