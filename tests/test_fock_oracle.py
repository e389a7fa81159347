import ast
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import osclab
from osclab import ensembles, fock_oracle
from osclab.anderson import DisorderConfig, assemble, diagonalize, sample_disorder
from osclab.config import config_from_dict
from osclab.errors import BudgetError
from osclab.fock_oracle import (
    LEAKAGE_TOL,
    OracleBundle,
    TruncationSpec,
    delta_field,
    evolve,
    ladder_matrices,
    matrix_element_1d,
    project_localized,
    v_map,
    weyl_matrix_1d_oracle,
)
from osclab.lattice import BoxGeometry, l1_distances_from

from conftest import kernel_family, make_chain_spec, random_field


class TestReferenceLayer:
    """The reference layer stays apart from the pipeline it checks."""

    def test_pipeline_never_loads_it(self):
        env = {**os.environ, "PYTHONPATH": str(Path(osclab.__file__).parents[1])}
        code = "import sys, osclab.cli; print(sorted(m for m in sys.modules if m.startswith('osclab.')))"
        loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
        assert "osclab.ensembles" in loaded and "osclab.fock_oracle" not in loaded

    def test_not_exported(self):
        moved = {"delta_field", "v_map", "v_inverse", "evolve", "project_localized", "laguerre", "matrix_element_1d", "neighborhood"}
        assert moved.isdisjoint(vars(osclab))

    def test_imports_only_spectral_data_and_errors(self):
        package = set()
        for node in ast.walk(ast.parse(Path(fock_oracle.__file__).read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "osclab"):
                package |= {((node.module or "").removeprefix("osclab."), alias.name) for alias in node.names}
            elif isinstance(node, ast.Import):
                assert not any(alias.name.split(".")[0] == "osclab" for alias in node.names)
        assert {module for module, _ in package} == {"anderson", "errors"}
        assert {name for module, name in package if module == "anderson"} == {"SpectralData"}


def make_bundle(spec, lambda0, dim=14, cutoff=None):
    trunc = TruncationSpec(per_mode_dim=dim, mode_count=spec.n, occupation_cutoff=cutoff)
    return OracleBundle(spec, lambda0, trunc)


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
        moves = []
        for z in (0.4 + 0.2j, 1.2 - 0.9j, 1.5):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                w14 = weyl_matrix_1d_oracle(z, 14, reads=5)[:5, :5]
            w28 = weyl_matrix_1d_oracle(z, 28, reads=5)[:5, :5]
            moves.append(np.max(np.abs(w14 - w28)))
            assert moves[-1] < 1e-8
            # the oracle warns exactly when the block it is told is read moves by more than LEAKAGE_TOL
            leaked = [w for w in caught if str(w.message).startswith("truncation leakage")]
            assert len(leaked) == int(moves[-1] > LEAKAGE_TOL)
        assert min(moves) < LEAKAGE_TOL < max(moves)
        w40 = weyl_matrix_1d_oracle(1.5 + 1.5j, 40, reads=11)[:11, :11]
        w80 = weyl_matrix_1d_oracle(1.5 + 1.5j, 80, reads=11)[:11, :11]
        assert np.max(np.abs(w40 - w80)) < 1e-12

    def test_truncation_warning(self):
        with pytest.warns(UserWarning, match="truncation leakage"):
            weyl_matrix_1d_oracle(4.0, 6)
        # a caller that reads only the truncated matrix itself is not warned
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            weyl_matrix_1d_oracle(1.5, 6, reads=0)


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
            cf = np.exp(-np.linalg.norm(v_map(spec, f)[~bundle.mode_mask]) ** 2 / 4)
            assert cf < 1.0  # generic field leaks outside the regime
            # P W P = W_0 x <0|W_1|0> |0><0| with W_0 unitary, so the norm reads one entry of W_1
            norm = np.linalg.norm(bundle.restricted(bundle.weyl(f, reads=1)), 2)
            assert abs(norm - cf) < 1e-8


class TestDynamicsOracle:
    def test_heisenberg_weyl_is_evolved_weyl(self, pair_spec):
        _, spec = pair_spec
        # 20 levels hold the band read to 1e-14; 14 would leave 1e-6
        bundle = make_bundle(spec, spec.norm, dim=20)
        low = bundle.band_projector(6)
        rng = np.random.default_rng(3)
        for _ in range(5):
            f = random_field(rng, 2, scale=0.5)
            t = rng.uniform(-3, 3)
            lhs = bundle.heisenberg(bundle.weyl(f, reads=7), t)
            rhs = bundle.weyl(evolve(spec, f, t), reads=7)
            diff = (low[:, None] * (lhs - rhs)) * low[None, :]
            assert np.max(np.abs(diff)) < 1e-12

    def test_product_formula(self, pair_spec):
        _, spec = pair_spec
        # 20 levels hold the occupations read to 1e-14; 14 would leave 2e-8
        bundle = make_bundle(spec, spec.norm, dim=20)
        rng = np.random.default_rng(4)
        for _ in range(8):
            f = random_field(rng, 2, scale=0.6)
            w = bundle.weyl(f, reads=4)
            alpha = rng.integers(0, 4, size=2)
            beta = rng.integers(0, 4, size=2)
            got = w[bundle.state_index(alpha), bundle.state_index(beta)]
            want = np.prod([matrix_element_1d(int(a), int(b), z) for a, b, z in zip(alpha, beta, v_map(spec, f))])
            assert abs(got - want) < 1e-12




#: Disorder seed of the kernel boxes; on two sites it is the sample of ``pair_spec``.
KERNEL_SEED = 5

#: (lengths, center, shells) of the kernel boxes.  [3, 1] is the chain [3]
#: as a box with nu = 2, so its h is dense: it runs the dense solver, and the
#: window for pq-bound at a finite lambda0.
KERNEL_BOXES = (([2], [0], [1]), ([3], [0], [1, 2]), ([3, 1], [1, 0], [1]))

#: Per-mode dimension of the Weyl oracle by mode count, and the amplitudes it
#: holds.  Three modes must stay at 12^3 states; there amplitude 3 leaves
#: truncation errors of 1e-2 to 0.5 in the commutator norms, so only two modes
#: (40^2 states, errors below 1e-14) run at amplitude 3.
WEYL_DIM = {2: 40, 3: 12}
AMPLITUDES = {2: (0.9, 3.0), 3: (0.9,)}

#: About ten times the largest deviation from the oracle over every kernel
#: case, measured with numpy 2.4 on x86-64: commutator norms 1.3e-11,
#: correlations 1.5e-12, quasi-locality errors 9.9e-14, all at three modes;
#: pq coefficients, envelopes and bounds, which no truncation touches, 2.5e-15.
WEYL_TOL = {"lr-bound": 1e-10, "correlations": 1e-11, "quasi-locality": 1e-12}
EXACT_TOL = 1e-13

_TIME_GRID = ensembles._time_grid


def _kernel_cases(kind, **extra):
    """(config, spec) for each kernel box, each lambda0 that puts 1..n modes in S, each amplitude.

    ``spec`` holds every mode, whatever the kernel's own solve keeps.
    """
    for lengths, center, shells in KERNEL_BOXES:
        box = BoxGeometry(lengths)
        spec = diagonalize(assemble(box, sample_disorder(DisorderConfig(k_max=1.0, master_seed=KERNEL_SEED), box, 0)))
        evals = spec.eigenvalues
        for m in range(1, spec.n + 1):
            lam = "full" if m == spec.n else float(evals[m - 1] + evals[m]) / 2
            for amplitude in (1.0,) if kind == "pq-bound" else AMPLITUDES[spec.n]:
                doc = {
                    "experiment": kind,
                    "box": {"lengths": lengths},
                    "center": center,
                    "lambda0": lam,
                    "amplitude": amplitude,
                    "samples": 1,
                    "seed": KERNEL_SEED,
                    "time_grid": {"points": 4, "t_max": 3.0},
                    **extra,
                }
                if kind == "quasi-locality":
                    doc["n_values"] = list(range(box.diameter() + 1))
                else:
                    doc["shells"] = shells
                config = config_from_dict(doc)
                assert spec.localized_count(config.lambda0_value()) == m
                yield config, spec


def _rows_at(monkeypatch, config, t):
    """The rows of run_sample, which runs the kernel on the sample's own solve, on the one-time grid [t]."""
    monkeypatch.setattr(ensembles, "_time_grid", lambda config, spec: (t, t, 1))
    return dict(ensembles.run_sample(config, 0).rows)


def _shell(config, d):
    return np.flatnonzero(l1_distances_from(config.box(), config.center_index()) == d)


def _weyl_factors(bundle, f, reads=None):
    """The one-mode oracle matrices whose Kronecker product is ``bundle.weyl(f, reads)``."""
    d = bundle.trunc.per_mode_dim
    return [weyl_matrix_1d_oracle(z, d, reads) for z in v_map(bundle.spec, f)]


def _apply(factors, v):
    """(W_0 x ... x W_{m-1}) v, one mode axis at a time, without forming the Kronecker product."""
    d = factors[0].shape[0]
    out = v.reshape((d,) * len(factors))
    for j, w in enumerate(factors):
        out = np.moveaxis(np.tensordot(w, out, axes=(1, j)), 0, j)
    return out.reshape(-1)


def _act(bundle, factors, v, t=0.0):
    """tau_t(W_I) v for W the Kronecker product of ``factors``, with P and e^{itH} applied to the vector."""
    phases = np.exp(1j * t * bundle.energies)
    return phases * (bundle.p_diag * _apply(factors, bundle.p_diag * (np.conj(phases) * v)))


def _one_particle_sum(bundle, op_x, op_y):
    """2 sum_{j in S} |<1_j|op_x|0> <1_j|op_y|0>|, which is Q_s(x, y) for two oracle operators.

    <1_j|q_x|0> = phi_j(x) / sqrt(2 gamma_j) and |<1_j|p_x|0>| = |phi_j(x)| sqrt(gamma_j / 2),
    so (q_x, q_y), (q_x, p_y) and (p_x, p_y) give s = -1, 0 and +1.
    """
    n = bundle.spec.n
    vac = bundle.state_index(np.zeros(n, dtype=int))
    ones = [bundle.state_index(e) for e in np.eye(n, dtype=int)[bundle.mode_mask]]
    return 2.0 * float(np.sum(np.abs(op_x[ones, vac] * op_y[ones, vac])))


@pytest.mark.filterwarnings("ignore:displacement")
class TestRestrictedQuantitiesOracle:
    """Each experiment kernel's rows against the oracle, at every grid time, on boxes of two and three modes."""

    def test_factored_weyl_is_bundle_weyl(self):
        # the kernel checks apply W(f) = W_0 x ... x W_{m-1} one mode axis at a time; both sides
        # are the truncated matrices, so no block is read against the untruncated operator
        rng = np.random.default_rng(7)
        for n in (2, 3):
            _, spec = make_chain_spec(n, seed=3)
            bundle = make_bundle(spec, spec.norm, dim=5)
            f = random_field(rng, n, scale=0.5)
            v = rng.standard_normal(bundle.trunc.dim) + 1j * rng.standard_normal(bundle.trunc.dim)
            assert np.max(np.abs(_apply(_weyl_factors(bundle, f, reads=0), v) - bundle.weyl(f, reads=0) @ v)) < 1e-13

    def test_lr_action_identity_low_block(self, pair_spec):
        # [W(f)_I(t), W(g)_I] = C_f C_g (e^{-i theta} - 1) W(Xg) W(Xf_t) P on low bands
        _, spec = pair_spec
        lam = float(spec.eigenvalues[0]) + 1e-9  # S = {0}
        # products of four truncated matrices read the band through all levels: 14 would leave 2e-9
        bundle = make_bundle(spec, lam, dim=20, cutoff=None)
        vac = bundle.psi([0, 0])
        rng = np.random.default_rng(5)
        low = bundle.band_projector(4)
        for _ in range(5):
            f = random_field(rng, 2, scale=0.5)
            g = random_field(rng, 2, scale=0.5)
            t = rng.uniform(-2, 2)
            a = bundle.heisenberg(bundle.restricted(bundle.weyl(f)), t)
            b = bundle.restricted(bundle.weyl(g))
            # ||W(f)_I psi_0|| = C_f, and theta = Im<X f_t, X g>, through the field maps
            cf, cg = np.linalg.norm(bundle.restricted(bundle.weyl(f)) @ vac), np.linalg.norm(b @ vac)
            xft = project_localized(spec, lam, evolve(spec, f, t))
            xg = project_localized(spec, lam, g)
            theta = np.imag(np.vdot(xft, xg))
            rhs = (
                cf
                * cg
                * (np.exp(-1j * theta) - 1.0)
                * (bundle.weyl(xg) @ bundle.weyl(xft) @ np.diag(bundle.p_diag))
            )
            diff = (low[:, None] * (a @ b - b @ a - rhs)) * low[None, :]
            assert np.max(np.abs(diff)) < 1e-12

    def test_lr_commutator(self, monkeypatch):
        """lr-bound: ||[tau_t(W(f)_I), W(g)_I] psi_alpha|| and C_f C_g min(2, a^2 Q_-1(x, y)).

        The exact commutator is a scalar times a unitary on the regime, so its
        action on any psi_alpha there has its operator norm; the norm of the
        truncated commutator matrix would read the band edge instead.
        """
        for config, spec in _kernel_cases("lr-bound"):
            lam, x, a = config.lambda0_value(), config.center_index(), config.amplitude
            fock = make_bundle(spec, lam, dim=WEYL_DIM[spec.n])
            low = make_bundle(spec, lam, dim=2)
            weyl = {y: _weyl_factors(fock, delta_field(spec.n, y, a), reads=2) for y in range(spec.n)}
            vac = fock.psi(np.zeros(spec.n, dtype=int))
            states = (vac, fock.psi(np.eye(spec.n, dtype=int)[0]))
            c = {y: np.linalg.norm(_act(fock, w, vac)) for y, w in weyl.items()}
            # W(g)_I psi does not depend on t
            fixed = {(k, y): _act(fock, weyl[y], psi) for k, psi in enumerate(states) for y in range(spec.n)}
            for t in np.linspace(*_TIME_GRID(config, spec)):
                rows = _rows_at(monkeypatch, config, t)
                moved = [_act(fock, weyl[x], psi, t) for psi in states]
                for d in config.shells:
                    sites = _shell(config, d)
                    for k in range(len(states)):
                        values = [
                            np.linalg.norm(_act(fock, weyl[x], fixed[k, y], t) - _act(fock, weyl[y], moved[k]))
                            for y in sites
                        ]
                        assert rows[(d, "commutator_sup")] == pytest.approx(np.mean(values), abs=WEYL_TOL["lr-bound"])
                    envelopes = [
                        c[x] * c[y] * min(2.0, a * a * _one_particle_sum(low, low.position(x), low.position(y)))
                        for y in sites
                    ]
                    assert rows[(d, "commutator_envelope")] == pytest.approx(np.mean(envelopes), abs=WEYL_TOL["lr-bound"])

    def test_pq_commutators(self, monkeypatch):
        """pq-bound: the coefficient c of [tau_t(u_x)_I, (v_y)_I] = i c P, for u, v in {q, p}, and Q_s."""
        pairs = {"qq": ("q", "q"), "qp": ("q", "p"), "pq": ("p", "q"), "pp": ("p", "p")}
        envelopes = {"envelope_minus": "qq", "envelope_zero": "qp", "envelope_plus": "pp"}
        for config, spec in _kernel_cases("pq-bound"):
            lam, x = config.lambda0_value(), config.center_index()
            # occupations <= 1 go up by at most 2 in a commutator, so 4 levels are exact
            fock = make_bundle(spec, lam, dim=4)
            band = fock.band_projector(1)
            vac = fock.state_index(np.zeros(spec.n, dtype=int))
            ops = {"q": fock.position, "p": fock.momentum}
            for t in np.linspace(*_TIME_GRID(config, spec)):
                rows = _rows_at(monkeypatch, config, t)
                for d in config.shells:
                    sites = _shell(config, d)
                    coefficients = {name: [] for name in pairs}
                    for y in sites:
                        for name, (u, v) in pairs.items():
                            a = fock.heisenberg(fock.restricted(ops[u](x)), t)
                            b = fock.restricted(ops[v](y))
                            comm = a @ b - b @ a
                            coef = (comm[vac, vac] / 1j).real
                            # a scalar times P on the band, not just at the vacuum
                            off = comm - 1j * coef * np.diag(fock.p_diag)
                            assert np.max(np.abs(band[:, None] * off * band[None, :])) < EXACT_TOL
                            coefficients[name].append(abs(coef))
                    for name in pairs:
                        assert rows[(d, f"{name}_sup")] == pytest.approx(np.mean(coefficients[name]), abs=EXACT_TOL)
                    for row, name in envelopes.items():
                        u, v = pairs[name]
                        want = np.mean([_one_particle_sum(fock, ops[u](x), ops[v](y)) for y in sites])
                        assert rows[(d, row)] == pytest.approx(want, abs=EXACT_TOL)

    def test_dynamic_correlation(self, monkeypatch):
        """correlations: sup over the kernel's family of |<AB> - <A><B>| in psi_alpha, and a^2 Q_-1(x, y)."""
        for config, spec in _kernel_cases("correlations", kappa=2):
            lam, x, a = config.lambda0_value(), config.center_index(), config.amplitude
            fock = make_bundle(spec, lam, dim=WEYL_DIM[spec.n])
            low = make_bundle(spec, lam, dim=2)
            weyl = {y: _weyl_factors(fock, delta_field(spec.n, y, a), reads=3) for y in range(spec.n)}
            states = [fock.psi(alpha) for alpha in kernel_family(config, spec)]
            assert len(states) >= 2
            # <psi, A B psi> = <A* psi, B psi>, with A* = tau_t(W(f)_I)* = tau_t(W(-f)_I)
            adjoint = [w.conj().T for w in weyl[x]]
            fixed = {(k, y): _act(fock, weyl[y], psi) for k, psi in enumerate(states) for y in range(spec.n)}
            for t in np.linspace(*_TIME_GRID(config, spec)):
                rows = _rows_at(monkeypatch, config, t)
                moved = [(_act(fock, weyl[x], psi, t), _act(fock, adjoint, psi, t)) for psi in states]
                for d in config.shells:
                    sites = _shell(config, d)
                    sups = []
                    for y in sites:
                        mags = [
                            abs(np.vdot(a_star_psi, fixed[k, y]) - np.vdot(psi, a_psi) * np.vdot(psi, fixed[k, y]))
                            for k, (psi, (a_psi, a_star_psi)) in enumerate(zip(states, moved))
                        ]
                        sups.append(max(mags))
                    assert rows[(d, "correlation_sup")] == pytest.approx(np.mean(sups), abs=WEYL_TOL["correlations"])
                    overlaps = [a * a * _one_particle_sum(low, low.position(x), low.position(y)) for y in sites]
                    assert rows[(d, "overlap_sum")] == pytest.approx(np.mean(overlaps), abs=EXACT_TOL)

    def test_quasi_locality_error(self, monkeypatch):
        """quasi-locality: sup over the family of ||(tau_t(W(f)) - W_hat)_I psi_alpha|| and its bound.

        W_hat = (C_f / C_hat) W(1_{X(n)} X f_t) is the strictly local approximation
        on the n-neighborhood X(n) of the center; the bound is
        sqrt(2 (kappa + 1)) ||V f_{n,t}||, f_{n,t} = X 1_{outside X(n)} X f_t.
        """
        for config, spec in _kernel_cases("quasi-locality", kappa=2):
            lam, x, a = config.lambda0_value(), config.center_index(), config.amplitude
            f = delta_field(spec.n, x, a)
            fock = make_bundle(spec, lam, dim=WEYL_DIM[spec.n])
            weyl_f = _weyl_factors(fock, f, reads=3)
            vacuum = np.zeros(spec.n, dtype=int)
            c_f = np.linalg.norm(_act(fock, weyl_f, fock.psi(vacuum)))
            family = kernel_family(config, spec)
            dist = l1_distances_from(config.box(), x)
            for t in np.linspace(*_TIME_GRID(config, spec)):
                rows = _rows_at(monkeypatch, config, t)
                xft = project_localized(spec, lam, evolve(spec, f, t))
                moved = [_act(fock, weyl_f, fock.psi(alpha), t) for alpha in family]
                for n in config.n_values:
                    local = _weyl_factors(fock, np.where(dist <= n, xft, 0.0), reads=3)
                    ratio = c_f / np.linalg.norm(fock.p_diag * _apply(local, fock.psi(vacuum)))
                    errors = [
                        np.linalg.norm(a_psi - ratio * fock.p_diag * _apply(local, fock.psi(alpha)))
                        for a_psi, alpha in zip(moved, family)
                    ]
                    assert rows[(n, "error_sup")] == pytest.approx(max(errors), abs=WEYL_TOL["quasi-locality"])
                    tail = project_localized(spec, lam, np.where(dist <= n, 0.0, xft))
                    bound = np.sqrt(2.0 * (config.kappa + 1)) * np.linalg.norm(v_map(spec, tail))
                    assert rows[(n, "bound_sup")] == pytest.approx(bound, abs=EXACT_TOL)
