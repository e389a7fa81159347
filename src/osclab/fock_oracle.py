"""Independent brute-force route on truncated Fock spaces.

Everything the closed-form layer computes with displacement algebra is
recomputed here with dense matrices on a tensor product of truncated
one-mode spaces, in the normal-mode basis where the Hamiltonian is
diagonal.  One-mode Weyl operators come from exponentiating the Hermitian
generator (conj(z) a + z a*)/sqrt(2); many-body operators are Kronecker
products.  Intended for tiny systems (at most three modes) as an oracle
for the exact formulas, never as a production path.  ``correlation_series``
is a second reference of the same kind: the dynamic correlation summed
over intermediate occupation states instead of in closed form.

The regime projection keeps modes outside the localized set at occupation
zero.  An optional per-mode occupation cutoff confines operators to a low
band where the ambient truncation is irrelevant; note that compressing a
Weyl operator to such a band distorts commutator *norms* near the band
edge at the same order as the commutator itself, so norm-level agreement
with the closed forms holds only for small displacements (expectation
values and low-band matrix elements are far more forgiving).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .anderson import SpectralData, localized_modes
from .errors import BudgetError
from .freeboson import v_map
from .weyl import _check_alpha, _split_vmap, matrix_element_1d

DEFAULT_BUDGET = 20736


@dataclass(frozen=True)
class TruncationSpec:
    """Size of the truncated tensor space and of the regime projection."""

    per_mode_dim: int
    mode_count: int
    occupation_cutoff: int | None = None
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.per_mode_dim < 2:
            raise ValueError("per-mode dimension must be at least 2")
        if self.mode_count < 1:
            raise ValueError("mode count must be positive")
        if self.occupation_cutoff is not None and self.occupation_cutoff < 0:
            raise ValueError("occupation cutoff must be nonnegative")
        if self.per_mode_dim**self.mode_count > self.budget:
            raise BudgetError(
                f"tensor dimension {self.per_mode_dim}**{self.mode_count} exceeds budget {self.budget}"
            )

    @property
    def dim(self) -> int:
        return self.per_mode_dim**self.mode_count


def ladder_matrices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated annihilation/creation pair: a|k> = sqrt(k)|k-1>."""
    if dim < 2:
        raise ValueError("need at least two levels")
    a = np.zeros((dim, dim))
    for k in range(1, dim):
        a[k - 1, k] = sqrt(k)
    return a, a.T.copy()


def weyl_matrix_1d_oracle(z: complex, dim: int) -> np.ndarray:
    """exp(i (conj(z) a + z a*) / sqrt(2)) via eigendecomposition of the generator."""
    z = complex(z)
    if abs(z) ** 2 / 2.0 > dim / 4.0:
        warnings.warn(
            f"displacement |z|^2/2 = {abs(z)**2/2:.2f} is large for dimension {dim}",
            stacklevel=2,
        )
    a, adag = ladder_matrices(dim)
    gen = (np.conj(z) * a + z * adag) / sqrt(2.0)
    evals, vecs = np.linalg.eigh(gen)
    w = (vecs * np.exp(1j * evals)) @ vecs.conj().T
    tail = np.max(np.abs(w[dim - 1, : max(1, dim // 2)]))
    if tail > 1e-10:
        warnings.warn(
            f"truncation leakage {tail:.2e} into the last basis state", stacklevel=2
        )
    return w


def _kron_chain(mats) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


class OracleBundle:
    """Dense operators of a small system in the normal-mode tensor basis."""

    def __init__(self, spec: SpectralData, lambda0: float, trunc: TruncationSpec):
        if trunc.mode_count != spec.n:
            raise ValueError("truncation mode count must match the spectral data")
        if spec.n > 3:
            raise ValueError("oracle supports at most three modes")
        self.spec = spec
        self.lambda0 = float(lambda0)
        self.trunc = trunc
        d, m = trunc.per_mode_dim, trunc.mode_count

        self.occupations = np.stack(
            np.unravel_index(np.arange(d**m), (d,) * m), axis=1
        ).astype(int)
        self.energies = (self.occupations * 2 + 1) @ spec.gammas

        S = localized_modes(spec, lambda0)
        self.mode_mask = np.zeros(m, dtype=bool)
        self.mode_mask[S] = True
        in_regime = np.all(self.occupations[:, ~self.mode_mask] == 0, axis=1)
        if trunc.occupation_cutoff is not None:
            in_regime &= np.max(self.occupations, axis=1) <= trunc.occupation_cutoff
        self.p_diag = in_regime.astype(float)

        eye = np.eye(d)
        a, adag = ladder_matrices(d)
        self._a = [
            _kron_chain([a if j == i else eye for j in range(m)]) for i in range(m)
        ]
        self._adag = [op.T.copy() for op in self._a]

    # -- states ------------------------------------------------------------

    def state_index(self, alpha) -> int:
        alpha = np.asarray(alpha, dtype=int)
        d, m = self.trunc.per_mode_dim, self.trunc.mode_count
        if alpha.shape != (m,) or np.any(alpha < 0) or np.any(alpha >= d):
            raise ValueError("occupation vector outside the truncated space")
        return int(np.ravel_multi_index(tuple(alpha), (d,) * m))

    def psi(self, alpha) -> np.ndarray:
        v = np.zeros(self.trunc.dim, dtype=complex)
        v[self.state_index(alpha)] = 1.0
        return v

    # -- operators -----------------------------------------------------------

    def position(self, x: int) -> np.ndarray:
        """q_x = sum_j phi_j(x) gamma_j^{-1/2} (a_j + a_j*) / sqrt(2)."""
        coef = self.spec.modes[int(x)] / np.sqrt(self.spec.gammas) / sqrt(2.0)
        out = np.zeros((self.trunc.dim, self.trunc.dim), dtype=complex)
        for j in range(self.spec.n):
            out += coef[j] * (self._a[j] + self._adag[j])
        return out

    def momentum(self, x: int) -> np.ndarray:
        """p_x = -i sum_j phi_j(x) gamma_j^{1/2} (a_j - a_j*) / sqrt(2)."""
        coef = self.spec.modes[int(x)] * np.sqrt(self.spec.gammas) / sqrt(2.0)
        out = np.zeros((self.trunc.dim, self.trunc.dim), dtype=complex)
        for j in range(self.spec.n):
            out += -1j * coef[j] * (self._a[j] - self._adag[j])
        return out

    def weyl_from_modes(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        if z.shape != (self.spec.n,):
            raise ValueError("mode displacement vector has wrong length")
        return _kron_chain([weyl_matrix_1d_oracle(zj, self.trunc.per_mode_dim) for zj in z])

    def weyl(self, f) -> np.ndarray:
        """W(f) as the tensor product over modes of one-mode Weyl matrices."""
        return self.weyl_from_modes(v_map(self.spec, np.asarray(f, dtype=complex)))

    def heisenberg(self, op: np.ndarray, t: float) -> np.ndarray:
        """exp(itH) op exp(-itH); H is diagonal in this basis."""
        phases = np.exp(1j * float(t) * self.energies)
        return (phases[:, None] * op) * np.conj(phases)[None, :]

    def restricted(self, op: np.ndarray) -> np.ndarray:
        """Two-sided projection P op P onto the regime of localized excitations."""
        return (self.p_diag[:, None] * op) * self.p_diag[None, :]

    def band_projector(self, limit: int) -> np.ndarray:
        """Diagonal of the projection onto occupations <= limit within the regime."""
        low = np.max(self.occupations, axis=1) <= int(limit)
        return self.p_diag * low


def build_restricted_operators(
    spec: SpectralData, lambda0: float, trunc: TruncationSpec
) -> OracleBundle:
    return OracleBundle(spec, lambda0, trunc)


def oracle_commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Spectral norm of [a, b]."""
    return float(np.linalg.norm(a @ b - b @ a, 2))


def oracle_expectation(state: np.ndarray, op: np.ndarray) -> complex:
    """<state| op |state>."""
    return complex(np.vdot(state, op @ state))


def correlation_series(
    spec: SpectralData, lambda0: float, alpha, f, g, t: float, beta_cutoff: int
) -> complex:
    """Intermediate-state expansion of the dynamic correlation.

    Sums over occupation vectors beta != alpha with beta_j <= beta_cutoff,
    restricted to modes actually displaced (elsewhere the summand forces
    beta_j = alpha_j).  Converges to ``dynamic_correlation`` as the cutoff
    grows.
    """
    wf, S, mask, cf = _split_vmap(spec, lambda0, f)
    wg, _, _, cg = _split_vmap(spec, lambda0, g)
    alpha = _check_alpha(alpha, spec.n, mask)
    if beta_cutoff < int(alpha.max(initial=0)):
        raise ValueError("beta_cutoff must be at least max(alpha)")
    eta = np.where(mask, np.exp(2j * t * spec.gammas) * wf, 0.0)
    xi = np.where(mask, wg, 0.0)
    active = np.flatnonzero((eta != 0) | (xi != 0))
    full = 1.0 + 0.0j
    diag = 1.0 + 0.0j
    for j in active:
        a = int(alpha[j])
        per_beta = [
            matrix_element_1d(a, b, eta[j]) * matrix_element_1d(b, a, xi[j])
            for b in range(int(beta_cutoff) + 1)
        ]
        full *= sum(per_beta)
        diag *= per_beta[a]
    return cf * cg * (full - diag)
