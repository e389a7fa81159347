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
``diagonal_elements`` is the row-by-row reference for the batched
``weyl.OccupationFamily``: one Laguerre value per mode, no log space.

The regime projection keeps modes outside the localized set at occupation
zero.  An optional per-mode occupation cutoff confines operators to a low
band where the ambient truncation is irrelevant.  Truncating a Weyl
operator, or compressing it to such a band, distorts commutator *norms* at
the band edge at the same order as the commutator itself, whatever the
size of the displacements: the operator norm of a truncated commutator
reads the edge, not the exact value.  Compare the action on low-occupation
states instead, such as ||[A, B] psi_alpha||, expectation values or
low-band matrix elements; those agree with the exact forms up to the
truncation error of the states involved.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from math import sqrt

import numpy as np

from .anderson import SpectralData, localized_modes
from .errors import BudgetError
from .freeboson import v_map
from .weyl import _half_modulus_sq, _laguerre_orders, matrix_element_1d

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

    @cached_property
    def _a(self) -> list:
        """Annihilation operator of each mode, built on first use: only q and p need them."""
        d, m = self.trunc.per_mode_dim, self.trunc.mode_count
        eye = np.eye(d)
        a, _ = ladder_matrices(d)
        return [_kron_chain([a if j == i else eye for j in range(m)]) for i in range(m)]

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
            out += coef[j] * (self._a[j] + self._a[j].T)
        return out

    def momentum(self, x: int) -> np.ndarray:
        """p_x = -i sum_j phi_j(x) gamma_j^{1/2} (a_j - a_j*) / sqrt(2)."""
        coef = self.spec.modes[int(x)] * np.sqrt(self.spec.gammas) / sqrt(2.0)
        out = np.zeros((self.trunc.dim, self.trunc.dim), dtype=complex)
        for j in range(self.spec.n):
            out += -1j * coef[j] * (self._a[j] - self._a[j].T)
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


def oracle_expectation(state: np.ndarray, op: np.ndarray) -> complex:
    """<state| op |state>."""
    return complex(np.vdot(state, op @ state))


def _split_vmap(spec: SpectralData, lambda0: float, f):
    """V f together with the localized-mode mask and the constant C_f."""
    w = v_map(spec, np.asarray(f, dtype=complex))
    S = localized_modes(spec, lambda0)
    mask = np.zeros(spec.n, dtype=bool)
    mask[S] = True
    tail = np.sum(np.abs(w[~mask]) ** 2)
    return w, S, mask, float(np.exp(-0.25 * tail))


def _check_alpha(alpha, n: int, S_mask: np.ndarray) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=int)
    if alpha.shape != (n,):
        raise ValueError("occupation vector must have one entry per mode")
    if np.any(alpha < 0):
        raise ValueError("occupations must be nonnegative")
    if np.any(alpha[~S_mask] != 0):
        raise ValueError("occupation vector must be supported on the localized modes")
    return alpha


def correlation_series(
    spec: SpectralData, lambda0: float, alpha, f, g, t: float, beta_cutoff: int
) -> complex:
    """Intermediate-state expansion of the dynamic correlation.

    Sums over occupation vectors beta != alpha with beta_j <= beta_cutoff,
    restricted to modes actually displaced (elsewhere the summand forces
    beta_j = alpha_j).  Converges, as the cutoff grows, to the closed form
    that the correlations kernel evaluates.
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


def _laguerre_plain(ns: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """L_{ns}^{(0)}(xs) elementwise, for arrays of orders and arguments."""
    ns = np.asarray(ns, dtype=int)
    xs = np.asarray(xs, dtype=float)
    ns, xs = np.broadcast_arrays(ns, xs)
    out = np.ones(xs.shape, dtype=float)
    top = int(ns.max()) if ns.size else 0
    for m, cur in _laguerre_orders(top, xs):
        out = np.where(ns == m, cur, out)
    return out


def diagonal_elements(alphas, zs) -> np.ndarray:
    """<alpha_j|W_{z_j}|alpha_j> = L_{alpha_j}(|z_j|^2/2) exp(-|z_j|^2/4), per mode.

    ``zs`` may carry extra trailing axes (e.g. a time grid); ``alphas``
    broadcasts against them.  The result is real.
    """
    x = _half_modulus_sq(zs)
    alphas = np.asarray(alphas, dtype=int)
    while alphas.ndim < x.ndim:
        alphas = alphas[..., None]
    return _laguerre_plain(alphas, x) * np.exp(-x / 2.0)
