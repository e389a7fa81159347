"""The brute-force reference layer that the experiment kernels are checked against.

Each object the paper states its bounds through is built here directly, in
its plainest form, for small systems.  Nothing in the pipeline imports this
module, and it imports nothing of the package but ``SpectralData`` and the
error types, so an error in a kernel cannot hide in its reference too.

* Fields f: sites -> C are complex vectors in site order (``delta_field``).
  The real-linear map V sends them to mode space (``v_map``, ``v_inverse``),

      V f = gamma^{-1/2} O^T Re[f] + i gamma^{1/2} O^T Im[f],
      V^{-1} g = O gamma^{1/2} Re[g] + i O gamma^{-1/2} Im[g].

  The Weyl dynamics is f_t = V^{-1} e^{2 i t gamma} V f (``evolve``), and
  the projection onto modes with gamma^2 <= lambda0 is X = V^{-1} 1_S V
  = O 1_S O^T (``project_localized``).  ``neighborhood`` is the
  n-neighborhood of a set of sites.
* One-mode matrix elements (``matrix_element_1d``): for n <= k,

      <n|W_z|k> = sqrt(n!/k!) (i conj(z)/sqrt(2))^{k-n}
                  L_n^{(k-n)}(|z|^2/2) exp(-|z|^2/4),

  and <n|W_z|k> = conj(<k|W_{-z}|n>) for n > k.  Factorials and powers
  are taken in log space; against mpmath the absolute error stays below
  1e-12 for occupations up to 300 and |z| up to 30.  ``diagonal_elements``
  is the row-by-row reference for ``weyl.OccupationFamily``.  Both read
  ``laguerre``, a plain recurrence kept apart from the pipeline's
  ``weyl._laguerre_orders``.
* Dense operators on a tensor product of truncated one-mode spaces, in the
  normal-mode basis where the Hamiltonian is diagonal (``OracleBundle``,
  at most three modes).  One-mode Weyl operators exponentiate the
  Hermitian generator (conj(z) a + z a*)/sqrt(2); many-body operators are
  Kronecker products.  ``correlation_series`` sums the dynamic correlation
  over intermediate occupation states instead of in closed form.

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
from math import lgamma, sqrt

import numpy as np

from .anderson import SpectralData
from .errors import BudgetError


# ---------------------------------------------------------------------------
# Fields, the map V and the free dynamics
# ---------------------------------------------------------------------------

def delta_field(n_sites: int, x: int, amplitude: complex = 1.0) -> np.ndarray:
    """Field equal to ``amplitude`` at site x and zero elsewhere."""
    f = np.zeros(n_sites, dtype=complex)
    f[int(x)] = amplitude
    return f


def neighborhood(box, sites, n: int) -> np.ndarray:
    """All sites of the ``lattice.BoxGeometry`` box within l1 distance n of the given nonempty set."""
    X = np.unique(np.asarray(list(sites), dtype=int))
    if X.size == 0:
        raise ValueError("neighborhood of an empty set is undefined")
    if X[0] < 0 or X[-1] >= box.n_sites:
        raise ValueError("site index outside box")
    if n < 0:
        raise ValueError("n must be nonnegative")
    c = box.coords()
    dist = np.abs(c[:, None, :] - c[X][None, :, :]).sum(axis=2).min(axis=1)
    return np.flatnonzero(dist <= n)


def _every_mode(spec: SpectralData):
    if spec.modes.shape[1] != spec.n:
        raise ValueError(f"V needs all {spec.n} modes, but only {spec.modes.shape[1]} were kept")


def v_map(spec: SpectralData, f: np.ndarray) -> np.ndarray:
    """Mode vector V f.  Real-linear, not complex-linear."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (spec.n,):
        raise ValueError(f"field has shape {f.shape}, expected ({spec.n},)")
    _every_mode(spec)
    re = spec.modes.T @ f.real
    im = spec.modes.T @ f.imag
    return re / np.sqrt(spec.gammas) + 1j * np.sqrt(spec.gammas) * im


def v_inverse(spec: SpectralData, g: np.ndarray) -> np.ndarray:
    """Field V^{-1} g."""
    g = np.asarray(g, dtype=complex)
    if g.shape != (spec.n,):
        raise ValueError(f"mode vector has shape {g.shape}, expected ({spec.n},)")
    _every_mode(spec)
    re = spec.modes @ (np.sqrt(spec.gammas) * g.real)
    im = spec.modes @ (g.imag / np.sqrt(spec.gammas))
    return re + 1j * im


def evolve(spec: SpectralData, f: np.ndarray, t: float) -> np.ndarray:
    """Effective Weyl dynamics f_t = V^{-1} e^{2 i t gamma} V f."""
    return v_inverse(spec, np.exp(2j * float(t) * spec.gammas) * v_map(spec, f))


def project_localized(spec: SpectralData, lambda0: float, f: np.ndarray) -> np.ndarray:
    """X f: spectral projection of the field onto modes with gamma^2 <= lambda0."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (spec.n,):
        raise ValueError(f"field has shape {f.shape}, expected ({spec.n},)")
    phi = spec.modes[:, : spec.localized_count(lambda0)]
    return phi @ (phi.T @ f)


# ---------------------------------------------------------------------------
# Laguerre polynomials and one-mode matrix elements
# ---------------------------------------------------------------------------

def laguerre(n, k: int, x):
    """Generalized Laguerre L_n^{(k)}(x), elementwise over the orders n and the arguments x.

    The three-term recurrence from L_{-1} = 0, L_0 = 1, run up to the
    largest order asked for; each entry keeps the value at its own order.
    """
    n, x = np.broadcast_arrays(np.asarray(n, dtype=int), np.asarray(x, dtype=float))
    if k < 0 or np.any(n < 0):
        raise ValueError("laguerre needs n, k >= 0")
    prev, cur = np.zeros(x.shape), np.ones(x.shape)
    out = cur
    for m in range(int(n.max(initial=0))):
        prev, cur = cur, ((2 * m + k + 1 - x) * cur - (m + k) * prev) / (m + 1)
        out = np.where(n == m + 1, cur, out)
    return float(out) if out.ndim == 0 else out


def matrix_element_1d(n: int, k: int, z: complex) -> complex:
    """<n|W_z|k> for the one-mode Weyl (displacement) operator."""
    if n < 0 or k < 0:
        raise ValueError("occupation numbers must be nonnegative")
    if n > k:
        return np.conj(matrix_element_1d(k, n, -z))
    z = complex(z)
    az = abs(z)
    if az == 0.0:
        return 1.0 + 0.0j if n == k else 0.0 + 0.0j
    p = k - n
    lag = laguerre(n, p, az * az / 2.0)
    if lag == 0.0:
        return 0.0 + 0.0j
    log_mag = (
        0.5 * (lgamma(n + 1) - lgamma(k + 1))
        + p * np.log(az / np.sqrt(2.0))
        - az * az / 4.0
        + np.log(abs(lag))
    )
    unit = 1j * np.conj(z) / az
    return (unit**p) * np.sign(lag) * np.exp(log_mag)


def _half_modulus_sq(zs) -> np.ndarray:
    """|z|^2 / 2, the Laguerre argument of the displacement z."""
    zs = np.asarray(zs, dtype=complex)
    return (zs.real**2 + zs.imag**2) / 2.0


def diagonal_elements(alphas, zs) -> np.ndarray:
    """<alpha_j|W_{z_j}|alpha_j> = L_{alpha_j}(|z_j|^2/2) exp(-|z_j|^2/4), per mode.

    ``zs`` may carry extra trailing axes (e.g. a time grid); ``alphas``
    broadcasts against them.  The result is real.
    """
    x = _half_modulus_sq(zs)
    alphas = np.asarray(alphas, dtype=int)
    while alphas.ndim < x.ndim:
        alphas = alphas[..., None]
    return laguerre(alphas, 0, x) * np.exp(-x / 2.0)


# ---------------------------------------------------------------------------
# Dense operators on truncated Fock spaces
# ---------------------------------------------------------------------------

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


#: How far the block of W a caller reads may move when the truncation doubles before it is
#: warned that the block is not the untruncated operator's.
LEAKAGE_TOL = 1e-10


def _truncated_weyl(z: complex, dim: int) -> np.ndarray:
    a, adag = ladder_matrices(dim)
    gen = (np.conj(z) * a + z * adag) / sqrt(2.0)
    evals, vecs = np.linalg.eigh(gen)
    return (vecs * np.exp(1j * evals)) @ vecs.conj().T


def weyl_matrix_1d_oracle(z: complex, dim: int, reads: int | None = None) -> np.ndarray:
    """exp(i (conj(z) a + z a*) / sqrt(2)) on the lowest ``dim`` levels, via eigendecomposition of the generator.

    The caller reads the block of the lowest ``reads`` levels (by default dim // 2; 0 for a
    caller that reads only properties of the truncated matrix itself).  When that block moves
    by more than LEAKAGE_TOL as the truncation doubles, a UserWarning says that it is not the
    block of the untruncated operator.
    """
    z = complex(z)
    if abs(z) ** 2 / 2.0 > dim / 4.0:
        warnings.warn(
            f"displacement |z|^2/2 = {abs(z)**2/2:.2f} is large for dimension {dim}",
            stacklevel=2,
        )
    w = _truncated_weyl(z, dim)
    block = slice(min(dim // 2 if reads is None else int(reads), dim))
    leak = np.max(np.abs(w[block, block] - _truncated_weyl(z, 2 * dim)[block, block]), initial=0.0)
    if leak > LEAKAGE_TOL:
        warnings.warn(
            f"truncation leakage {leak:.2e} into the lowest {block.stop} of {dim} levels", stacklevel=2
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
        self.energies = (2 * self.occupations + 1) @ spec.gammas
        self.mode_mask = np.arange(m) < spec.localized_count(lambda0)
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

    def weyl(self, f, reads: int | None = None) -> np.ndarray:
        """W(f) as the tensor product over modes of one-mode Weyl matrices of V f; ``reads`` as there."""
        z = v_map(self.spec, np.asarray(f, dtype=complex))
        return _kron_chain([weyl_matrix_1d_oracle(zj, self.trunc.per_mode_dim, reads) for zj in z])

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
    mask = np.arange(spec.n) < spec.localized_count(lambda0)
    tail = np.sum(np.abs(w[~mask]) ** 2)
    return w, mask, float(np.exp(-0.25 * tail))


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
    wf, mask, cf = _split_vmap(spec, lambda0, f)
    wg, _, cg = _split_vmap(spec, lambda0, g)
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
