"""Disorder sampling and spectra of the effective Hamiltonian h = h_0 + k.

The random potential k is i.i.d. per site with a bounded density on
(0, k_max]; the default is uniform.  Spectra come from dense symmetric
eigensolvers in two forms.  ``spectrum`` (``eigvalsh``) returns a
``Spectrum``: the ascending eigenvalues and the frequencies gamma_j, their
positive square roots, checked against the O(n^2) invariants tr h and
||h||_F^2.  It serves the eigenvalue-only statistics (counting function,
energy density, gaps).  ``diagonalize`` (``eigh``) returns ``SpectralData``,
a ``Spectrum`` that also carries the orthogonal mode matrix, checked by
reconstructing h.  ``eigencorrelator`` evaluates the per-realization
localization kernel

    Q_s(x, y) = sum_{j in S} gamma_j^s |phi_j(x)| |phi_j(y)|,

the exact value of the supremum over Borel functions |u| <= 1 of
|<delta_x, h^{s/2} u(h) X delta_y>| when the spectrum is simple.
``propagator_sums`` evaluates those bilinear forms for u = cos or sin of
2t sqrt(h) on a time grid; the commutator kernels are built from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .lattice import BoxGeometry, dirichlet_laplacian, neumann_laplacian

#: Accuracy tolerance of the eigensolvers, relative to max|h_ij|.
RECONSTRUCTION_RTOL = 1e-10

#: Relative gap below which a spectrum is flagged as degenerate.
DEGENERACY_RTOL = 1e-12

#: Rows and columns per tile of the symmetry test, which thereby allocates
#: no n x n temporary (128 measured fastest at n = 400 and 1600 on a 2-vCPU host).
SYMMETRY_TILE = 128


@dataclass(frozen=True)
class DisorderConfig:
    """Distribution of the i.i.d. potential entries and the master seed."""

    k_max: float
    master_seed: int
    kind: str = "uniform"
    # Inverse-CDF table for a custom bounded density: k = interp(u, table_u, table_k).
    table_u: tuple[float, ...] | None = None
    table_k: tuple[float, ...] | None = None

    def __post_init__(self):
        if not 0 < self.k_max < np.inf:
            raise ConfigError(f"k_max must be positive and finite, got {self.k_max!r}")
        if self.kind not in ("uniform", "inverse_cdf"):
            raise ConfigError(f"unknown disorder kind {self.kind!r}")
        if self.kind == "inverse_cdf":
            if self.table_u is None or self.table_k is None:
                raise ConfigError("inverse_cdf disorder needs table_u and table_k")
            u = np.asarray(self.table_u, dtype=float)
            k = np.asarray(self.table_k, dtype=float)
            if u.ndim != 1 or u.shape != k.shape or u.size < 2:
                raise ConfigError("inverse-CDF table must be two equal-length vectors")
            if np.any(np.diff(u) < 0) or np.any(np.diff(k) < 0):
                raise ConfigError("inverse-CDF table must be monotone")
            if u[0] != 0.0 or u[-1] != 1.0:
                raise ConfigError("table_u must span [0, 1]")
            if k[0] < 0.0 or k[-1] > self.k_max:
                raise ConfigError("table_k values must lie in [0, k_max]")


@dataclass(frozen=True)
class DisorderSample:
    """One realization of the potential, reproducible from (seed, index)."""

    k: np.ndarray
    sample_index: int


def sample_disorder(config: DisorderConfig, box: BoxGeometry, index: int) -> DisorderSample:
    """Draw the potential for realization ``index``.

    The stream is seeded with (master_seed, index), so any sample can be
    regenerated independently of execution order.  Exact zero draws are
    resampled: the model requires k > 0 pointwise.
    """
    rng = np.random.default_rng([int(config.master_seed), int(index)])
    n = box.n_sites
    if config.kind == "uniform":
        draw = lambda size: rng.uniform(0.0, config.k_max, size=size)
    else:
        u_tab = np.asarray(config.table_u, dtype=float)
        k_tab = np.asarray(config.table_k, dtype=float)
        draw = lambda size: np.interp(rng.uniform(0.0, 1.0, size=size), u_tab, k_tab)
    k = draw(n)
    while True:
        bad = np.flatnonzero(k <= 0.0)
        if bad.size == 0:
            break
        k[bad] = draw(bad.size)
    return DisorderSample(k=k, sample_index=int(index))


def assemble(box: BoxGeometry, sample: DisorderSample, bc: str = "neumann") -> np.ndarray:
    """Effective Hamiltonian h = Laplacian(bc) + diag(k)."""
    k = np.asarray(sample.k, dtype=float)
    if k.shape != (box.n_sites,):
        raise ValueError(f"sample has {k.shape} entries for a box of {box.n_sites} sites")
    if bc == "neumann":
        h = neumann_laplacian(box)
    elif bc == "dirichlet":
        h = dirichlet_laplacian(box)
    else:
        raise ValueError(f"unknown boundary condition {bc!r}")
    h[np.arange(box.n_sites), np.arange(box.n_sites)] += k
    return h


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of the effective Hamiltonian, without eigenvectors.

    ``eigenvalues`` are ascending and ``gammas`` their positive square roots.
    """

    eigenvalues: np.ndarray
    gammas: np.ndarray
    bc: str = "neumann"

    @property
    def n(self) -> int:
        return self.gammas.size

    @property
    def norm(self) -> float:
        """Operator norm of h (largest eigenvalue; h is PSD)."""
        return float(self.eigenvalues[-1])

    def min_gap(self) -> float:
        """Smallest spacing of the eigenvalues of h; inf for a single mode."""
        if self.n < 2:
            return float("inf")
        return float(np.min(np.diff(self.eigenvalues)))

    def flag_degenerate(self, rtol: float = DEGENERACY_RTOL) -> bool:
        """True when two eigenvalues coincide within rtol * ||h||."""
        return self.min_gap() <= rtol * max(self.norm, np.finfo(float).tiny)


@dataclass(frozen=True)
class SpectralData(Spectrum):
    """Eigenpairs of the effective Hamiltonian.

    The columns of ``modes`` are the orthonormal real eigenvectors of the
    ``eigenvalues``, so that modes.T @ h @ modes = diag(eigenvalues).
    """

    modes: np.ndarray = field(kw_only=True)


def _max_asymmetry(h: np.ndarray) -> float:
    """max|h_ij - h_ji| over a finite square matrix, one tile of the upper triangle at a time."""
    n = h.shape[0]
    err = 0.0
    for i in range(0, n, SYMMETRY_TILE):
        rows = slice(i, i + SYMMETRY_TILE)
        for j in range(i, n, SYMMETRY_TILE):
            cols = slice(j, j + SYMMETRY_TILE)
            diff = h[rows, cols] - h[cols, rows].T
            err = max(err, diff.max(), -diff.min())
    return float(err)


def _solve_checked(h, solve):
    """Run ``solve(h) -> (eigenvalues, extra)`` on a validated symmetric matrix.

    Raises ValueError unless h is square, finite and symmetric, and
    NumericError when the solver fails or finds an eigenvalue below the
    round-off band -1e-9 * max|h_ij|; eigenvalues inside the band are clamped
    to zero (the model itself is positive).  Returns (h, scale, eigenvalues,
    extra) with scale = max|h_ij|.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("h must be a square matrix")
    # max and min propagate NaN, so a non-finite entry makes scale non-finite
    scale = float(max(h.max(), -h.min()))
    if not np.isfinite(scale):
        raise ValueError("h must have finite entries")
    scale = scale or 1.0
    if _max_asymmetry(h) > 1e-12 * scale:
        raise ValueError("h must be symmetric")
    try:
        evals, extra = solve(h)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed on a {h.shape[0]}x{h.shape[0]} matrix: {exc}") from exc
    if evals[0] < -1e-9 * scale:
        raise NumericError(f"matrix has a negative eigenvalue {evals[0]:.3e}; not a valid h")
    return h, scale, np.clip(evals, 0.0, None), extra


def spectrum(h: np.ndarray, bc: str = "neumann") -> Spectrum:
    """Eigenvalues of a symmetric matrix, without eigenvectors, checked for accuracy.

    The accuracy contract is the pair of O(n^2) invariants
    |sum_j lambda_j - tr h| <= RECONSTRUCTION_RTOL * n * scale and
    |sum_j lambda_j^2 - ||h||_F^2| <= RECONSTRUCTION_RTOL * n * scale^2,
    with scale = max|h_ij|; a violation raises NumericError.  Validation and
    the clamping of round-off negatives are those of ``_solve_checked``.
    """
    h, scale, evals, _ = _solve_checked(h, lambda m: (np.linalg.eigvalsh(m), None))
    n = h.shape[0]
    trace_err = abs(float(np.sum(evals)) - float(np.trace(h)))
    frob_err = abs(float(np.dot(evals, evals)) - float(np.vdot(h, h)))
    # written so that a NaN error fails the test
    if not (trace_err <= RECONSTRUCTION_RTOL * n * scale and frob_err <= RECONSTRUCTION_RTOL * n * scale**2):
        raise NumericError(
            f"eigenvalues miss the invariants of h: trace error {trace_err:.3e}, "
            f"Frobenius error {frob_err:.3e} (tolerances {RECONSTRUCTION_RTOL:.0e} * n * scale, * n * scale^2)"
        )
    return Spectrum(eigenvalues=evals, gammas=np.sqrt(evals), bc=bc)


def diagonalize(h: np.ndarray, bc: str = "neumann") -> SpectralData:
    """Full eigendecomposition of a symmetric matrix, checked for accuracy.

    Raises NumericError if the reconstruction ||O G^2 O^T - h||_max exceeds
    RECONSTRUCTION_RTOL * max|h_ij|.  Validation and the clamping of
    round-off negatives are those of ``_solve_checked``.
    """
    h, scale, evals, vecs = _solve_checked(h, np.linalg.eigh)
    gammas = np.sqrt(evals)
    # (O G)(O G)^T is a symmetric rank-n update (BLAS syrk), half the flops
    # of a general product; the residual is formed in place
    og = vecs * gammas
    residual = og @ og.T
    del og
    residual -= h
    err = max(residual.max(), -residual.min())
    if not err <= RECONSTRUCTION_RTOL * scale:  # a NaN error fails too
        raise NumericError(f"reconstruction error {err:.3e} exceeds {RECONSTRUCTION_RTOL:.0e} * max|h_ij|")
    return SpectralData(eigenvalues=evals, gammas=gammas, modes=vecs, bc=bc)


def localized_modes(spec: Spectrum, lambda0: float) -> np.ndarray:
    """Indices j with gamma_j^2 <= lambda0 (a prefix, gammas are ascending)."""
    if lambda0 < 0:
        raise ValueError("lambda0 must be nonnegative")
    count = int(np.searchsorted(spec.eigenvalues, lambda0, side="right"))
    return np.arange(count)


def eigencorrelator(spec: SpectralData, lambda0: float, s: int, x: int, y: int) -> float:
    """Q_s(x, y) for s in {-1, 0, +1}; zero when no mode is below lambda0."""
    return float(eigencorrelator_profile(spec, lambda0, s, x)[int(y)])


def eigencorrelator_profile(spec: SpectralData, lambda0: float, s: int, x: int) -> np.ndarray:
    """Vector of Q_s(x, y) over all sites y, for s in {-1, 0, +1}."""
    if s not in (-1, 0, 1):
        raise ValueError("power s must be -1, 0 or +1")
    S = localized_modes(spec, lambda0)
    n = spec.n
    if not 0 <= int(x) < n:
        raise ValueError(f"site index {x} outside 0..{n - 1}")
    if S.size == 0:
        return np.zeros(n)
    phi = np.abs(spec.modes[:, : S.size])  # S is a prefix of the modes
    weights = spec.gammas[: S.size] ** s if s != 0 else np.ones(S.size)
    return phi @ (weights * phi[int(x)])


def propagator_sums(spec: SpectralData, lambda0: float, x: int, sites, times, powers) -> tuple:
    """The sums sum_{j in S} gamma_j^s phi_j(x) phi_j(y) u(2 t gamma_j) for each s in ``powers``.

    u is cos for s = 0 and sin for s = -1, +1, so each sum is the coefficient
    <delta_x, h^{s/2} u(2t sqrt(h)) X delta_y> of a restricted
    position/momentum commutator, and |sum| <= Q_s(x, y) at every t.
    Returns one (times, sites) array per power, in the order of ``powers``;
    at most one sine and one cosine table are built.  ``times`` keeps its
    dtype, so a complex grid gives complex sums.
    """
    n = spec.n
    sites = np.asarray(sites, dtype=int)
    if not 0 <= int(x) < n or np.any((sites < 0) | (sites >= n)):
        raise ValueError(f"site index outside 0..{n - 1}")
    cnt = localized_modes(spec, lambda0).size
    gam = spec.gammas[:cnt]
    prod = spec.modes[int(x), :cnt][:, None] * spec.modes[sites, :cnt].T  # (modes, sites)
    ang = 2.0 * np.asarray(times)[:, None] * gam[None, :]
    cos = np.cos(ang) if 0 in powers else None
    sin = np.sin(ang) if any(s != 0 for s in powers) else None
    return tuple((cos if s == 0 else sin) @ (prod * gam[:, None] ** s) for s in powers)
