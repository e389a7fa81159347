"""Disorder sampling and spectra of the effective Hamiltonian h = h_0 + k.

The random potential k is i.i.d. per site with a bounded density on
(0, k_max]; the default is uniform.  Spectra come in two forms.
``spectrum`` returns a ``Spectrum``: the ascending eigenvalues and the
frequencies gamma_j, their positive square roots, checked against the
invariants tr h and ||h||_F^2.  It serves the eigenvalue-only statistics
(counting function, energy density, gaps).  ``diagonalize`` returns
``SpectralData``, a ``Spectrum`` that also carries the eigenvectors a
regime needs.  ``assemble`` returns h as a ``Tridiagonal`` band for every
box with nu = 1, where h is a Jacobi matrix, and as a dense array
otherwise.  The solver follows the type of h and nothing else; no count of
nonzeros guesses its structure.  A band goes to LAPACK's ``dsterf`` and
``dstevd`` (``_lapack``, the library numpy links), without the O(n^3)
reduction of ``eigvalsh``/``eigh`` and with O(n) validation and
invariants.  A dense array goes to ``eigvalsh`` and, for eigenpairs, is
reduced once to a band T = Q^T h Q (``dsytrd``), whose eigenpairs
``dstevd`` finds; ``dormtr`` applies Q to just the eigenvectors wanted.
Those are the three steps of ``dsyevd``, the routine ``eigh`` calls, so
every full solve returns the bits of ``eigvalsh``/``eigh`` on the dense h,
and those serve alone where the routines are not bound.

The paper's bounds read the localized modes S = {j : lambda_j <= lambda0}
(``Spectrum.localized_count``, the one definition of S) and, through
C_f = exp(-||1_{S^c} V f||^2 / 4), the tails
tau(x) = sum_{j not in S} phi_j(x)^2 / gamma_j.  ``diagonalize(h,
lambda0=..., tails=...)`` fixes the regime once: its ``SpectralData`` holds
Phi_S and, when asked, tau at every site.  Its accuracy contract, with
scale = max|h_ij| and tol = RECONSTRUCTION_RTOL:

* Full decomposition (a band; numpy's ``eigh``; a dense h with |S| = n or
  with ``tails=True``): every mode is formed and
  max|O G^2 O^T - h| <= tol * scale over all n^2 entries.
* Window (a dense h with |S| < n and no tails), whose checks read only the
  band and the columns of S: the invariants of ``spectrum`` hold on all n
  eigenvalues; max|T Z - Z Lambda| <= tol * scale over all n eigenvectors Z
  of the band, which covers the columns outside S at O(n^2);
  max|h Phi_S - Phi_S Lambda_S| <= tol * scale; and
  max|Phi_S^T Phi_S - I| <= tol.

A failure, a NaN included, raises NumericError.  ``eigencorrelator_profile``
evaluates the per-realization localization kernel

    Q_s(x, y) = sum_{j in S} gamma_j^s |phi_j(x)| |phi_j(y)|,

the exact value of the supremum over Borel functions |u| <= 1 of
|<delta_x, h^{s/2} u(h) X delta_y>| when the spectrum is simple.
``propagator_sums`` evaluates those bilinear forms for u = cos or sin of
2t sqrt(h) on a time grid; the commutator kernels are built from them.
Both read S from the ``SpectralData`` they are given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _lapack
from .errors import ConfigError, NumericError
from .lattice import BoxGeometry, graph_laplacian, laplacian_diagonal

#: Accuracy tolerance of the eigensolvers, relative to max|h_ij|.
RECONSTRUCTION_RTOL = 1e-10

#: Relative gap below which a spectrum is flagged as degenerate.
DEGENERACY_RTOL = 1e-12

#: Rows and columns per tile of the symmetry test and of the reconstruction
#: check, which thereby allocate no n x n temporary (128 measured fastest
#: for the symmetry test at n = 400 and 1600 on a 2-vCPU host).
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


@dataclass(frozen=True)
class Tridiagonal:
    """A symmetric tridiagonal h, kept as its band: diagonal d and off-diagonal e.

    Both are read-only float copies, len(e) = len(d) - 1 >= 0.
    ``np.asarray(h)`` gives the dense matrix.
    """

    d: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        d, e = (np.array(v, dtype=float) for v in (self.d, self.e))
        if d.ndim != 1 or d.size == 0 or e.shape != (d.size - 1,):
            raise ValueError(f"need a nonempty diagonal and an off-diagonal one shorter, got {d.shape} and {e.shape}")
        for name, arr in (("d", d), ("e", e)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.d.size, self.d.size)

    def lower_rows(self, start: int, stop: int) -> np.ndarray:
        """Dense rows start..stop-1 of h, columns 0..stop-1."""
        block = np.zeros((stop - start, stop))
        square = block[:, start:]
        idx = np.arange(stop - start)
        square[idx, idx] = self.d[start:stop]
        square[idx[1:], idx[:-1]] = self.e[start : stop - 1]
        square[idx[:-1], idx[1:]] = self.e[start : stop - 1]
        if start > 0:
            block[0, start - 1] = self.e[start - 1]
        return block

    def __array__(self, dtype=None, copy=None):
        h = self.lower_rows(0, self.d.size)
        return h if dtype is None else h.astype(dtype, copy=False)


def assemble(box: BoxGeometry, sample: DisorderSample, bc: str = "neumann"):
    """Effective Hamiltonian h = Laplacian(bc) + diag(k).

    A ``Tridiagonal`` when nu = 1, built in O(n); a dense array otherwise.
    """
    k = np.asarray(sample.k, dtype=float)
    if k.shape != (box.n_sites,):
        raise ValueError(f"sample has {k.shape} entries for a box of {box.n_sites} sites")
    diagonal = laplacian_diagonal(box, bc) + k
    if box.nu == 1:
        return Tridiagonal(diagonal, np.full(box.n_sites - 1, -1.0))
    return graph_laplacian(box, diagonal)


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

    def localized_count(self, lambda0: float) -> int:
        """|S| for S = {j : lambda_j <= lambda0}, a prefix of the ascending spectrum."""
        if not lambda0 >= 0:
            raise ValueError(f"lambda0 must be nonnegative, got {lambda0!r}")
        return int(np.searchsorted(self.eigenvalues, lambda0, side="right"))


@dataclass(frozen=True)
class SpectralData(Spectrum):
    """The regime of localized excitations of the effective Hamiltonian.

    ``modes`` is Phi_S (n x |S|): its columns are the orthonormal real
    eigenvectors of the |S| lowest ``eigenvalues``, so that
    modes.T @ h @ modes = diag(eigenvalues[:|S|]), and |S| = n unless
    ``diagonalize`` was given a finite lambda0.  ``tails`` holds
    tau(x) = sum_{j not in S} phi_j(x)^2 / gamma_j at every site x, or None
    when ``diagonalize`` was not asked for it.
    """

    modes: np.ndarray = field(kw_only=True)
    tails: np.ndarray | None = field(default=None, kw_only=True)

    @property
    def localized_gammas(self) -> np.ndarray:
        """gamma_S, the frequencies of the columns of ``modes``."""
        return self.gammas[: self.modes.shape[1]]

    def localized_count(self, lambda0: float) -> int:
        count = super().localized_count(lambda0)
        if count > self.modes.shape[1]:
            raise ValueError(f"lambda0 = {lambda0} reaches {count} modes, but only {self.modes.shape[1]} were kept")
        return count


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


def _eigvalsh(h):
    if isinstance(h, Tridiagonal) and _lapack.binding() is not None:
        return _lapack.dsterf(h.d, h.e), None
    return np.linalg.eigvalsh(np.asarray(h)), None


class _Reduction(NamedTuple):
    """A dense h reduced to its band T = Q^T h Q (``_lapack.dsytrd``), with T's eigenvectors Z in F order."""

    a: np.ndarray
    tau: np.ndarray
    d: np.ndarray
    e: np.ndarray
    z: np.ndarray


def _eigh(h):
    """(eigenvalues, C-ordered modes) of a band, or of any h when nothing is bound;
    (eigenvalues, ``_Reduction``) of a dense h, whose modes ``diagonalize`` forms as needed."""
    if _lapack.binding() is None:
        return np.linalg.eigh(np.asarray(h))
    if isinstance(h, Tridiagonal):
        evals, z = _lapack.dstevd(h.d, h.e)
        # eigh returns C-ordered modes; F-ordered ones send later products down other BLAS paths
        return evals, np.ascontiguousarray(z)
    a, d, e, tau = _lapack.dsytrd(h)
    evals, z = _lapack.dstevd(d, e)
    return evals, _Reduction(a, tau, d, e, z)


def _reconstruction_error(h, evals: np.ndarray, modes: np.ndarray) -> float:
    """max|O diag(evals) O^T - h| over all n^2 entries, one row tile of the lower triangle at a time.

    Tile I is (O_I diag(evals)) O_{<=I}^T.  The product is symmetric, so each
    tile stands for its mirror too and is compared with both h_{I,<=I} and
    h_{<=I,I}^T; for a ``Tridiagonal`` the two are the same entries, and the
    tile is compared with the band once.  No n x n temporary is formed.  A
    NaN anywhere gives NaN.
    """
    n = evals.size
    errs = []
    for i in range(0, n, SYMMETRY_TILE):
        rows, end = slice(i, i + SYMMETRY_TILE), min(i + SYMMETRY_TILE, n)
        tile = (modes[rows] * evals) @ modes[:end].T
        blocks = (h.lower_rows(i, end),) if isinstance(h, Tridiagonal) else (h[rows, :end], h[:end, rows].T)
        diff = np.empty_like(tile)
        for block in blocks:
            np.subtract(tile, block, out=diff)
            errs += [diff.max(), -diff.min()]
    return float(np.max(errs))


def _solve_checked(h, solve):
    """Run ``solve(h) -> (eigenvalues, extra)`` on a validated symmetric h.

    A ``Tridiagonal`` is symmetric by construction and is checked in O(n);
    any other h is taken as a float array.  Raises ValueError unless h is
    square, finite and symmetric, and NumericError when the solver fails or
    finds an eigenvalue below the round-off band -1e-9 * max|h_ij|;
    eigenvalues inside the band are clamped to zero (the model itself is
    positive).  Returns (h, scale, eigenvalues, extra) with scale = max|h_ij|.
    """
    band = isinstance(h, Tridiagonal)
    if band:
        scale = np.max([np.abs(h.d).max(), np.abs(h.e).max(initial=0.0)])
    else:
        h = np.asarray(h, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("h must be a square matrix")
        scale = max(h.max(), -h.min())
    # every maximum here propagates NaN, so a non-finite entry makes scale non-finite
    scale = float(scale)
    if not np.isfinite(scale):
        raise ValueError("h must have finite entries")
    scale = scale or 1.0
    if not band and _max_asymmetry(h) > 1e-12 * scale:
        raise ValueError("h must be symmetric")
    try:
        evals, extra = solve(h)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed on a {h.shape[0]}x{h.shape[0]} matrix: {exc}") from exc
    if evals[0] < -1e-9 * scale:
        raise NumericError(f"matrix has a negative eigenvalue {evals[0]:.3e}; not a valid h")
    return h, scale, np.clip(evals, 0.0, None), extra


def _check_invariants(h, evals: np.ndarray, scale: float):
    """Raise NumericError unless sum_j lambda_j and sum_j lambda_j^2 match tr h and ||h||_F^2."""
    n = evals.size
    if isinstance(h, Tridiagonal):
        trace, frob = float(np.sum(h.d)), float(np.dot(h.d, h.d) + 2.0 * np.dot(h.e, h.e))
    else:
        trace, frob = float(np.trace(h)), float(np.vdot(h, h))
    trace_err = abs(float(np.sum(evals)) - trace)
    frob_err = abs(float(np.dot(evals, evals)) - frob)
    # written so that a NaN error fails the test
    if not (trace_err <= RECONSTRUCTION_RTOL * n * scale and frob_err <= RECONSTRUCTION_RTOL * n * scale**2):
        raise NumericError(
            f"eigenvalues miss the invariants of h: trace error {trace_err:.3e}, "
            f"Frobenius error {frob_err:.3e} (tolerances {RECONSTRUCTION_RTOL:.0e} * n * scale, * n * scale^2)"
        )


def spectrum(h, bc: str = "neumann") -> Spectrum:
    """Eigenvalues of a symmetric h (a ``Tridiagonal`` or a matrix), without eigenvectors, checked for accuracy.

    The accuracy contract is the pair of invariants
    |sum_j lambda_j - tr h| <= RECONSTRUCTION_RTOL * n * scale and
    |sum_j lambda_j^2 - ||h||_F^2| <= RECONSTRUCTION_RTOL * n * scale^2,
    with scale = max|h_ij|; a violation raises NumericError.  For a band,
    tr h = sum d and ||h||_F^2 = sum d^2 + 2 sum e^2.  Validation and the
    clamping of round-off negatives are those of ``_solve_checked``.
    """
    h, scale, evals, _ = _solve_checked(h, _eigvalsh)
    _check_invariants(h, evals, scale)
    return Spectrum(eigenvalues=evals, gammas=np.sqrt(evals), bc=bc)


def _band_residual(d: np.ndarray, e: np.ndarray, z: np.ndarray, evals: np.ndarray) -> float:
    """max|T Z - Z diag(evals)| for the band T with diagonal d and off-diagonal e, SYMMETRY_TILE columns at a time."""
    errs = [0.0]
    for j in range(0, evals.size, SYMMETRY_TILE):
        cols = slice(j, j + SYMMETRY_TILE)
        block = z[:, cols]
        res = block * (d[:, None] - evals[cols])
        res[1:] += e[:, None] * block[:-1]
        res[:-1] += e[:, None] * block[1:]
        errs += [res.max(), -res.min()]
    return float(np.max(errs))


def _require(err: float, tol: float, what: str):
    if not err <= tol:  # a NaN error fails too
        raise NumericError(f"{what} {err:.3e} exceeds {tol:.3e}")


def _max_abs(x: np.ndarray) -> float:
    return float(np.max(np.abs(x), initial=0.0))


def _window(h, scale, evals, reduction: _Reduction, count: int) -> np.ndarray:
    """The modes of S of a dense h from its reduction, checked by the window contract.

    ``dormtr`` turns the first ``count`` columns of Z into Phi_S in place;
    no other column of Z is back-transformed.
    """
    a, tau, d, e, z = reduction
    tol = RECONSTRUCTION_RTOL * scale
    _check_invariants(h, evals, scale)
    _require(_band_residual(d, e, z, evals), tol, "band residual max|T Z - Z Lambda|")
    _lapack.dormtr(a, tau, z[:, :count])
    modes = np.ascontiguousarray(z[:, :count])
    residual = h @ modes
    residual -= modes * evals[:count]
    _require(_max_abs(residual), tol, "residual max|h Phi_S - Phi_S Lambda_S|")
    _require(_max_abs(modes.T @ modes - np.eye(count)), RECONSTRUCTION_RTOL, "orthonormality max|Phi_S^T Phi_S - I|")
    return modes


def diagonalize(h, bc: str = "neumann", lambda0: float = np.inf, tails: bool = False) -> SpectralData:
    """The regime lambda0 of a symmetric h (a ``Tridiagonal`` or a matrix), checked for accuracy.

    Keeps Phi_S, the eigenvectors of the eigenvalues <= lambda0 (every one
    by default), and with ``tails`` also tau at every site.  A dense h with
    modes left out and no tails runs the window: only the columns of S are
    back-transformed and checked, by the window contract of the module
    docstring.  Every other h runs the full decomposition, and NumericError
    is raised if the reconstruction ||O G^2 O^T - h||_max exceeds
    RECONSTRUCTION_RTOL * max|h_ij|; that check runs over row tiles of
    SYMMETRY_TILE rows of the lower triangle (``_reconstruction_error``), so
    it allocates no n x n temporary.  Validation and the clamping of
    round-off negatives are those of ``_solve_checked``.
    """
    h, scale, evals, vecs = _solve_checked(h, _eigh)
    n = evals.size
    gammas = np.sqrt(evals)
    count = Spectrum(eigenvalues=evals, gammas=gammas).localized_count(lambda0)
    if isinstance(vecs, _Reduction):
        if count < n and not tails:
            return SpectralData(eigenvalues=evals, gammas=gammas, modes=_window(h, scale, evals, vecs, count), bc=bc)
        a, tau, _, _, vecs = vecs
        # all n columns: dsyevd's own back-transformation
        _lapack.dormtr(a, tau, vecs)
        del a, tau
        vecs = np.ascontiguousarray(vecs)
    err = _reconstruction_error(h, evals, vecs)
    if not err <= RECONSTRUCTION_RTOL * scale:  # a NaN error fails too
        raise NumericError(f"reconstruction error {err:.3e} exceeds {RECONSTRUCTION_RTOL:.0e} * max|h_ij|")
    site_tails = np.square(vecs[:, count:]) @ (1.0 / gammas[count:]) if tails else None
    # Phi_S is a view of the full decomposition, not a copy
    modes = vecs if count == n else vecs[:, :count]
    return SpectralData(eigenvalues=evals, gammas=gammas, modes=modes, tails=site_tails, bc=bc)


def eigencorrelator_profile(spec: SpectralData, s: int, x: int) -> np.ndarray:
    """Vector of Q_s(x, y) over all sites y, for s in {-1, 0, +1}; zero when S is empty."""
    if s not in (-1, 0, 1):
        raise ValueError("power s must be -1, 0 or +1")
    n = spec.n
    if not 0 <= int(x) < n:
        raise ValueError(f"site index {x} outside 0..{n - 1}")
    gam = spec.localized_gammas
    if gam.size == 0:
        return np.zeros(n)
    phi = np.abs(spec.modes)
    weights = gam**s if s != 0 else np.ones(gam.size)
    return phi @ (weights * phi[int(x)])


def propagator_sums(spec: SpectralData, x: int, sites, times, powers) -> tuple:
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
    gam = spec.localized_gammas
    prod = spec.modes[int(x)][:, None] * spec.modes[sites].T  # (modes, sites)
    ang = 2.0 * np.asarray(times)[:, None] * gam[None, :]
    cos = np.cos(ang) if 0 in powers else None
    sin = np.sin(ang) if any(s != 0 for s in powers) else None
    return tuple((cos if s == 0 else sin) @ (prod * gam[:, None] ** s) for s in powers)
