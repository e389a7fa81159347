"""Disorder sampling and spectra of the effective Hamiltonian h = h_0 + k.

The random potential k is i.i.d. per site with a bounded density on
(0, k_max]; the default is uniform.  Spectra come in two forms.
``spectrum`` returns a ``Spectrum``: the ascending eigenvalues and the
frequencies gamma_j, their positive square roots, checked against the
invariants tr h and ||h||_F^2.  It serves the eigenvalue-only statistics
(counting function, energy density, gaps).  ``diagonalize`` returns
``SpectralData``, a ``Spectrum`` that also carries the eigenvectors a
regime needs.  ``assemble`` returns h in O(n) memory: as a ``Tridiagonal``
band for every box with nu = 1, where h is a Jacobi matrix, and as a
``Stencil`` (the diagonal on the box's nearest-neighbour graph) otherwise;
both are symmetric by construction, so their validation, scale and
invariants cost O(n), and ``h @ x`` costs O(n) per column.  Any other
array is taken as a dense h.  The solver follows the type of h and nothing
else; no count of nonzeros guesses its structure.  Eigenvalues alone:
a band goes to LAPACK's ``dsterf`` (``_lapack``, the library numpy links),
anything else to ``eigvalsh``.  Eigenpairs: a band is solved as it is; a
stencil or an array is reduced to a band T = Q^T h Q by ``dsytrd``, in place
in the one n x n buffer of the solve (a stencil's dense form, or a copy of
the array), and ``dormtr`` applies Q to just the eigenvectors formed.  Where
the routines are not bound, numpy's ``eigvalsh``/``eigh`` serve alone.

The paper's bounds read the localized modes S = {j : lambda_j <= lambda0}
(``Spectrum.localized_count``, the one definition of S) and, through
C_f = exp(-||1_{S^c} V f||^2 / 4), the tails
tau(x) = sum_{j not in S} phi_j(x)^2 / gamma_j.  ``diagonalize(h,
lambda0=..., tails=...)`` fixes the regime once: its ``SpectralData`` holds
Phi_S and, when asked, tau at every site.  It runs one of two solves; with
scale = max|h_ij| and tol = RECONSTRUCTION_RTOL, their accuracy contracts:

* Full decomposition (|S| = n, or ``tails=True``): eigh's own route,
  ``dstevd`` on the band and ``dormtr`` on all n columns, so eigenvalues
  and modes are the bits of ``eigh`` (of ``np.asarray(h)``).  Every mode is
  formed and max|O G^2 O^T - h| <= tol * scale over all n^2 entries.
  A dense solve holds three n x n arrays at its peak: the reduced h, Z and
  the workspace of ``dstevd``.
* Window (|S| < n and no tails): ``dsterf`` finds all n eigenvalues, the
  bits of ``eigvalsh``, and inverse iteration (``dstein``) the eigenvectors
  of S alone; only those are mapped back.  Inverse iteration can return
  poor vectors without saying so, so they are checked: the invariants of
  ``spectrum`` hold on all n eigenvalues, max|h Phi_S - Phi_S Lambda_S| <=
  tol * scale, and max|Phi_S^T Phi_S - I| <= tol.  Because Q is orthogonal,
  the residual of Phi_S is that of the band's vectors.  A dense window holds
  one n x n array, the reduced h, beside the n x |S| columns.  It pays when
  S is a small part of the spectrum: on a 40 x 40 box ``dsterf`` and
  ``dstein`` together take as long as ``dstevd`` at |S| of about 0.4 n.

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

import functools
from dataclasses import dataclass, field

import numpy as np

from . import _lapack
from .errors import ConfigError, NumericError
from .lattice import BoxGeometry, _graph, laplacian_diagonal

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


class _Structured:
    """An h kept as its diagonal ``d`` and its off-diagonal entries ``e``, symmetric by construction.

    ``lower_rows`` gives dense rows of h, ``np.asarray(h)`` all of them, and
    ``h @ x`` applies h to the columns of x in O(n) per column.
    """

    @property
    def shape(self) -> tuple[int, int]:
        return (self.d.size, self.d.size)

    def __array__(self, dtype=None, copy=None):
        h = self.lower_rows(0, self.d.size)
        return h if dtype is None else h.astype(dtype, copy=False)


@dataclass(frozen=True)
class Tridiagonal(_Structured):
    """A symmetric tridiagonal h, kept as its band: diagonal d and off-diagonal e.

    Both are read-only float copies, len(e) = len(d) - 1 >= 0.
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

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x)
        col = (slice(None),) + (None,) * (x.ndim - 1)
        out = self.d[col] * x
        out[:-1] += self.e[col] * x[1:]
        out[1:] += self.e[col] * x[:-1]
        return out


@dataclass(frozen=True)
class Stencil(_Structured):
    """h = diag(d) - A for the nearest-neighbour adjacency A of a box, kept as the box and d.

    d is a read-only float copy with one entry per site; the -1 entries of h
    sit on the edges of ``lattice._graph``, and ``e`` lists them, one per edge.
    """

    box: BoxGeometry
    d: np.ndarray

    def __post_init__(self):
        d = np.array(self.d, dtype=float)
        if d.shape != (self.box.n_sites,):
            raise ValueError(f"need one diagonal entry per site of the box, got {d.shape} for {self.box.n_sites} sites")
        d.setflags(write=False)
        object.__setattr__(self, "d", d)

    @property
    def e(self) -> np.ndarray:
        return np.full(_graph(self.box)[0].size, -1.0)

    def lower_rows(self, start: int, stop: int) -> np.ndarray:
        """Dense rows start..stop-1 of h, columns 0..stop-1."""
        i, j, _ = _graph(self.box)
        block = np.zeros((stop - start, stop))
        rows = np.arange(start, stop)
        block[rows - start, rows] = self.d[start:stop]
        for r, c in ((i, j), (j, i)):
            keep = (r >= start) & (r < stop) & (c < stop)
            block[r[keep] - start, c[keep]] = -1.0
        return block

    def __matmul__(self, x) -> np.ndarray:
        # on the grid of the box a site's neighbours along an axis are the shifts by one
        x = np.asarray(x)
        grid = x.reshape(self.box.shape + x.shape[1:])
        out = self.d.reshape(self.box.shape + (1,) * (x.ndim - 1)) * grid
        for axis in range(self.box.nu):
            lo = (slice(None),) * axis + (slice(None, -1),)
            hi = (slice(None),) * axis + (slice(1, None),)
            out[lo] -= grid[hi]
            out[hi] -= grid[lo]
        return out.reshape(x.shape)


def assemble(box: BoxGeometry, sample: DisorderSample, bc: str = "neumann"):
    """Effective Hamiltonian h = Laplacian(bc) + diag(k), built in O(n).

    A ``Tridiagonal`` when nu = 1, a ``Stencil`` otherwise.
    """
    k = np.asarray(sample.k, dtype=float)
    if k.shape != (box.n_sites,):
        raise ValueError(f"sample has {k.shape} entries for a box of {box.n_sites} sites")
    diagonal = laplacian_diagonal(box, bc) + k
    if box.nu == 1:
        return Tridiagonal(diagonal, np.full(box.n_sites - 1, -1.0))
    return Stencil(box, diagonal)


def _prefix_count(evals: np.ndarray, lambda0: float) -> int:
    if not lambda0 >= 0:
        raise ValueError(f"lambda0 must be nonnegative, got {lambda0!r}")
    return int(np.searchsorted(evals, lambda0, side="right"))


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
        return _prefix_count(self.eigenvalues, lambda0)


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


def _reduction_buffer(h) -> np.ndarray:
    """A writeable F-ordered copy of h, for ``dsytrd`` to reduce in place."""
    if isinstance(h, Stencil):
        # a fresh dense stencil is exactly symmetric, so its transpose is that copy
        return np.asarray(h).T
    return np.array(h, dtype=np.float64, order="F")


def _band_window(d: np.ndarray, e: np.ndarray, lambda0: float):
    """(eigenvalues, Z_S) of the band T = (d, e): every eigenvalue by ``dsterf`` and the
    eigenvectors of S by ``dstein``, F-ordered; Z_S is None when S is every mode.

    T is cut where ``dsterf`` itself takes an off-diagonal entry for zero and
    each block is solved apart, which gives dsterf's bits on all of T and the
    block of every eigenvalue, which ``dstein`` needs.
    """
    eps = np.finfo(float).eps / 2  # LAPACK's DLAMCH('E')
    cut = np.abs(e) <= np.sqrt(np.abs(d[:-1])) * np.sqrt(np.abs(d[1:])) * eps
    ends = np.append(np.flatnonzero(cut) + 1, d.size)
    starts = np.append(0, ends[:-1])
    vals = np.concatenate([_lapack.dsterf(d[lo:hi], e[lo : hi - 1]) for lo, hi in zip(starts, ends)])
    order = np.argsort(vals, kind="stable")
    evals = vals[order]
    count = _prefix_count(evals, lambda0)
    if count == d.size:
        return evals, None
    # dstein takes the eigenvalues block after block, ascending within each
    chosen = np.sort(order[:count])
    z = _lapack.dstein(d, e, vals[chosen], np.searchsorted(ends, chosen, side="right") + 1, ends)
    columns = np.searchsorted(chosen, order[:count])
    if np.array_equal(columns, np.arange(count)):
        return evals, z
    return evals, np.asfortranarray(z[:, columns])


def _eigh(h, lambda0: float = np.inf, tails: bool = False):
    """(eigenvalues, eigenvectors) of a validated h; the eigenvectors in F order when LAPACK is bound.

    Any h but a band is first reduced to one (``_reduction_buffer``,
    ``dsytrd``).  With a finite lambda0 and no tails the window runs
    (``_band_window``) and returns the eigenvectors of S alone, unless S is
    every mode; otherwise ``dstevd`` returns all of them.  ``dormtr`` maps
    back just the columns returned.  Without the binding, numpy's ``eigh``.
    """
    if _lapack.binding() is None:
        return np.linalg.eigh(np.asarray(h))
    if isinstance(h, Tridiagonal):
        a, d, e = None, h.d, h.e
    else:
        a = _reduction_buffer(h)
        d, e, tau = _lapack.dsytrd(a)
    z = None
    if lambda0 < np.inf and not tails:
        evals, z = _band_window(d, e, lambda0)
    if z is None:
        evals, z = _lapack.dstevd(d, e)
    if a is not None:
        _lapack.dormtr(a, tau, z)
    return evals, z


def _reconstruction_error(h, evals: np.ndarray, modes: np.ndarray) -> float:
    """max|O diag(evals) O^T - h| over all n^2 entries, one row tile of the lower triangle at a time.

    Tile I is (O_I diag(evals)) O_{<=I}^T.  The product is symmetric, so each
    tile stands for its mirror too and is compared with both h_{I,<=I} and
    h_{<=I,I}^T; for a ``Tridiagonal`` or a ``Stencil`` the two are the same
    entries, and the tile is compared with its dense rows once.  No n x n
    temporary is formed.  A NaN anywhere gives NaN.
    """
    n = evals.size
    errs = []
    for i in range(0, n, SYMMETRY_TILE):
        rows, end = slice(i, i + SYMMETRY_TILE), min(i + SYMMETRY_TILE, n)
        tile = (modes[rows] * evals) @ modes[:end].T
        blocks = (h.lower_rows(i, end),) if isinstance(h, _Structured) else (h[rows, :end], h[:end, rows].T)
        diff = np.empty_like(tile)
        for block in blocks:
            np.subtract(tile, block, out=diff)
            errs += [diff.max(), -diff.min()]
    return float(np.max(errs))


def _solve_checked(h, solve):
    """Run ``solve(h) -> (eigenvalues, extra)`` on a validated symmetric h.

    A ``Tridiagonal`` or a ``Stencil`` is symmetric by construction and is
    checked in O(n); any other h is taken as a float array.  Raises
    ValueError unless h is square, finite and symmetric, and NumericError
    when the solver fails or finds an eigenvalue below the round-off band
    -1e-9 * max|h_ij|; eigenvalues inside the band are clamped to zero (the
    model itself is positive).  Returns (h, scale, eigenvalues, extra) with
    scale = max|h_ij|.
    """
    structured = isinstance(h, _Structured)
    if structured:
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
    if not structured and _max_asymmetry(h) > 1e-12 * scale:
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
    if isinstance(h, _Structured):
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
    """Eigenvalues of a symmetric h (a ``Tridiagonal``, a ``Stencil`` or a matrix), without eigenvectors,
    checked for accuracy.

    The accuracy contract is the pair of invariants
    |sum_j lambda_j - tr h| <= RECONSTRUCTION_RTOL * n * scale and
    |sum_j lambda_j^2 - ||h||_F^2| <= RECONSTRUCTION_RTOL * n * scale^2,
    with scale = max|h_ij|; a violation raises NumericError.  For a band or
    a stencil, tr h = sum d and ||h||_F^2 = sum d^2 + 2 sum e^2.  Validation
    and the clamping of round-off negatives are those of ``_solve_checked``.
    """
    h, scale, evals, _ = _solve_checked(h, _eigvalsh)
    _check_invariants(h, evals, scale)
    return Spectrum(eigenvalues=evals, gammas=np.sqrt(evals), bc=bc)


def _require(err: float, tol: float, what: str):
    if not err <= tol:  # a NaN error fails too
        raise NumericError(f"{what} {err:.3e} exceeds {tol:.3e}")


def _max_abs(x: np.ndarray) -> float:
    return float(np.max(np.abs(x), initial=0.0))


def _window_modes(h, scale: float, evals: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Phi_S, C-ordered, from the F-ordered eigenvectors of S that ``_eigh`` returns, checked by the
    window contract: the invariants on all n eigenvalues, then the residual and orthonormality of Phi_S."""
    count = z.shape[1]
    tol = RECONSTRUCTION_RTOL * scale
    _check_invariants(h, evals, scale)
    modes = np.ascontiguousarray(z)
    residual = h @ modes
    residual -= modes * evals[:count]
    _require(_max_abs(residual), tol, "residual max|h Phi_S - Phi_S Lambda_S|")
    _require(_max_abs(modes.T @ modes - np.eye(count)), RECONSTRUCTION_RTOL, "orthonormality max|Phi_S^T Phi_S - I|")
    return modes


def diagonalize(h, bc: str = "neumann", lambda0: float = np.inf, tails: bool = False) -> SpectralData:
    """The regime lambda0 of a symmetric h (a ``Tridiagonal``, a ``Stencil`` or a matrix), checked for accuracy.

    Keeps Phi_S, the eigenvectors of the eigenvalues <= lambda0 (every one
    by default), and with ``tails`` also tau at every site.  With modes left
    out and no tails the window runs: only the eigenvectors of S are formed,
    and they are checked by the window contract of the module docstring.
    Otherwise the full decomposition runs, and NumericError is raised if the
    reconstruction ||O G^2 O^T - h||_max exceeds RECONSTRUCTION_RTOL *
    max|h_ij|; that check runs over row tiles of SYMMETRY_TILE rows of the
    lower triangle (``_reconstruction_error``), so it allocates no n x n
    temporary.  Validation and the clamping of round-off negatives are those
    of ``_solve_checked``.
    """
    h, scale, evals, vecs = _solve_checked(h, functools.partial(_eigh, lambda0=lambda0, tails=tails))
    n = evals.size
    gammas = np.sqrt(evals)
    count = Spectrum(eigenvalues=evals, gammas=gammas).localized_count(lambda0)
    if vecs.shape[1] < n:
        return SpectralData(eigenvalues=evals, gammas=gammas, modes=_window_modes(h, scale, evals, vecs), bc=bc)
    vecs = np.ascontiguousarray(vecs)
    err = _reconstruction_error(h, evals, vecs)
    if not err <= RECONSTRUCTION_RTOL * scale:  # a NaN error fails too
        raise NumericError(f"reconstruction error {err:.3e} exceeds {RECONSTRUCTION_RTOL:.0e} * max|h_ij|")
    site_tails = np.square(vecs[:, count:]) @ (1.0 / gammas[count:]) if tails else None
    # a copy of Phi_S, so that the other n - |S| columns are freed
    modes = vecs if count == n else vecs[:, :count].copy()
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
