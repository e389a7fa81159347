"""Disorder sampling and spectra of the effective Hamiltonian h = h_0 + k.

The random potential k is i.i.d. per site with a bounded density on
(0, k_max]; the default is uniform.  Spectra come in two forms.
``spectrum`` returns a ``Spectrum``: the ascending eigenvalues and the
frequencies gamma_j, their positive square roots, checked against the
invariants tr h and ||h||_F^2.  It serves the eigenvalue-only statistics
(counting function, energy density, gaps).  ``diagonalize`` returns
``SpectralData``, a ``Spectrum`` that also carries the eigenvectors a
regime needs.  Both take h only as the ``Stencil`` that ``assemble``
builds: the box and the diagonal d, O(n) memory, symmetric by
construction, so its validation, scale and invariants cost O(n), and
``h @ x`` costs O(n) per column.  The solver follows the dimension of the
box and nothing else.  With nu = 1 the edges of the box run (0, 1), (1, 2),
..., so (d, e) is the chain's band, and LAPACK's band drivers (``_lapack``,
the library numpy links) run on it as it is.  With nu >= 2 ``dsytrd`` first
reduces h to a band T = Q^T h Q, in place in the one n x n buffer of the
solve (h's dense form), and the band drivers run on T; ``dormtr`` applies
Q to just the eigenvectors formed.  Eigenvalues alone come from ``dsterf``,
the bits of ``eigvalsh``.  Where the routines are not bound, numpy's
``eigvalsh``/``eigh`` serve alone, on h's dense form.

The paper's bounds read the localized modes S = {j : lambda_j <= lambda0}
(``Spectrum.localized_count``, the one definition of S) and, through
C_f = exp(-||1_{S^c} V f||^2 / 4), the tails
tau(x) = sum_{j not in S} phi_j(x)^2 / gamma_j.  ``diagonalize(h,
lambda0)`` fixes the regime once in a ``SpectralData`` of Phi_S and h, and
``tails(spec, sites)`` forms tau at just those sites.  With scale =
max|h_ij| and tol = RECONSTRUCTION_RTOL, every lambda0 runs one solve, the
window, under one accuracy contract.  ``dsterf`` finds all n eigenvalues,
the bits of ``eigvalsh``, and inverse iteration (``dstein``) the
eigenvectors of S alone; only those are mapped back.  Where S is every
mode, ``dstevd`` forms them instead, and the eigenvalues stay dsterf's; at
lambda0 = inf S is every mode whatever the eigenvalues, so no ``dsterf``
runs and eigenvalues and modes are the bits of ``eigh`` (of
``np.asarray(h)``).  Inverse iteration can return poor vectors without
saying so, so the vectors are checked on every route: the invariants of
``spectrum`` hold on all n eigenvalues, max|h Phi_S - Phi_S Lambda_S| <=
tol * scale, and max|Phi_S^T Phi_S - I| <= tol.  Because Q is orthogonal,
the residual of Phi_S is that of the band's vectors.  The residual is not
the reconstruction error max|Phi G^2 Phi^T - h| over all n^2 entries, and
neither bounds the other entry by entry: the eigenpairs of h plus a
symmetric error delta at (r, c) and (c, r) have, as eigenpairs of h, the
reconstruction error delta but the residual
delta * max_j max(|phi_j(r)|, |phi_j(c)|).  With nu >= 2 the solve
holds one n x n array, the reduced h, beside the n x |S| columns, and the
workspace of ``dstevd`` where S is every mode.  On a 40 x 40 box ``dsterf``
and ``dstein`` together take as long as ``dstevd`` at |S| of about 0.4 n.

The window forms no mode outside S, so ``tails`` works from those it has:
tau(x) = <v_x, h^{-1/2} v_x> with v_x = delta_x - Phi_S Phi_S^T delta_x,
whose spectral measure lies on [a, b], a = lambda_{|S|+1} and b = lambda_n
+ tol * scale.  On [a, b], lambda^{-1/2} = sum_k c_k T_k(X) with
X = (2 lambda - a - b) / (b - a); the c_k are known in closed form
(``_inverse_sqrt_chebyshev``).  So tau(x) = sum_k c_k mu_k(x) with the
moments mu_k(x) = <v_x, T_k(X) v_x>, which ``h @`` (``Stencil._apply``)
forms on blocks of TAILS_BLOCK sites by the three-term recurrence; from
T_k v_x for k <= K come the moments up to 2K, by <v, T_2k v> =
2|T_k v|^2 - |v|^2 and <v, T_2k-1 v> = 2<T_k v, T_k-1 v> - <v, T_1 v>.
The accuracy contract, with r = sqrt(b / a) and q = (r - 1) / (r + 1):

* A priori: |c_k| <= 4 q^k / ((sqrt(b) + sqrt(a)) sqrt(1 - q^2)) and
  tau(x) >= |v_x|^2 / sqrt(b), so the sum cut after degree m is within
  sqrt(r) (r + 1) q^(m+1) tau(x) of tau(x) at every site.  The degree is
  the least m for which that is at most TAILS_RTOL (``_tails_degree``);
  it grows like r, and the cost with it: on a 40 x 40 box with k_max = 1
  it is 32 at lambda0 = 2 and 70 at lambda0 = 0.5.
* A posteriori: the reported tails are the sums to degree m + 8
  (TAILS_CHECK_DEGREES), and at every site they differ from the sums to
  degree m by at most TAILS_RTOL of themselves.

A failure, a NaN included, raises NumericError.  ``eigencorrelator_profile``
evaluates the per-realization localization kernel

    Q_s(x, y) = sum_{j in S} gamma_j^s |phi_j(x)| |phi_j(y)|,

the exact value of the supremum over Borel functions |u| <= 1 of
|<delta_x, h^{s/2} u(h) X delta_y>| when the spectrum is simple.
``propagator_sums`` evaluates those bilinear forms for u = cos or sin of
2t sqrt(h) on a time grid, TIME_BLOCK times at a time, so that the
kernels built from them hold tables of TIME_BLOCK rows however long the
grid.  Both read S from the ``SpectralData`` they are given, at just the
sites a kernel reads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import _lapack
from .errors import ConfigError, NumericError
from .lattice import BoxGeometry, _graph, _neighbour_slices, laplacian_diagonal

#: Accuracy tolerance of the eigensolvers, relative to max|h_ij|.
RECONSTRUCTION_RTOL = 1e-10

#: Relative gap below which a spectrum is flagged as degenerate.
DEGENERACY_RTOL = 1e-12

#: Relative accuracy of the tails, which the degree of their expansion is chosen for.
TAILS_RTOL = 1e-14

#: Degrees past the chosen one over which the tails expansion checks its own truncation.
TAILS_CHECK_DEGREES = 8

#: Sites per block of the tails expansion, which holds three n x TAILS_BLOCK arrays.  Of
#: 16, 32, 48, 64, 96, 128 and 256, 64 was fastest on a 40 x 40 box at lambda0 = 2 on a
#: 2-vCPU x86-64 machine: 0.34 s for the tails, against 0.41 to 0.57 s.
TAILS_BLOCK = 64

#: Columns per block in which the residual check subtracts Phi_S Lambda_S.
RESIDUAL_BLOCK = 64

#: Times per block of ``propagator_sums``: each block's phase tables and sums, and the tables the
#: kernels form from them, have TIME_BLOCK rows, so a kernel's memory does not grow with the grid.
TIME_BLOCK = 64


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


def sample_disorder(config: DisorderConfig, box: BoxGeometry, index: int) -> np.ndarray:
    """k, the potential of realization ``index``: one float per site of the box, in site order.

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
    return k


@dataclass(frozen=True)
class Stencil:
    """h = diag(d) - A for the nearest-neighbour adjacency A of a box, kept as the box and d.

    d is a read-only float copy with one entry per site; the -1 entries of h
    sit on the edges of ``lattice._graph``, and ``e`` lists them, one per
    edge.  With nu = 1 the edges run (0, 1), (1, 2), ..., so (d, e) is the
    chain's band.  ``np.asarray(h)`` gives the dense form of h, and
    ``h @ x`` applies h to the columns of x in O(n) per column, by the
    neighbour slices that ``_graph``'s edges come from.
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
    def shape(self) -> tuple[int, int]:
        return (self.d.size, self.d.size)

    @property
    def e(self) -> np.ndarray:
        return np.full(_graph(self.box)[0].size, -1.0)

    def __array__(self, dtype=None, copy=None):
        i, j, _ = _graph(self.box)
        h = np.diag(self.d)
        h[i, j] = h[j, i] = -1.0
        return h if dtype is None else h.astype(dtype, copy=False)

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x)
        return self._apply(x, np.empty(x.shape, np.result_type(self.d, x)))

    def _apply(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out <- h x for the columns of x; ``out`` is C-contiguous, of x's shape, and shares no memory with it."""
        grid = x.reshape(self.box.shape + x.shape[1:])
        acc = out.reshape(grid.shape)
        np.multiply(self.d.reshape(self.box.shape + (1,) * (x.ndim - 1)), grid, out=acc)
        for lo, hi in _neighbour_slices(self.box):
            acc[lo] -= grid[hi]
            acc[hi] -= grid[lo]
        return out


def assemble(box: BoxGeometry, k, bc: str = "neumann") -> Stencil:
    """Effective Hamiltonian h = Laplacian(bc) + diag(k) of the box, as the ``Stencil`` of its diagonal.

    k is the potential, one entry per site in site order, as ``sample_disorder``
    draws it.  Built in O(n) for every nu; this is the one form of h that
    ``spectrum`` and ``diagonalize`` take.
    """
    k = np.asarray(k, dtype=float)
    if k.shape != (box.n_sites,):
        raise ValueError(f"potential has {k.shape} entries for a box of {box.n_sites} sites")
    return Stencil(box, laplacian_diagonal(box, bc) + k)


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

    def flag_degenerate(self) -> bool:
        """True when two eigenvalues coincide within DEGENERACY_RTOL * ||h||."""
        return self.min_gap() <= DEGENERACY_RTOL * max(self.norm, np.finfo(float).tiny)

    def localized_count(self, lambda0: float) -> int:
        """|S| for S = {j : lambda_j <= lambda0}, a prefix of the ascending spectrum."""
        return _prefix_count(self.eigenvalues, lambda0)


@dataclass(frozen=True)
class SpectralData(Spectrum):
    """The regime of localized excitations of the effective Hamiltonian.

    ``modes`` is Phi_S (n x |S|): its columns are the orthonormal real
    eigenvectors of the |S| lowest ``eigenvalues``, so that
    modes.T @ h @ modes = diag(eigenvalues[:|S|]), and |S| = n unless
    ``diagonalize`` was given a finite lambda0; ``h`` is the h solved.
    """

    modes: np.ndarray = field(kw_only=True)
    h: Stencil = field(kw_only=True)

    @property
    def localized_gammas(self) -> np.ndarray:
        """gamma_S, the frequencies of the columns of ``modes``."""
        return self.gammas[: self.modes.shape[1]]

    def localized_count(self, lambda0: float) -> int:
        count = super().localized_count(lambda0)
        if count > self.modes.shape[1]:
            raise ValueError(f"lambda0 = {lambda0} reaches {count} modes, but only {self.modes.shape[1]} were kept")
        return count


def _band(h: Stencil):
    """(d, e, a, tau): the band T of h and the reflectors (a, tau) of h = Q T Q^T.

    With nu = 1 h is its own band and a and tau are None.  Otherwise
    ``dsytrd`` reduces h's dense form in place; a fresh dense stencil is
    exactly symmetric, so its transpose is the F-ordered copy it needs.
    """
    if h.box.nu == 1:
        return h.d, h.e, None, None
    a = np.asarray(h).T
    d, e, tau = _lapack.dsytrd(a)
    return d, e, a, tau


def _eigvalsh(h: Stencil):
    if _lapack.binding() is None:
        return np.linalg.eigvalsh(np.asarray(h)), None
    d, e, _, _ = _band(h)
    return _lapack.dsterf(d, e), None


def _band_window(d: np.ndarray, e: np.ndarray, lambda0: float):
    """(eigenvalues, Z_S) of the band T = (d, e): every eigenvalue by ``dsterf`` and the
    eigenvectors of S by ``dstein``, or by ``dstevd`` where S is every mode, F-ordered.

    At lambda0 = inf S is every mode whatever the eigenvalues, so ``dstevd``
    alone runs and returns eigh's bits.  Otherwise T is cut where ``dsterf``
    itself takes an off-diagonal entry for zero and each block is solved
    apart, which gives dsterf's bits on all of T and the block of every
    eigenvalue, which ``dstein`` needs.
    """
    if lambda0 == np.inf:
        return _lapack.dstevd(d, e)
    eps = np.finfo(float).eps / 2  # LAPACK's DLAMCH('E')
    cut = np.abs(e) <= np.sqrt(np.abs(d[:-1])) * np.sqrt(np.abs(d[1:])) * eps
    ends = np.append(np.flatnonzero(cut) + 1, d.size)
    starts = np.append(0, ends[:-1])
    vals = np.concatenate([_lapack.dsterf(d[lo:hi], e[lo : hi - 1]) for lo, hi in zip(starts, ends)])
    order = np.argsort(vals, kind="stable")
    evals = vals[order]
    count = _prefix_count(evals, lambda0)
    if count == d.size:
        return evals, _lapack.dstevd(d, e)[1]
    # dstein takes the eigenvalues block after block, ascending within each
    chosen = np.sort(order[:count])
    z = _lapack.dstein(d, e, vals[chosen], np.searchsorted(ends, chosen, side="right") + 1, ends)
    columns = np.searchsorted(chosen, order[:count])
    if np.array_equal(columns, np.arange(count)):
        return evals, z
    return evals, np.asfortranarray(z[:, columns])


def _eigh(h: Stencil, lambda0: float):
    """(eigenvalues, Phi_S) of a validated h, Phi_S C-ordered, so that the F-ordered band vectors
    and the reduced h die here.

    The window (``_band_window``) runs on h's band (``_band``); with
    nu >= 2 ``dormtr`` maps back just the columns it returns.  Without the
    binding, numpy's ``eigh``.
    """
    if _lapack.binding() is None:
        evals, vecs = np.linalg.eigh(np.asarray(h))
        return evals, np.ascontiguousarray(vecs[:, : _prefix_count(evals, lambda0)])
    d, e, a, tau = _band(h)
    evals, z = _band_window(d, e, lambda0)
    if a is not None:
        _lapack.dormtr(a, tau, z)
    del a  # the reduced h goes before Z is copied
    return evals, np.ascontiguousarray(z)


def _scale(h: Stencil) -> float:
    """max|h_ij|, or 1 for h = 0; NaN when an entry is not finite."""
    return float(np.max([np.abs(h.d).max(), np.abs(h.e).max(initial=0.0)])) or 1.0


def _solve_checked(h: Stencil, solve):
    """Run ``solve(h) -> (eigenvalues, extra)`` on a validated h.

    Raises TypeError unless h is a ``Stencil``, which is symmetric by
    construction, ValueError unless its entries are finite, and
    NumericError when the solver fails or finds an eigenvalue below the
    round-off band -1e-9 * max|h_ij|; eigenvalues inside the band are
    clamped to zero (the model itself is positive).  Returns (scale,
    eigenvalues, extra) with scale = max|h_ij|.
    """
    if not isinstance(h, Stencil):
        raise TypeError(f"h must be a Stencil, as assemble builds it, not a {type(h).__name__}")
    # the maximum propagates NaN, so a non-finite entry makes scale non-finite
    scale = _scale(h)
    if not np.isfinite(scale):
        raise ValueError("h must have finite entries")
    try:
        evals, extra = solve(h)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed on a {h.shape[0]}x{h.shape[0]} matrix: {exc}") from exc
    if evals[0] < -1e-9 * scale:
        raise NumericError(f"matrix has a negative eigenvalue {evals[0]:.3e}; not a valid h")
    return scale, np.clip(evals, 0.0, None), extra


def _check_invariants(h: Stencil, evals: np.ndarray, scale: float):
    """Raise NumericError unless sum_j lambda_j and sum_j lambda_j^2 match tr h and ||h||_F^2."""
    n = evals.size
    trace, frob = float(np.sum(h.d)), float(np.dot(h.d, h.d) + 2.0 * np.dot(h.e, h.e))
    trace_err = abs(float(np.sum(evals)) - trace)
    frob_err = abs(float(np.dot(evals, evals)) - frob)
    # written so that a NaN error fails the test
    if not (trace_err <= RECONSTRUCTION_RTOL * n * scale and frob_err <= RECONSTRUCTION_RTOL * n * scale**2):
        raise NumericError(
            f"eigenvalues miss the invariants of h: trace error {trace_err:.3e}, "
            f"Frobenius error {frob_err:.3e} (tolerances {RECONSTRUCTION_RTOL:.0e} * n * scale, * n * scale^2)"
        )


def spectrum(h: Stencil) -> Spectrum:
    """Eigenvalues of h without eigenvectors, checked for accuracy.

    The accuracy contract is the pair of invariants
    |sum_j lambda_j - tr h| <= RECONSTRUCTION_RTOL * n * scale and
    |sum_j lambda_j^2 - ||h||_F^2| <= RECONSTRUCTION_RTOL * n * scale^2,
    with scale = max|h_ij|, tr h = sum d and ||h||_F^2 = sum d^2 + 2 sum e^2;
    a violation raises NumericError.  Validation and the clamping of
    round-off negatives are those of ``_solve_checked``.
    """
    scale, evals, _ = _solve_checked(h, _eigvalsh)
    _check_invariants(h, evals, scale)
    return Spectrum(eigenvalues=evals, gammas=np.sqrt(evals))


def _require(err: float, tol: float, what: str):
    if not err <= tol:  # a NaN error fails too
        raise NumericError(f"{what} {err:.3e} exceeds {tol:.3e}")


def _max_abs(x: np.ndarray) -> float:
    """max|x|, taking the absolute values in place over x."""
    return float(np.max(np.abs(x, out=x), initial=0.0))


def _window_modes(h: Stencil, scale: float, evals: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """Phi_S, the C-ordered eigenvectors of S that ``_eigh`` returns, checked by the window contract:
    the invariants on all n eigenvalues, then the residual and orthonormality of Phi_S.  Beside
    Phi_S it holds the residual, from which Phi_S Lambda_S is taken RESIDUAL_BLOCK columns at
    a time, then the Gram matrix, never both."""
    count = modes.shape[1]
    _check_invariants(h, evals, scale)
    residual, lam = h @ modes, evals[:count]
    for start in range(0, count, RESIDUAL_BLOCK):
        cols = slice(start, start + RESIDUAL_BLOCK)
        residual[:, cols] -= modes[:, cols] * lam[cols]
    _require(_max_abs(residual), RECONSTRUCTION_RTOL * scale, "residual max|h Phi_S - Phi_S Lambda_S|")
    del residual
    gram = modes.T @ modes
    gram[np.diag_indices(count)] -= 1.0
    _require(_max_abs(gram), RECONSTRUCTION_RTOL, "orthonormality max|Phi_S^T Phi_S - I|")
    return modes


def _inverse_sqrt_chebyshev(a: float, b: float, degree: int) -> np.ndarray:
    """c_0..c_degree of lambda^{-1/2} = sum_k c_k T_k((2 lambda - a - b) / (b - a)) on [a, b], 0 < a < b.

    With q = (sqrt(b) - sqrt(a)) / (sqrt(b) + sqrt(a)) and x = cos(theta),
    lambda = (sqrt(b) + sqrt(a))^2 |1 + q e^{i theta}|^2 / 4, so the binomial
    series of (1 + w)^{-1/2}, whose coefficients g_n = binom(2n, n) / 4^n
    fall from 1, gives c_k = (2 - [k = 0]) 2 (-q)^k s_k / (sqrt(b) + sqrt(a))
    with s_k = sum_l g_l g_{l+k} q^{2l}.  Its terms are positive, so each c_k
    comes to round-off relative to itself.
    """
    q = (np.sqrt(b) - np.sqrt(a)) / (np.sqrt(b) + np.sqrt(a))
    # the terms left out add at most q^(2 terms) / (1 - q^2) of s_k, below round-off
    terms = int(np.ceil(np.log(np.finfo(float).eps * (1.0 - q * q)) / (2.0 * np.log(q)))) + 1
    g = np.cumprod(np.append(1.0, 1.0 - 0.5 / np.arange(1, degree + terms)))
    s = np.zeros(degree + 1)
    for l in range(terms):
        s += g[l] * q ** (2 * l) * g[l : l + degree + 1]
    coef = 2.0 / (np.sqrt(b) + np.sqrt(a)) * (-q) ** np.arange(degree + 1) * s
    coef[1:] *= 2.0
    return coef


def _tails_degree(a: float, b: float) -> int:
    """The least m whose truncation bound sqrt(r) (r + 1) q^(m+1) (module docstring) is at most TAILS_RTOL."""
    r = np.sqrt(b / a)
    q = (r - 1.0) / (r + 1.0)
    # sqrt(r) (r + 1) >= 2 > TAILS_RTOL, so the ceiling is at least 1 and m >= 0
    return int(np.ceil(np.log(np.sqrt(r) * (r + 1.0) / TAILS_RTOL) / -np.log(q))) - 1


def diagonalize(h: Stencil, lambda0: float = np.inf) -> SpectralData:
    """The regime lambda0 of h, checked for accuracy.

    Keeps Phi_S, the eigenvectors of the eigenvalues <= lambda0 (every one
    by default), and h.  Every lambda0, inf included, runs the window and
    is held to its contract (module docstring): the invariants on all n
    eigenvalues, max|h Phi_S - Phi_S Lambda_S| <= RECONSTRUCTION_RTOL *
    max|h_ij| and max|Phi_S^T Phi_S - I| <= RECONSTRUCTION_RTOL, each
    failure a NumericError.  The residual reads an error delta planted at
    entry (r, c) of h as delta * max_j max(|phi_j(r)|, |phi_j(c)|), not delta.
    Validation and the clamping of round-off negatives are those of
    ``_solve_checked``.
    """
    scale, evals, modes = _solve_checked(h, functools.partial(_eigh, lambda0=lambda0))
    return SpectralData(eigenvalues=evals, gammas=np.sqrt(evals), modes=_window_modes(h, scale, evals, modes), h=h)


def tails(spec: SpectralData, sites) -> np.ndarray:
    """tau(x) = sum_{j not in S} phi_j(x)^2 / gamma_j at each of ``sites``, in order: zero where S is every mode,
    else by the expansion of the module docstring; NumericError unless its a posteriori check holds at every site."""
    n, count = spec.modes.shape
    sites = np.asarray(sites, dtype=int).ravel()
    if np.any((sites < 0) | (sites >= n)):
        raise ValueError(f"site index outside 0..{n - 1}")
    if count == n:
        return np.zeros(sites.size)
    a, b = float(spec.eigenvalues[count]), float(spec.eigenvalues[-1]) + RECONSTRUCTION_RTOL * _scale(spec.h)
    degree = _tails_degree(a, b)
    top = degree + TAILS_CHECK_DEGREES
    coef = _inverse_sqrt_chebyshev(a, b, top)
    # X = (h - (a + b) / 2) * factor: the shift sits in the diagonal of a stencil
    shifted, factor = Stencil(spec.h.box, spec.h.d - (a + b) / 2), 2.0 / (b - a)
    dots = functools.partial(np.einsum, "ij,ij->j")
    site_tails, change = np.empty(sites.size), np.empty(sites.size)
    for start in range(0, sites.size, TAILS_BLOCK):
        block = slice(start, start + TAILS_BLOCK)
        prev = spec.modes @ spec.modes[sites[block]].T
        np.negative(prev, out=prev)
        prev[sites[block], np.arange(prev.shape[1])] += 1.0
        cur = shifted._apply(prev, np.empty_like(prev))
        cur *= factor
        spare = np.empty_like(prev)
        moments = np.empty((top + 2, prev.shape[1]))
        moments[0], moments[1] = dots(prev, prev), dots(cur, prev)
        moments[2] = 2.0 * dots(cur, cur) - moments[0]
        for k in range(2, (top + 3) // 2):
            # T_k v = 2 X T_k-1 v - T_k-2 v, over the buffer of T_k-3 v
            shifted._apply(cur, spare)
            spare *= 2.0 * factor
            spare -= prev
            prev, cur, spare = cur, spare, prev
            moments[2 * k - 1] = 2.0 * dots(cur, prev) - moments[1]
            moments[2 * k] = 2.0 * dots(cur, cur) - moments[0]
        site_tails[block] = coef @ moments[: top + 1]
        change[block] = coef[degree + 1 :] @ moments[degree + 1 : top + 1]
    bad = ~(np.abs(change) <= TAILS_RTOL * site_tails)  # a NaN fails too
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericError(
            f"tails expansion: degree {top} changes tau({sites[i]}) = {site_tails[i]:.3e} by {change[i]:.3e} "
            f"over degree {degree}, beyond TAILS_RTOL = {TAILS_RTOL:.0e} of it"
        )
    return site_tails


def eigencorrelator_profile(spec: SpectralData, s: int, x: int, sites) -> np.ndarray:
    """Q_s(x, y) at each y of ``sites``, in order, for s in {-1, 0, +1}; zero when S is empty."""
    if s not in (-1, 0, 1):
        raise ValueError("power s must be -1, 0 or +1")
    sites = _checked_sites(spec, x, sites)
    gam = spec.localized_gammas
    if gam.size == 0:
        return np.zeros(sites.size)
    weights = gam**s if s != 0 else np.ones(gam.size)
    return np.abs(spec.modes[sites]) @ (weights * np.abs(spec.modes[int(x)]))


def propagator_sums(spec: SpectralData, x: int, sites, times, powers):
    """The sums sum_{j in S} gamma_j^s phi_j(x) phi_j(y) u(2 t gamma_j) for each s in ``powers``.

    u is cos for s = 0 and sin for s = -1, +1, so each sum is the coefficient
    <delta_x, h^{s/2} u(2t sqrt(h)) X delta_y> of a restricted
    position/momentum commutator, and |sum| <= Q_s(x, y) at every t.
    Returns an iterator over the blocks of TIME_BLOCK consecutive ``times``:
    each item is (rows, sums), rows the slice of ``times`` the block covers
    and sums one (rows, sites) array per power, in the order of ``powers``.
    The weights gamma_j^s phi_j(x) phi_j(y) are formed once per call, and
    per block at most one sine and one cosine table.  ``times`` keeps its
    dtype, so a complex grid gives complex sums.
    """
    sites = _checked_sites(spec, x, sites)
    times = np.asarray(times)
    gam = spec.localized_gammas
    prod = spec.modes[int(x)][:, None] * spec.modes[sites].T  # (modes, sites)
    weights = [prod if s == 0 else prod * gam[:, None] ** s for s in powers]
    return _propagator_blocks(gam, times, powers, weights)


def _propagator_blocks(gam, times, powers, weights):
    for start in range(0, times.size, TIME_BLOCK):
        rows = slice(start, min(start + TIME_BLOCK, times.size))
        ang = 2.0 * times[rows, None] * gam[None, :]
        cos = np.cos(ang) if 0 in powers else None
        sin = np.sin(ang) if any(s != 0 for s in powers) else None
        yield rows, tuple((cos if s == 0 else sin) @ w for s, w in zip(powers, weights))


def _checked_sites(spec: SpectralData, x: int, sites) -> np.ndarray:
    """``sites`` as an index array; ValueError unless it and x lie in the box."""
    n = spec.n
    sites = np.asarray(sites, dtype=int)
    if not 0 <= int(x) < n or np.any((sites < 0) | (sites >= n)):
        raise ValueError(f"site index outside 0..{n - 1}")
    return sites
