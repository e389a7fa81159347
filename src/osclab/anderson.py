"""Disorder sampling and spectra of the effective Hamiltonian h = h_0 + k.

The random potential k is i.i.d. per site with a bounded density on
(0, k_max], given by one inverse-CDF table (``DisorderConfig``); without a
table the law is uniform on [0, k_max).  Spectra come in two forms.
``spectrum`` returns a ``Spectrum``: the ascending eigenvalues and the
frequencies gamma_j, their positive square roots, checked against the
invariants tr h and ||h||_F^2.  It serves the eigenvalue-only statistics
(energy density, interlacing, gaps).  ``diagonalize`` returns
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
``eigvalsh``/``eigh`` serve alone, on h's dense form.  One private
``_solve(h, lambda0=None)`` runs every solve, and a new route goes there:
it validates h, takes its band, runs ``dsterf`` alone (lambda0 None, for
``spectrum``) or the window below (for ``diagonalize``), or numpy's solver
instead, clamps the eigenvalues, and checks them and the Phi_S it formed.

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
sites a kernel reads.  Each block's phase tables cos and sin(2 t gamma_j)
are scaled by gamma^s phi_j(x) and multiplied by one right-hand factor R
with a row per mode of S: Phi_S^T at the sites read, or the Gram matrix
of the sites outside a neighbourhood that quasi-locality passes.  No
weight array of |S| x sites per power is held.  The grid comes as the
(start, stop, points) of ``np.linspace``, so it is arithmetic by
construction, and is never formed: a block's phases come from its first
time, computed by np.linspace's own arithmetic, by angle addition with
one table of TIME_BLOCK offsets shared by all blocks.  Every block hands
back both phase tables, and the kernels that need the phases mode by
mode read them from it.
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

#: Rounds in which ``sample_disorder`` redraws its draws of k <= 0 before it gives up: a table
#: with zero mass u* = 0.99 fails a 10^5-site sample with probability below 1e-38.
DISORDER_REDRAWS = 10_000

#: Times per block of ``propagator_sums``: each block's phase tables and sums, and the tables the
#: kernels form from them, have TIME_BLOCK rows, so a kernel's memory does not grow with the grid.
TIME_BLOCK = 64


@dataclass(frozen=True)
class DisorderConfig:
    """Distribution of the i.i.d. potential entries and the master seed.

    The law is one inverse-CDF table: k = interp(u, table_u, table_k) with u
    uniform on [0, 1).  Without a table it is [0, 1] -> [0, k_max], uniform
    disorder on [0, k_max).  Every table, the default too, passes the same
    checks, and a table given on one side only is a ConfigError.
    """

    k_max: float
    master_seed: int
    table_u: tuple[float, ...] | None = None
    table_k: tuple[float, ...] | None = None

    def __post_init__(self):
        if not 0 < self.k_max < np.inf:
            raise ConfigError(f"k_max must be positive and finite, got {self.k_max!r}")
        if (self.table_u is None) != (self.table_k is None):
            given = "table_u" if self.table_k is None else "table_k"
            raise ConfigError(f"an inverse-CDF table needs table_u and table_k, got {given} alone")
        u, k = self.table
        if u.ndim != 1 or u.shape != k.shape or u.size < 2:
            raise ConfigError("inverse-CDF table must be two equal-length vectors")
        if np.any(np.diff(u) < 0) or np.any(np.diff(k) < 0):
            raise ConfigError("inverse-CDF table must be monotone")
        if u[0] != 0.0 or u[-1] != 1.0:
            raise ConfigError("table_u must span [0, 1]")
        if k[0] < 0.0 or k[-1] > self.k_max:
            raise ConfigError("table_k values must lie in [0, k_max]")
        # k is nondecreasing in u, and 1 - 2^-53 is the largest u that uniform(0, 1) draws
        if not np.interp(np.nextafter(1.0, 0.0), u, k) > 0:
            raise ConfigError("inverse-CDF table draws k = 0 with probability 1; the model needs k > 0")

    @functools.cached_property
    def table(self) -> tuple[np.ndarray, np.ndarray]:
        """(u, k), the table as float arrays; interp on [0, 1] -> [0, k_max] draws the bits of uniform(0, k_max)."""
        if self.table_u is None:
            return np.array([0.0, 1.0]), np.array([0.0, self.k_max])
        return np.asarray(self.table_u, dtype=float), np.asarray(self.table_k, dtype=float)


def sample_disorder(config: DisorderConfig, box: BoxGeometry, index: int) -> np.ndarray:
    """k, the potential of realization ``index``: one float per site of the box, in site order.

    Each site takes k = interp(u, *config.table) at a u uniform on [0, 1),
    from a stream seeded with (master_seed, index), so any sample can be
    regenerated independently of execution order.  Draws k <= 0 are
    redrawn, since the model requires k > 0 pointwise, for at most
    DISORDER_REDRAWS rounds; a site still at k <= 0 after them raises
    NumericError.  A table with zero mass u* (k = 0 for u <= u*) fails so on
    n sites with probability at most n u*^DISORDER_REDRAWS.
    """
    rng = np.random.default_rng([int(config.master_seed), int(index)])
    u_tab, k_tab = config.table
    draw = lambda size: np.interp(rng.uniform(0.0, 1.0, size=size), u_tab, k_tab)
    k = draw(box.n_sites)
    bad = np.flatnonzero(k <= 0.0)
    rounds = 0
    while bad.size:
        if rounds == DISORDER_REDRAWS:
            u_star = float(np.max(u_tab[k_tab <= 0.0], initial=0.0))
            raise NumericError(
                f"inverse-CDF table {u_tab.tolist()} -> {k_tab.tolist()} (zero mass u* = {u_star!r}) "
                f"drew k <= 0 at {bad.size} sites in {DISORDER_REDRAWS} redraw rounds"
            )
        k[bad] = draw(bad.size)
        bad = bad[k[bad] <= 0.0]
        rounds += 1
    return k


@dataclass(frozen=True)
class Stencil:
    """h = diag(d) - A for the nearest-neighbour adjacency A of a box, kept as the box and d.

    d is a read-only float copy with one entry per site; the -1 entries of h
    sit on the edges of ``lattice._graph``, and ``e``, formed once and
    read-only too, lists them, one per edge.  With nu = 1 the edges run
    (0, 1), (1, 2), ..., so (d, e) is the chain's band.  ``np.asarray(h)``
    gives the dense form of h, and ``h @ x`` applies h to the columns of x
    in O(n) per column, by the neighbour slices that ``_graph``'s edges
    come from.
    """

    box: BoxGeometry
    d: np.ndarray
    e: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = np.array(self.d, dtype=float)
        if d.shape != (self.box.n_sites,):
            raise ValueError(f"need one diagonal entry per site of the box, got {d.shape} for {self.box.n_sites} sites")
        e = np.full(_graph(self.box)[0].size, -1.0)
        for name, value in (("d", d), ("e", e)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.d.size, self.d.size)

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


def _band_window(d: np.ndarray, e: np.ndarray, lambda0: float):
    """(eigenvalues, Z_S) of the band T = (d, e): every eigenvalue by ``dsterf`` and the
    eigenvectors of S by ``dstein``, or by ``dstevd`` where S is every mode, F-ordered.

    At lambda0 = inf S is every mode whatever the eigenvalues, so ``dstevd``
    alone runs and returns eigh's bits.  Otherwise ``dsterf`` on the whole
    band, the call ``spectrum`` makes, gives the eigenvalues, and ``dstein``
    takes the first |S| of them with T as one block.
    """
    if lambda0 == np.inf:
        return _lapack.dstevd(d, e)
    evals = _lapack.dsterf(d, e)
    count = _prefix_count(evals, lambda0)
    if count == d.size:
        return evals, _lapack.dstevd(d, e)[1]
    return evals, _lapack.dstein(d, e, evals[:count])


def _scale(h: Stencil) -> float:
    """max|h_ij|, or 1 for h = 0; NaN when an entry is not finite."""
    return float(np.max([np.abs(h.d).max(), np.abs(h.e).max(initial=0.0)])) or 1.0


def _require(err: float, tol: float, what: str):
    if not err <= tol:  # a NaN error fails too
        raise NumericError(f"{what} {err:.3e} exceeds {tol:.3e}")


def _max_abs(x: np.ndarray) -> float:
    """max|x|, taking the absolute values in place over x."""
    return float(np.max(np.abs(x, out=x), initial=0.0))


def _solve(h: Stencil, lambda0: float | None = None):
    """(eigenvalues, Phi_S) of h, Phi_S C-ordered and None for lambda0 None, by the route and
    contract of the module docstring.

    Raises TypeError unless h is a ``Stencil``, which is symmetric by
    construction, and ValueError unless its entries are finite.  A solver
    failure, an eigenvalue below the round-off band -1e-9 * max|h_ij| and
    each failed check are a NumericError; eigenvalues inside the band are
    clamped to zero (the model itself is positive).  Beside Phi_S the
    checks hold the residual, from which Phi_S Lambda_S is taken
    RESIDUAL_BLOCK columns at a time, then the Gram matrix, never both.
    """
    if not isinstance(h, Stencil):
        raise TypeError(f"h must be a Stencil, as assemble builds it, not a {type(h).__name__}")
    # the maximum propagates NaN, so a non-finite entry makes scale non-finite
    scale = _scale(h)
    if not np.isfinite(scale):
        raise ValueError("h must have finite entries")
    z = None
    try:
        if _lapack.binding() is None:
            if lambda0 is None:
                evals = np.linalg.eigvalsh(np.asarray(h))
            else:
                evals, z = np.linalg.eigh(np.asarray(h))
                z = z[:, : _prefix_count(evals, lambda0)]
        else:
            d, e, a = h.d, h.e, None
            if h.box.nu != 1:
                # a fresh dense stencil is exactly symmetric, so its transpose is the F-ordered copy dsytrd needs
                a = np.asarray(h).T
                d, e, tau = _lapack.dsytrd(a)
            if lambda0 is None:
                evals = _lapack.dsterf(d, e)
            else:
                evals, z = _band_window(d, e, lambda0)
                if a is not None:
                    _lapack.dormtr(a, tau, z)
            del a  # the reduced h goes before Z is copied
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed on a {h.shape[0]}x{h.shape[0]} matrix: {exc}") from exc
    modes = None if z is None else np.ascontiguousarray(z)
    del z  # and Z before the checks
    if evals[0] < -1e-9 * scale:
        raise NumericError(f"matrix has a negative eigenvalue {evals[0]:.3e}; not a valid h")
    evals = np.clip(evals, 0.0, None)
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
    if modes is None:
        return evals, None
    count = modes.shape[1]
    residual, lam = h @ modes, evals[:count]
    for start in range(0, count, RESIDUAL_BLOCK):
        cols = slice(start, start + RESIDUAL_BLOCK)
        residual[:, cols] -= modes[:, cols] * lam[cols]
    _require(_max_abs(residual), RECONSTRUCTION_RTOL * scale, "residual max|h Phi_S - Phi_S Lambda_S|")
    del residual
    gram = modes.T @ modes
    gram[np.diag_indices(count)] -= 1.0
    _require(_max_abs(gram), RECONSTRUCTION_RTOL, "orthonormality max|Phi_S^T Phi_S - I|")
    return evals, modes


def spectrum(h: Stencil) -> Spectrum:
    """Eigenvalues of h without eigenvectors, checked for accuracy.

    The accuracy contract is the pair of invariants
    |sum_j lambda_j - tr h| <= RECONSTRUCTION_RTOL * n * scale and
    |sum_j lambda_j^2 - ||h||_F^2| <= RECONSTRUCTION_RTOL * n * scale^2,
    with scale = max|h_ij|, tr h = sum d and ||h||_F^2 = sum d^2 + 2 sum e^2;
    a violation raises NumericError.  Validation and the clamping of
    round-off negatives are those of ``_solve``.
    """
    evals, _ = _solve(h)
    return Spectrum(eigenvalues=evals, gammas=np.sqrt(evals))


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
    ``_solve``.
    """
    evals, modes = _solve(h, lambda0)
    return SpectralData(eigenvalues=evals, gammas=np.sqrt(evals), modes=modes, h=h)


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
    return np.abs(spec.modes[sites]) @ (spec.localized_gammas**s * np.abs(spec.modes[int(x)]))


def propagator_sums(spec: SpectralData, x: int, right: np.ndarray, grid, powers):
    """The sums sum_{j in S} gamma_j^s phi_j(x) R_jk u(2 t gamma_j) for each s in ``powers``.

    u is cos for s = 0 and sin for s = -1, +1.  R = ``right`` has a row per
    mode of S.  With R = Phi_S[sites]^T the sum at column k is the
    coefficient <delta_x, h^{s/2} u(2t sqrt(h)) X delta_y> of a restricted
    position/momentum commutator at y = sites[k], and |sum| <= Q_s(x, y) at
    every t.  ``grid`` is (start, stop, points), the times
    np.linspace(start, stop, points), of which only each block's first is
    computed; points < 1 is a ValueError.  Returns an iterator over the
    blocks of TIME_BLOCK consecutive times: each item is (sums, (cos, sin)),
    sums one (block, columns of R) array per power, in the order of
    ``powers``, and cos and sin the block's phase tables cos(2 t gamma_j)
    and sin(2 t gamma_j) (block, |S|), which the next block overwrites.  Per
    block both phase tables are formed once, scaled by gamma^s phi_x into
    one buffer per power in turn and multiplied by R.
    """
    start, stop, points = grid
    if points < 1:
        raise ValueError(f"a time grid needs at least one point, got {points}")
    _checked_sites(spec, x, [])
    gam = spec.localized_gammas
    if right.shape[0] != gam.size:
        raise ValueError(f"R has {right.shape[0]} rows for {gam.size} modes")
    scales = [spec.modes[int(x)] * gam**s for s in powers]
    return _propagator_blocks(gam, (float(start), float(stop), points), powers, scales, right)


def _grid_time(grid, i: int) -> float:
    """Entry i of np.linspace(*grid) by np.linspace's own arithmetic, bit for bit, without forming the grid."""
    start, stop, points = grid
    div, delta = points - 1, stop - start
    if i == div > 0:
        return stop
    step = delta / div if div else 0.0
    # np.linspace scales i by delta where the step is undefined (one point) or zero (a subnormal span)
    return (i / max(div, 1) * delta if step == 0 else i * step) + start


def _propagator_blocks(gam, grid, powers, scales, right):
    """The blocks of ``propagator_sums``.

    The phases of a block come from its first row, evaluated directly, by
    angle addition with one table of cos and sin of 2 k step gamma_j,
    k < TIME_BLOCK, shared by all blocks: a few products in place of a sine
    and a cosine per entry.
    """
    points = grid[2]
    step = (_grid_time(grid, points - 1) - _grid_time(grid, 0)) / max(points - 1, 1)
    shape = (min(TIME_BLOCK, points), gam.size)
    cos_buf, sin_buf = np.empty(shape), np.empty(shape)
    # the scaled tables of all powers, stacked, so that each block takes one product with R
    stacked = np.empty((len(powers) * shape[0], gam.size))
    offsets = 2.0 * (np.arange(shape[0]) * step)[:, None] * gam
    cos_off, sin_off = np.cos(offsets), np.sin(offsets, out=offsets)
    for start in range(0, points, TIME_BLOCK):
        n = min(TIME_BLOCK, points - start)
        cos, sin, scaled = cos_buf[:n], sin_buf[:n], stacked[: len(powers) * n]
        # cos(a + b) = cos a cos b - sin a sin b, sin(a + b) = sin a cos b + cos a sin b
        first = 2.0 * _grid_time(grid, start) * gam
        cos_a, sin_a, spare = np.cos(first), np.sin(first), scaled[:n]
        np.multiply(cos_off[:n], cos_a, out=cos)
        cos -= np.multiply(sin_off[:n], sin_a, out=spare)
        np.multiply(sin_off[:n], cos_a, out=sin)
        sin += np.multiply(cos_off[:n], sin_a, out=spare)
        for i, (s, w) in enumerate(zip(powers, scales)):
            np.multiply(cos if s == 0 else sin, w, out=scaled[i * n : (i + 1) * n])
        product = scaled @ right
        yield tuple(product[i * n : (i + 1) * n] for i in range(len(powers))), (cos, sin)


def _checked_sites(spec: SpectralData, x: int, sites) -> np.ndarray:
    """``sites`` as an index array; ValueError unless it and x lie in the box."""
    n = spec.n
    sites = np.asarray(sites, dtype=int)
    if not 0 <= int(x) < n or np.any((sites < 0) | (sites >= n)):
        raise ValueError(f"site index outside 0..{n - 1}")
    return sites
