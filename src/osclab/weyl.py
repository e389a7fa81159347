"""Closed-form Weyl-operator algebra on the regime of localized excitations.

Everything here works with displacement data, never with operator matrices:
a Weyl operator W(f) is determined by its mode displacement vector V f, and
products follow the Weyl relation

    W(f) W(g) = exp(-(i/2) Im<f, g>) W(f + g),

whose phase is preserved by V (the map preserves the symplectic form).
Inner products are antilinear in the first argument throughout.

Matrix elements in the occupation basis are Laguerre expressions: for
n <= k,

    <n|W_z|k> = sqrt(n!/k!) (i conj(z)/sqrt(2))^{k-n}
                L_n^{(k-n)}(|z|^2/2) exp(-|z|^2/4),

and the n > k case follows by conjugation, <n|W_z|k> = conj(<k|W_{-z}|n>).
Factorial ratios and powers are assembled in log space; against an mpmath
reference the absolute error stays below 1e-12 for occupations up to 300
and |z| up to 30, the range the tests cover.

Restriction to the localized regime enters through the scalar
C_f = exp(-||1_{S^c} V f||^2 / 4): the restricted operator equals
C_f W(X f) P and has norm C_f.  The exact restricted quantities below
(commutator norms, dynamic correlations, quasi-locality errors) all reduce
to phases, C-factors and diagonal matrix elements.  For delta fields the
experiment kernels evaluate the same quantities in batched form from
``anderson.propagator_sums``, ``anderson.eigencorrelator_profile`` and
``diagonal_products``, and are tested against the forms here.
"""

from __future__ import annotations

from math import lgamma

import numpy as np

from .anderson import SpectralData, localized_modes, propagator_sums
from .freeboson import support, v_map
from .lattice import BoxGeometry, neighborhood


# ---------------------------------------------------------------------------
# Laguerre polynomials and one-mode matrix elements
# ---------------------------------------------------------------------------

def _laguerre_orders(top: int, x: np.ndarray, k: int = 0):
    """Yield (m, L_m^{(k)}(x)) for m = 1..top by the stable three-term recurrence.

    The single implementation of the recurrence; every Laguerre value in
    this module comes from here.  L_0 = 1 is left to the caller, so no
    table of ones is built.
    """
    if top == 0:
        return
    prev, cur = 1.0, 1.0 + k - x
    yield 1, cur
    for m in range(1, top):
        prev, cur = cur, ((2 * m + k + 1 - x) * cur - (m + k) * prev) / (m + 1)
        yield m + 1, cur


def laguerre(n: int, k: int, x) -> float | np.ndarray:
    """Generalized Laguerre L_n^{(k)}(x) by the stable three-term recurrence."""
    if n < 0 or k < 0:
        raise ValueError("laguerre needs n, k >= 0")
    x = np.asarray(x, dtype=float)
    cur = np.ones_like(x)
    for _, cur in _laguerre_orders(n, x, k):
        pass
    return float(cur) if cur.ndim == 0 else cur


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
    return _laguerre_plain(alphas, x) * np.exp(-x / 2.0)


#: Stand-in for log 0 in the exponent matmuls of ``diagonal_products``:
#: finite, so a zero indicator times it is 0 rather than NaN, and so far
#: below log of the smallest double (about -745) that exp of any sum
#: containing it is exactly 0; m copies of it still sum to a finite number.
_LOG_ZERO = -1e300


def diagonal_products(alphas, x) -> np.ndarray:
    """prod_j L_{alpha_j}(x_j) exp(-x_j/2) for every row alpha of a family.

    ``alphas`` is an (A, m) array of occupation vectors and ``x`` holds
    x_j = |z_j|^2 / 2 with shape (..., m), modes on the last axis.  The
    result has shape (A, ...): the diagonal element <psi_alpha, W_z psi_alpha>
    for each alpha and each leading index of ``x``.

    The product is taken in log space for the whole family at once.  With
    the one-mode values L_k(x) from one recurrence pass,

        log|D_alpha| = -sum_j x_j / 2 + sum_{k>=1} log|L_k(x)| @ 1[alpha = k],

    and the sign of D_alpha is the parity of
    sum_{k>=1} [L_k(x) < 0] @ 1[alpha = k].  Each order k >= 1 that the
    family uses costs one elementwise log and signbit over x; both tables
    of every such order go through one matrix product against the
    indicators 1[alpha = k], and the vacuum order costs only the row sum.
    An exactly zero factor enters as ``_LOG_ZERO`` and gives exactly 0.

    The exponent equals sum_j (log|L_{alpha_j}(x_j)| - x_j/2), and each
    term is at most 0 for x_j >= 0 because |L_k(x)| e^{-x/2} <= 1, so exp
    cannot overflow however many modes enter.  The relative error of the
    result is about machine epsilon times the size of the exponent's
    terms.  Neither the exponent nor the result is clipped.
    """
    alphas = np.asarray(alphas, dtype=int)
    x = np.asarray(x, dtype=float)
    if alphas.ndim != 2 or x.ndim < 1 or x.shape[-1] != alphas.shape[1]:
        raise ValueError("need an (A, m) occupation family and x with m entries on the last axis")
    if np.any(alphas < 0):
        raise ValueError("occupations must be nonnegative")
    # log|L_k(x)| and [L_k(x) < 0] for the K orders k >= 1 the family uses,
    # shape (2, ..., K, m), against the (K * m, A) indicators 1[alpha = k]
    orders = [k for k in range(1, int(alphas.max(initial=0)) + 1) if np.any(alphas == k)]
    lead, m = x.shape[:-1], x.shape[-1]
    table = np.empty((2,) + lead + (len(orders), m))
    for k, lag in _laguerre_orders(max(orders, default=0), x):
        if k in orders:
            i = orders.index(k)
            log_abs = np.abs(lag, out=table[0, ..., i, :])
            with np.errstate(divide="ignore"):
                np.log(log_abs, out=log_abs)
            # moves only log 0 = -inf: every finite log|L| is above -745
            np.maximum(log_abs, _LOG_ZERO, out=log_abs)
            np.signbit(lag, out=table[1, ..., i, :])
    hits = (np.asarray(orders, dtype=int)[:, None, None] == alphas.T).reshape(-1, alphas.shape[0])
    # C order: the comparison leaves a transposed layout, on which the product is slower
    log_sum, negatives = table.reshape((2,) + lead + (len(orders) * m,)) @ hits.astype(float, order="C")
    sign = 1.0 - 2.0 * np.fmod(negatives, 2.0)
    return np.moveaxis(sign * np.exp(log_sum - 0.5 * x.sum(axis=-1, keepdims=True)), -1, 0)


def matrix_element(spec: SpectralData, alpha, beta, f) -> complex:
    """<psi_alpha, W(f) psi_beta> as the product of one-mode elements."""
    alpha = np.asarray(alpha, dtype=int)
    beta = np.asarray(beta, dtype=int)
    if alpha.shape != (spec.n,) or beta.shape != (spec.n,):
        raise ValueError("occupation vectors must have one entry per mode")
    z = v_map(spec, np.asarray(f, dtype=complex))
    out = 1.0 + 0.0j
    for a, b, zj in zip(alpha, beta, z):
        out *= matrix_element_1d(int(a), int(b), zj)
        if out == 0.0:
            break
    return out


# ---------------------------------------------------------------------------
# Restriction to the localized regime
# ---------------------------------------------------------------------------

def _split_vmap(spec: SpectralData, lambda0: float, f):
    """V f together with the localized-mode mask and the constant C_f."""
    w = v_map(spec, np.asarray(f, dtype=complex))
    S = localized_modes(spec, lambda0)
    mask = np.zeros(spec.n, dtype=bool)
    mask[S] = True
    tail = np.sum(np.abs(w[~mask]) ** 2)
    return w, S, mask, float(np.exp(-0.25 * tail))


def restriction_constant(spec: SpectralData, lambda0: float, f) -> float:
    """C_f = exp(-||1_{S^c} V f||^2 / 4); equals 1 iff V f lives on S."""
    return _split_vmap(spec, lambda0, f)[3]


# ---------------------------------------------------------------------------
# Lieb-Robinson commutators
# ---------------------------------------------------------------------------

def symplectic_phase_on_grid(spec: SpectralData, lambda0: float, f, g, times) -> np.ndarray:
    """Im<X f_t, X g> for each t in ``times``.

    Per localized mode the integrand is exp(-2 i t gamma_j) conj(Vf)_j (Vg)_j,
    so the result is a cosine/sine sum evaluated directly on the grid.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    wf, S, _, _ = _split_vmap(spec, lambda0, f)
    wg = v_map(spec, np.asarray(g, dtype=complex))
    if S.size == 0:
        return np.zeros(times.shape)
    c = np.conj(wf[S]) * wg[S]
    ang = 2.0 * times[:, None] * spec.gammas[S][None, :]
    return np.cos(ang) @ c.imag - np.sin(ang) @ c.real


def mode_product_sum(spec: SpectralData, lambda0: float, f, g) -> float:
    """sum_j |(V X f_t)(j) (V X g)(j)|, independent of t.

    Dominates |Im<X f_t, X g>| for every time; this is the per-realization
    envelope behind the commutator and correlation bounds.
    """
    wf, S, _, _ = _split_vmap(spec, lambda0, f)
    wg = v_map(spec, np.asarray(g, dtype=complex))
    return float(np.sum(np.abs(wf[S]) * np.abs(wg[S])))


def lr_weyl_commutator_norm(spec: SpectralData, lambda0: float, f, g, t: float) -> float:
    """Exact norm of [tau_t(W(f)_I), W(g)_I].

    Equals C_f C_g |exp(-i Im<X f_t, X g>) - 1| by the restriction lemma and
    the Weyl relations; bounded by C_f C_g |Im<X f_t, X g>|.
    """
    _, _, _, cf = _split_vmap(spec, lambda0, f)
    _, _, _, cg = _split_vmap(spec, lambda0, g)
    theta = float(symplectic_phase_on_grid(spec, lambda0, f, g, t)[0])
    return cf * cg * float(np.abs(np.exp(-1j * theta) - 1.0))


def lr_envelope(spec: SpectralData, lambda0: float, f, g) -> float:
    """Time-uniform envelope C_f C_g min(2, sum_j |(Vf)_j (Vg)_j| over S)."""
    _, _, _, cf = _split_vmap(spec, lambda0, f)
    _, _, _, cg = _split_vmap(spec, lambda0, g)
    return cf * cg * min(2.0, mode_product_sum(spec, lambda0, f, g))


def pq_commutator_matrix(spec: SpectralData, lambda0: float, x: int, y: int, t: float) -> np.ndarray:
    """Scalar coefficients of the four restricted position/momentum commutators.

    Returns the 2x2 real array
        [[-<dx, h^{-1/2} sin(2t sqrt(h)) X dy>,  <dx, cos(2t sqrt(h)) X dy>],
         [-<dx, cos(2t sqrt(h)) X dy>,          -<dx, h^{1/2} sin(2t sqrt(h)) X dy>]];
    each commutator equals i times its coefficient times the regime projection.
    The entries are ``anderson.propagator_sums`` at one site y and one time t.
    """
    sin_minus, cos_sum, sin_plus = (
        float(v[0, 0]) for v in propagator_sums(spec, lambda0, x, [y], [t], (-1, 0, 1))
    )
    return np.array([[-sin_minus, cos_sum], [-cos_sum, -sin_plus]])


# ---------------------------------------------------------------------------
# Dynamic correlations
# ---------------------------------------------------------------------------

def _check_alpha(alpha, n: int, S_mask: np.ndarray) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=int)
    if alpha.shape != (n,):
        raise ValueError("occupation vector must have one entry per mode")
    if np.any(alpha < 0):
        raise ValueError("occupations must be nonnegative")
    if np.any(alpha[~S_mask] != 0):
        raise ValueError("occupation vector must be supported on the localized modes")
    return alpha


def dynamic_correlation(spec: SpectralData, lambda0: float, alpha, f, g, t: float) -> complex:
    """Restricted dynamic correlation of W(f), W(g) in the eigenstate psi_alpha.

    Closed form: with eta = V X f_t and xi = V X g,

        C_f C_g ( e^{-i Im<eta, xi> / 2} prod_j <a_j|W_{eta_j + xi_j}|a_j>
                  - prod_j <a_j|W_{eta_j}|a_j> prod_j <a_j|W_{xi_j}|a_j> ).
    """
    wf, S, mask, cf = _split_vmap(spec, lambda0, f)
    wg, _, _, cg = _split_vmap(spec, lambda0, g)
    alpha = _check_alpha(alpha, spec.n, mask)
    eta = np.where(mask, np.exp(2j * t * spec.gammas) * wf, 0.0)
    xi = np.where(mask, wg, 0.0)
    theta = float(np.sum(np.imag(np.conj(eta) * xi)))
    x = np.stack([_half_modulus_sq(eta + xi), _half_modulus_sq(eta), _half_modulus_sq(xi)])
    joint, d_eta, d_xi = diagonal_products(alpha[None, :], x)[0]
    return cf * cg * (np.exp(-0.5j * theta) * joint - d_eta * d_xi)


# ---------------------------------------------------------------------------
# Quasi-locality
# ---------------------------------------------------------------------------

def _tail_displacements(
    spec: SpectralData, box: BoxGeometry, lambda0: float, f, region, n: int, t: float
):
    """V f_{n,t} with f_{n,t} = X 1_{outside X(n)} X f_t, plus C_f.

    ``region`` is the support set X of f; the neighborhood X(n) is taken in
    the box geometry.
    """
    f = np.asarray(f, dtype=complex)
    region_idx = np.unique(np.asarray(list(region), dtype=int))
    if not set(support(f)).issubset(set(region_idx.tolist())):
        raise ValueError("f must be supported inside the given region")
    wf, S, mask, cf = _split_vmap(spec, lambda0, f)
    grown = neighborhood(box, region_idx, int(n))
    outside = np.ones(box.n_sites, dtype=bool)
    outside[grown] = False
    # X f_t in position space, chopped to the complement of X(n)
    projected = np.where(mask, np.exp(2j * t * spec.gammas) * wf, 0.0)
    re = spec.modes @ (np.sqrt(spec.gammas) * projected.real)
    im = spec.modes @ (projected.imag / np.sqrt(spec.gammas))
    chopped = (re + 1j * im) * outside
    w = v_map(spec, chopped)
    return np.where(mask, w, 0.0), cf


def quasi_locality_error(
    spec: SpectralData,
    box: BoxGeometry,
    lambda0: float,
    alpha,
    f,
    region,
    n: int,
    t: float,
) -> float:
    """Exact distance ||(tau_t(W(f)) - W_hat)_I psi_alpha||.

    W_hat is the strictly local approximation supported on the
    n-neighborhood of the region; the difference reduces to
    C_f sqrt(2 - 2 Re prod_j <a_j|W_{(V f_{n,t})_j}|a_j>).
    """
    _, S, mask, _ = _split_vmap(spec, lambda0, f)
    alpha = _check_alpha(alpha, spec.n, mask)
    w, cf = _tail_displacements(spec, box, lambda0, f, region, n, t)
    diag = float(diagonal_products(alpha[None, :], _half_modulus_sq(w))[0])
    return cf * float(np.sqrt(max(0.0, 2.0 - 2.0 * diag)))


def quasi_locality_bound(
    spec: SpectralData,
    box: BoxGeometry,
    lambda0: float,
    f,
    region,
    n: int,
    t: float,
    kappa: int,
) -> float:
    """Dominating bound sqrt(2 (kappa + 1)) ||V f_{n,t}||_2."""
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    w, _ = _tail_displacements(spec, box, lambda0, f, region, n, t)
    return float(np.sqrt(2.0 * (kappa + 1)) * np.linalg.norm(w))
