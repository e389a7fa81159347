"""Closed-form Weyl-operator algebra on the regime of localized excitations.

Everything here works with displacement data, never with operator matrices:
a Weyl operator W(f) is determined by its mode displacement vector V f
(``freeboson.v_map``), and products follow the Weyl relation

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
C_f W(X f) P and has norm C_f.  The exact restricted quantities
(commutator norms, dynamic correlations, quasi-locality errors) therefore
reduce to phases, C-factors and diagonal products
prod_j <a_j|W_{z_j}|a_j>.  The experiment kernels of ``ensembles``
evaluate them for delta fields in batched form, from
``anderson.propagator_sums``, ``anderson.eigencorrelator_profile`` and
``OccupationFamily``.  The kernels are checked directly against the
truncated-Fock oracle (``fock_oracle.OracleBundle``) on boxes of at most
three modes, and against ``fock_oracle.correlation_series`` and the field
maps of ``freeboson`` on larger boxes.
"""

from __future__ import annotations

from math import lgamma

import numpy as np


# ---------------------------------------------------------------------------
# Laguerre polynomials and one-mode matrix elements
# ---------------------------------------------------------------------------

def _laguerre_orders(top: int, x: np.ndarray, k: int = 0, out=None):
    """Yield (m, L_m^{(k)}(x)) for m = 1..top by the stable three-term recurrence.

    The single implementation of the recurrence; every Laguerre value in
    this package comes from here.  L_0 = 1 is left to the caller, so no
    table of ones is built.  ``out`` may supply top + 1 float arrays of the
    shape of ``x``: L_m is written into out[m - 1] and out[top] is scratch,
    so a caller that keeps them across calls allocates nothing.  Without
    ``out`` each order gets a fresh array.
    """
    if top == 0:
        return
    if out is None:
        out = [np.empty(np.shape(x)) for _ in range(top + 1)]
    scratch = out[top]
    prev, cur = 1.0, np.subtract(1.0 + k, x, out=out[0])
    yield 1, cur
    for m in range(1, top):
        # ((2m + k + 1 - x) L_m - (m + k) L_{m-1}) / (m + 1), one operation at a time
        nxt = np.subtract(2 * m + k + 1, x, out=out[m])
        nxt *= cur
        nxt -= np.multiply(prev, m + k, out=scratch)
        nxt /= m + 1
        prev, cur = cur, nxt
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


#: Stand-in for log 0 in the exponent matmuls of ``OccupationFamily``:
#: finite, so a zero indicator times it is 0 rather than NaN, and so far
#: below log of the smallest double (about -745) that exp of any sum
#: containing it is exactly 0; m copies of it still sum to a finite number.
_LOG_ZERO = -1e300


class OccupationFamily:
    """prod_j L_{alpha_j}(x_j) exp(-x_j/2) for every row alpha of a fixed family.

    ``alphas`` is an (A, m) array of occupation vectors; calling the family
    on x, which holds x_j = |z_j|^2 / 2 with shape (..., m), modes on the
    last axis, returns shape (A, ...): the diagonal element
    <psi_alpha, W_z psi_alpha> for each alpha and each leading index of x.

    The product is taken in log space for the whole family at once.  With
    the one-mode values L_k(x) from one recurrence pass,

        log|D_alpha| = -sum_j x_j / 2 + sum_{k>=1} log|L_k(x)| @ 1[alpha = k],

    and the sign of D_alpha is the parity of
    sum_{k>=1} [L_k(x) < 0] @ 1[alpha = k].  Each order k >= 1 that the
    family uses costs one table of L_k over x, and the vacuum order costs
    only the row sum.  An exactly zero factor enters as ``_LOG_ZERO`` and
    gives exactly 0.  When every factor is positive, which one minimum over
    the tables shows, the signs are all + and the clamp moves nothing, so
    the logs are taken directly and only they go through the product with
    the indicators 1[alpha = k]; the result is bitwise that of the general
    path.

    The exponent equals sum_j (log|L_{alpha_j}(x_j)| - x_j/2), and each
    term is at most 0 for x_j >= 0 because |L_k(x)| e^{-x/2} <= 1, so exp
    cannot overflow however many modes enter.  The relative error of the
    result is about machine epsilon times the size of the exponent's
    terms.  Neither the exponent nor the result is clipped.

    The family is validated, and its orders and (K m, A) indicator matrix
    built, once; the tables and recurrence buffers are kept per shape of x,
    so repeated calls on one shape allocate nothing of the size of x.
    """

    def __init__(self, alphas):
        alphas = np.asarray(alphas, dtype=int)
        if alphas.ndim != 2:
            raise ValueError("need an (A, m) occupation family")
        if np.any(alphas < 0):
            raise ValueError("occupations must be nonnegative")
        self.alphas = alphas
        self.orders = [k for k in range(1, int(alphas.max(initial=0)) + 1) if np.any(alphas == k)]
        # C order: the comparison leaves a transposed layout, on which the product is slower
        hits = np.asarray(self.orders, dtype=int)[:, None, None] == alphas.T
        self._hits = hits.reshape(-1, alphas.shape[0]).astype(float, order="C")
        self._buffers = {}

    def __call__(self, x, x_sum=None) -> np.ndarray:
        """The products at x; ``x_sum`` is sum_j x_j over the last axis if the caller has it."""
        x = np.asarray(x, dtype=float)
        if x.ndim < 1 or x.shape[-1] != self.alphas.shape[1]:
            raise ValueError("need x with one entry per mode on the last axis")
        if x_sum is None:
            x_sum = x.sum(axis=-1)
        table = self._fill(x)
        # NaN fails the test and takes the general path
        return self._finish(table, x_sum, positive=bool(table[0].min(initial=np.inf) > 0.0))

    def _fill(self, x: np.ndarray) -> np.ndarray:
        """(2, ..., K, m) table whose first half holds L_k(x) for the K orders in use."""
        if x.shape not in self._buffers:
            table = np.empty((2,) + x.shape[:-1] + (len(self.orders), x.shape[-1]))
            # L_k goes straight into its table row; orders the family skips
            # and the recurrence's scratch get buffers of their own
            top = max(self.orders, default=0)
            slots = [
                table[0, ..., self.orders.index(k), :] if k in self.orders else np.empty(x.shape)
                for k in range(1, top + 1)
            ]
            slots.append(np.empty(x.shape) if top > 1 else None)
            self._buffers[x.shape] = table, slots
        table, slots = self._buffers[x.shape]
        for _ in _laguerre_orders(len(slots) - 1, x, out=slots):
            pass
        return table

    def _finish(self, table: np.ndarray, x_sum, positive: bool) -> np.ndarray:
        """Turn a filled table into the products; ``positive`` says every factor is > 0."""
        lead, size = table.shape[1:-2], table.shape[-2] * table.shape[-1]
        logs = table[0].reshape(lead + (size,))
        if positive:
            np.log(logs, out=logs)
        else:
            signs = table[1].reshape(lead + (size,))
            np.signbit(logs, out=signs)
            np.abs(logs, out=logs)
            with np.errstate(divide="ignore"):
                np.log(logs, out=logs)
            # moves only log 0 = -inf: every finite log|L| is above -745
            np.maximum(logs, _LOG_ZERO, out=logs)
        out = logs @ self._hits
        out -= 0.5 * np.asarray(x_sum)[..., None]
        np.exp(out, out=out)
        if not positive:
            out *= 1.0 - 2.0 * np.fmod(signs @ self._hits, 2.0)
        return np.moveaxis(out, -1, 0)
