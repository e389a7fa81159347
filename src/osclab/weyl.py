"""Diagonal elements of Weyl operators in the occupation basis, for a family of occupation vectors.

Through C_f = exp(-||1_{S^c} V f||^2 / 4) and the Weyl relation
W(f) W(g) = exp(-(i/2) Im<f, g>) W(f + g), inner products antilinear in
the first argument, the paper's restricted quantities (commutator norms,
dynamic correlations, quasi-locality errors) reduce to phases, C-factors
and diagonal products prod_j <a_j|W_{z_j}|a_j> = prod_j L_{a_j}(x_j)
e^{-x_j/2}, with x_j = |z_j|^2 / 2.  This module forms those products:
``OccupationFamily`` for every vector of a family at once, from the
Laguerre values of ``_laguerre_orders``.  The kernels of ``ensembles``
take z from ``anderson.propagator_sums`` and
``anderson.eigencorrelator_profile``, and C_f of f = a delta_x from the
tails ``anderson.tails`` forms.  The reference layer ``fock_oracle``
checks them: its truncated-Fock operators (``OracleBundle``) on boxes of
at most three modes, and its ``correlation_series`` and field maps on
larger boxes.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# The Laguerre recurrence and the diagonal products
# ---------------------------------------------------------------------------

def _laguerre_orders(top: int, out):
    """Fill out[m - 1] with L_m(x) for m = 2..top by the stable three-term recurrence, from
    L_1(x) = 1 - x, which out[0] holds.

    The pipeline's recurrence: every Laguerre value the kernels read comes
    from here, and ``fock_oracle.laguerre`` checks it independently.  It
    reads x only through L_1, as 2m + 1 - x = 2m + L_1(x), so a caller may
    write L_1 straight into out[0].  L_0 = 1 is left to the caller, so no
    table of ones is built.  ``out`` holds top + 1 float arrays of one
    shape, out[top] scratch, so a caller that keeps them across calls
    allocates nothing.
    """
    l1 = out[0]
    prev, cur = 1.0, l1
    for m in range(1, top):
        # ((2m + L_1) L_m - m L_{m-1}) / (m + 1), one operation at a time
        nxt = np.add(l1, 2 * m, out=out[m])
        nxt *= cur
        nxt -= np.multiply(prev, m, out=out[top])
        nxt /= m + 1
        prev, cur = cur, nxt


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
    and a table of signs too once the general path needs one, so repeated
    calls on one shape allocate nothing of the size of x.
    The recurrence reads x only through L_1(x) = 1 - x, so a caller whose
    L_1 is base * scale + shift calls ``affine``, which writes it straight
    into the table and forms no array of x.  A call on x is ``affine`` of
    base x, scale -1 and shift 1, the one way the table is filled.
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
        self._signs = {}

    def __call__(self, x, x_sum=None) -> np.ndarray:
        """The products at x; ``x_sum`` is sum_j x_j over the last axis if the caller has it."""
        x = np.asarray(x, dtype=float)
        # (-1) x + 1 rounds exactly as 1 - x
        return self.affine(x, -1.0, 1.0, x.sum(axis=-1) if x_sum is None else x_sum)

    def affine(self, base, scale, shift, x_sum) -> np.ndarray:
        """The products at the x whose L_1(x) = 1 - x is base * scale + shift, modes on the last axis.

        L_1 goes straight into the family's table, so no array of x is
        formed; ``x_sum``, sum_j x_j over the last axis, comes from the caller.
        """
        shape = np.broadcast_shapes(np.shape(base), np.shape(scale), np.shape(shift))
        if len(shape) < 1 or shape[-1] != self.alphas.shape[1]:
            raise ValueError("need x with one entry per mode on the last axis")
        table, slots = self._slots(shape)
        if self.orders:
            np.multiply(base, scale, out=slots[0])
            slots[0] += shift
            _laguerre_orders(len(slots) - 1, slots)
        # NaN fails the test and takes the general path
        return self._finish(table, x_sum, positive=bool(table.min(initial=np.inf) > 0.0))

    def _slots(self, shape):
        """(table, slots) for x of ``shape``: the (..., K, m) table of L_k for the K orders in use, and
        the buffers of ``_laguerre_orders``, kept per shape."""
        if shape not in self._buffers:
            table = np.empty(shape[:-1] + (len(self.orders), shape[-1]))
            # L_k goes straight into its table row; orders the family skips
            # and the recurrence's scratch get buffers of their own
            top = max(self.orders, default=0)
            slots = [
                table[..., self.orders.index(k), :] if k in self.orders else np.empty(shape)
                for k in range(1, top + 1)
            ]
            slots.append(np.empty(shape) if top > 1 else None)
            self._buffers[shape] = table, slots
        return self._buffers[shape]

    def _finish(self, table: np.ndarray, x_sum, positive: bool) -> np.ndarray:
        """Turn a filled table into the products; ``positive`` says every factor is > 0."""
        lead, size = table.shape[:-2], table.shape[-2] * table.shape[-1]
        logs = table.reshape(lead + (size,))
        if positive:
            np.log(logs, out=logs)
        else:
            if logs.shape not in self._signs:
                self._signs[logs.shape] = np.empty(logs.shape)
            signs = self._signs[logs.shape]
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
        # the family's axis first; np.moveaxis costs more than the products at small sizes
        return out.transpose(-1, *range(out.ndim - 1))
