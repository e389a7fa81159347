"""LAPACK's symmetric eigensolver pieces, bound with ctypes.

``dsterf`` (eigenvalues only, Pal-Walker-Kahan QR) and ``dstevd`` (divide
and conquer, with eigenvectors) solve a tridiagonal matrix from its band,
and ``dstein`` (inverse iteration, the routine behind ``dsyevx``) finds the
eigenvectors of chosen eigenvalues only.  The h of a box with nu >= 2 is
first reduced, in place in its dense form, to such a band by ``dsytrd``,
h = Q T Q^T, and ``dormtr`` applies Q to any set of columns.  ``dsytrd`` and ``dsterf`` are the two routines
``dsyevd`` runs without eigenvectors, and ``dsytrd``, ``dstevd`` and
``dormtr`` on all n columns the three it runs with them, so they return the
bits of numpy's ``eigvalsh`` and ``eigh``.  ``dstein``'s vectors are not
``eigh``'s; callers check them.  The routines are taken from the LAPACK that
numpy's own ``eigvalsh``/``eigh`` call: dlsym on numpy's ``_umath_linalg``
extension also searches the libraries it links.  On a tridiagonal matrix
``eigvalsh``/``eigh`` reduce h with identity reflectors and then solve the
band with the routines ``dsterf``/``dstevd`` call, so every band result
here agrees with numpy's bit for bit.  Only the 64-bit-integer (ILP64)
builds that numpy's wheels ship are bound; elsewhere ``binding`` returns
None and callers keep ``np.linalg``.

Every array goes to LAPACK as a plain address, after its dtype, layout and
writeability are checked here; numpy's ``ndpointer`` arguments would leave
a reference cycle per array.  This is the only module that touches foreign
functions.
"""

from __future__ import annotations

import ctypes
import functools
from types import SimpleNamespace

import numpy as np

#: (dsterf, dstevd, dstein, dsytrd, dormtr) symbol names: numpy >= 2 wheels (scipy-openblas64),
#: numpy 1.x wheels (openblas64_).
SYMBOLS = (
    ("scipy_dsterf_64_", "scipy_dstevd_64_", "scipy_dstein_64_", "scipy_dsytrd_64_", "scipy_dormtr_64_"),
    ("dsterf_64_", "dstevd_64_", "dstein_64_", "dsytrd_64_", "dormtr_64_"),
)

#: The block-reflector table (65 x 64) that DORMQR/DORMQL need on top of the
#: workspace DORMTR's query reports before they run blocked.
_ORMQR_TABLE = 65 * 64


@functools.cache
def binding() -> SimpleNamespace | None:
    """``dsterf``, ``dstevd``, ``dstein``, ``dsytrd`` and ``dormtr`` of numpy's LAPACK,
    bound on first use; None if it exports no complete set of names."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    # every argument is an address, a character or a hidden string length
    # that Fortran compilers append, one per character argument
    p, c, length = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_size_t
    argtypes = {
        # DSTERF(N, D, E, INFO)
        "dsterf": [p] * 4,
        # DSTEVD(JOBZ, N, D, E, Z, LDZ, WORK, LWORK, IWORK, LIWORK, INFO)
        "dstevd": [c] + [p] * 10 + [length],
        # DSTEIN(N, D, E, M, W, IBLOCK, ISPLIT, Z, LDZ, WORK, IWORK, IFAIL, INFO)
        "dstein": [p] * 13,
        # DSYTRD(UPLO, N, A, LDA, D, E, TAU, WORK, LWORK, INFO)
        "dsytrd": [c] + [p] * 9 + [length],
        # DORMTR(SIDE, UPLO, TRANS, M, N, A, LDA, TAU, C, LDC, WORK, LWORK, INFO)
        "dormtr": [c] * 3 + [p] * 10 + [length] * 3,
    }
    for names in SYMBOLS:
        try:
            functions = [getattr(lib, name) for name in names]
        except AttributeError:
            continue
        for function, types in zip(functions, argtypes.values()):
            function.argtypes = types
            function.restype = None
        return SimpleNamespace(**dict(zip(argtypes, functions)))
    return None


def _int(value: int):
    return ctypes.byref(ctypes.c_int64(value))


def _ptr(arr: np.ndarray, order: str = "C", dtype=np.float64):
    """The address of a writeable array of ``dtype``, contiguous in ``order``."""
    contiguous = arr.flags.c_contiguous if order == "C" else arr.flags.f_contiguous
    if arr.dtype != dtype or not contiguous or not arr.flags.writeable:
        raise ValueError(f"LAPACK needs a writeable {order}-contiguous {np.dtype(dtype).name} array")
    return ctypes.c_void_p(arr.ctypes.data)


def _band(d, e):
    """Float64 copies of the diagonal and of the subdiagonal, padded by one entry; LAPACK overwrites both."""
    d = np.array(d, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    if d.ndim != 1 or d.size == 0 or e.shape != (d.size - 1,):
        raise ValueError("need a nonempty diagonal d and a subdiagonal e of length d.size - 1")
    # E(N) is never read, but the pointer must be valid for N = 1
    return d, np.append(e, 0.0)


def _check(info: ctypes.c_int64, name: str):
    if info.value != 0:
        raise np.linalg.LinAlgError(f"{name} failed with info = {info.value}")


def dsterf(d, e) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal matrix with diagonal d and off-diagonal e."""
    d, e = _band(d, e)
    info = ctypes.c_int64(0)
    binding().dsterf(_int(d.size), _ptr(d), _ptr(e), ctypes.byref(info))
    _check(info, "dsterf")
    return d


def dstevd(d, e) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, Z) of that matrix; Z is F-contiguous, eigenvectors in its columns.

    Its workspace of about n^2 doubles is freed before this returns.
    """
    d, e = _band(d, e)
    n = d.size
    z = np.empty((n, n), order="F")
    lwork, liwork = (1 + 4 * n + n * n, 3 + 5 * n) if n > 1 else (1, 1)
    work = np.empty(lwork)
    iwork = np.empty(liwork, dtype=np.int64)
    info = ctypes.c_int64(0)
    binding().dstevd(
        b"V", _int(n), _ptr(d), _ptr(e), _ptr(z, "F"), _int(n),
        _ptr(work), _int(lwork), _ptr(iwork, dtype=np.int64), _int(liwork), ctypes.byref(info), 1,
    )
    _check(info, "dstevd")
    return d, z


def dstein(d, e, w) -> np.ndarray:
    """Z (F-contiguous, one column per entry of w): the eigenvectors of the band (d, e) for eigenvalues w.

    w is ascending, at most n eigenvalues of the band.  The band goes to
    LAPACK as one block (IBLOCK = 1, ISPLIT = (n, 0, ...)): a split is only
    a saving, so an off-diagonal zero changes no result.  Raises LinAlgError,
    naming how many, when some vectors fail to converge.
    """
    d, e = _band(d, e)
    n = d.size
    w = np.array(w, dtype=np.float64)
    m = w.size
    if w.ndim != 1 or m > n:
        raise ValueError("need a vector of at most n eigenvalues")
    z = np.zeros((n, m), order="F")
    if m == 0:
        return z
    # both are declared of length N
    iblock, isplit = np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    isplit[0] = n
    work, iwork, ifail = np.empty(5 * n), np.empty(n, dtype=np.int64), np.empty(m, dtype=np.int64)
    info = ctypes.c_int64(0)
    binding().dstein(
        _int(n), _ptr(d), _ptr(e), _int(m), _ptr(w), _ptr(iblock, dtype=np.int64), _ptr(isplit, dtype=np.int64),
        _ptr(z, "F"), _int(n), _ptr(work), _ptr(iwork, dtype=np.int64), _ptr(ifail, dtype=np.int64), ctypes.byref(info),
    )
    if info.value > 0:
        raise np.linalg.LinAlgError(f"dstein: {info.value} of {m} eigenvectors failed to converge")
    _check(info, "dstein")
    return z


def dsytrd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduce a square h, read from the lower triangle of ``a`` as ``eigh`` does, to T = Q^T h Q.

    ``a`` is a writeable F-contiguous float64 copy of h (eigh hands LAPACK
    the same); it is reduced in place and then holds Q as reflectors below
    its subdiagonal.  Returns (d, e, tau): T's diagonal and off-diagonal,
    and the reflectors' factors.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError("need a nonempty square matrix h")
    n = a.shape[0]
    d, e, tau = np.empty(n), np.empty(n), np.empty(n)
    info = ctypes.c_int64(0)

    def run(work, lwork):
        binding().dsytrd(
            b"L", _int(n), _ptr(a, "F"), _int(n), _ptr(d), _ptr(e), _ptr(tau),
            _ptr(work), _int(lwork), ctypes.byref(info), 1,
        )
        _check(info, "dsytrd")

    # a query (LWORK = -1) returns the size of the blocked code, which DSYEVD's call gets too
    work = np.empty(1)
    run(work, -1)
    lwork = int(work[0])
    run(np.empty(lwork), lwork)
    return d, e[: n - 1], tau[: n - 1]


def dormtr(a, tau, c) -> None:
    """c <- Q c in place, for the Q of ``dsytrd``'s (a, tau).

    c is an F-contiguous float64 array with as many rows as a.
    """
    n = a.shape[0]
    if c.ndim != 2 or c.shape[0] != n or tau.shape != (max(n - 1, 0),):
        raise ValueError(f"need reflectors of an {n}x{n} matrix and a matrix of {n} rows")
    cols = c.shape[1]
    if cols == 0:
        return
    info = ctypes.c_int64(0)

    def run(work, lwork):
        binding().dormtr(
            b"L", b"L", b"N", _int(n), _int(cols), _ptr(a, "F"), _int(n), _ptr(tau),
            _ptr(c, "F"), _int(n), _ptr(work), _int(lwork), ctypes.byref(info), 1, 1, 1,
        )
        _check(info, "dormtr")

    # DORMQR/DORMQL choose blocked or unblocked code from the workspace they
    # get.  DSYEVD hands DORMTR 1 + 4n + n^2 doubles, so the smaller of that
    # and what the blocked code needs makes DSYEVD's choice, and its bits.
    work = np.empty(1)
    run(work, -1)
    lwork = min(int(work[0]) + _ORMQR_TABLE, 1 + 4 * n + n * n)
    run(np.empty(lwork), lwork)
