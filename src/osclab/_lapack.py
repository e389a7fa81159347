"""LAPACK's symmetric eigensolvers, bound with ctypes.

``dsterf`` (eigenvalues only, Pal-Walker-Kahan QR) and ``dstevd`` (divide
and conquer, with eigenvectors) solve a tridiagonal matrix from its band;
``dsyevd`` (divide and conquer, with eigenvectors) solves a dense one.  They
are taken from the LAPACK that numpy's own ``eigvalsh``/``eigh`` call: dlsym
on numpy's ``_umath_linalg`` extension also searches the libraries it links.
``eigh`` runs ``dsyevd`` itself, but allocates its output array before the
driver's workspace of about 2 n^2 doubles; ``dsyevd`` here frees that
workspace before it allocates the modes, one n x n buffer less at the
peak.  On a tridiagonal matrix ``eigvalsh``/``eigh`` reduce h with identity
reflectors and then solve the band with the same routines these drivers
call (``dsterf``, ``dstedc``), so every result here agrees with numpy's
bit for bit.  Only the 64-bit-integer (ILP64) builds that numpy's wheels ship are
bound; elsewhere ``binding`` returns None and callers keep ``np.linalg``.
This is the only module that touches foreign functions.
"""

from __future__ import annotations

import ctypes
import functools
from types import SimpleNamespace

import numpy as np

#: (dsterf, dstevd, dsyevd) symbol names: numpy >= 2 wheels (scipy-openblas64), numpy 1.x wheels (openblas64_).
SYMBOLS = (
    ("scipy_dsterf_64_", "scipy_dstevd_64_", "scipy_dsyevd_64_"),
    ("dsterf_64_", "dstevd_64_", "dsyevd_64_"),
)


@functools.cache
def binding() -> SimpleNamespace | None:
    """The drivers ``dsterf``, ``dstevd`` and ``dsyevd`` of numpy's LAPACK, bound on
    first use; None if it exports no complete triple of names."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for names in SYMBOLS:
        try:
            sterf, stevd, syevd = (getattr(lib, name) for name in names)
        except AttributeError:
            continue
        # ndpointer rejects an array of another dtype or layout before the call
        doubles = np.ctypeslib.ndpointer(dtype=np.float64, flags=("C_CONTIGUOUS", "WRITEABLE"))
        matrix = np.ctypeslib.ndpointer(dtype=np.float64, ndim=2, flags=("F_CONTIGUOUS", "WRITEABLE"))
        ints = np.ctypeslib.ndpointer(dtype=np.int64, flags=("C_CONTIGUOUS", "WRITEABLE"))
        n = ctypes.POINTER(ctypes.c_int64)
        # DSTERF(N, D, E, INFO)
        sterf.argtypes = [n, doubles, doubles, n]
        sterf.restype = None
        # DSTEVD(JOBZ, N, D, E, Z, LDZ, WORK, LWORK, IWORK, LIWORK, INFO), then the
        # hidden length of the JOBZ string that Fortran compilers append
        stevd.argtypes = [ctypes.c_char_p, n, doubles, doubles, doubles, n, doubles, n, ints, n, n, ctypes.c_size_t]
        stevd.restype = None
        # DSYEVD(JOBZ, UPLO, N, A, LDA, W, WORK, LWORK, IWORK, LIWORK, INFO), then the
        # hidden lengths of JOBZ and UPLO
        chars, length = ctypes.c_char_p, ctypes.c_size_t
        syevd.argtypes = [chars, chars, n, matrix, n, doubles, doubles, n, ints, n, n, length, length]
        syevd.restype = None
        return SimpleNamespace(dsterf=sterf, dstevd=stevd, dsyevd=syevd)
    return None


def _int(value: int):
    return ctypes.byref(ctypes.c_int64(value))


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
    binding().dsterf(_int(d.size), d, e, ctypes.byref(info))
    _check(info, "dsterf")
    return d


def dstevd(d, e) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, modes) of that matrix; ``modes`` is C-contiguous, eigenvectors in its columns."""
    d, e = _band(d, e)
    n = d.size
    # Fortran stores Z(i, j) at i + n j, so this C-ordered buffer receives Z transposed
    z_t = np.empty((n, n))
    lwork, liwork = (1 + 4 * n + n * n, 3 + 5 * n) if n > 1 else (1, 1)
    work = np.empty(lwork)
    iwork = np.empty(liwork, dtype=np.int64)
    info = ctypes.c_int64(0)
    binding().dstevd(
        b"V", _int(n), d, e, z_t, _int(n), work, _int(lwork), iwork, _int(liwork), ctypes.byref(info), 1
    )
    _check(info, "dstevd")
    # eigh returns C-ordered modes; F-ordered ones send later products down other BLAS paths
    return d, np.ascontiguousarray(z_t.T)


def dsyevd(h) -> tuple[np.ndarray, np.ndarray]:
    """(ascending eigenvalues, modes) of a square matrix h read from its lower triangle, as ``eigh`` does.

    ``modes`` is C-contiguous, eigenvectors in its columns; h is not written.
    """
    # eigh hands LAPACK a column-major copy of h; a C-ordered copy would be h
    # transposed, whose lower triangle is h's upper one
    a = np.array(h, dtype=np.float64, order="F")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError("need a nonempty square matrix h")
    n = a.shape[0]
    w = np.empty(n)
    info = ctypes.c_int64(0)

    def run(work, lwork, iwork, liwork):
        binding().dsyevd(
            b"V", b"L", _int(n), a, _int(n), w, work, _int(lwork), iwork, _int(liwork), ctypes.byref(info), 1, 1
        )
        _check(info, "dsyevd")

    # a query (LWORK = LIWORK = -1) returns the optimal sizes, which eigh allocates too
    work, iwork = np.empty(1), np.empty(1, dtype=np.int64)
    run(work, -1, iwork, -1)
    lwork, liwork = int(work[0]), int(iwork[0])
    work, iwork = np.empty(lwork), np.empty(liwork, dtype=np.int64)
    run(work, lwork, iwork, liwork)
    # the workspace (about 2 n^2 doubles) goes before the modes are allocated
    del work, iwork
    # a now holds the eigenvectors in its columns; eigh returns them C-ordered
    return w, np.ascontiguousarray(a)
