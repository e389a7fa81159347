"""LAPACK's symmetric tridiagonal eigensolvers, bound with ctypes.

``dsterf`` (eigenvalues only, Pal-Walker-Kahan QR) and ``dstevd`` (divide
and conquer, with eigenvectors) are taken from the LAPACK that numpy's own
``eigvalsh``/``eigh`` call: dlsym on numpy's ``_umath_linalg`` extension
also searches the libraries it links.  On a tridiagonal matrix those
reduce h with identity reflectors and then solve the band with the same
routines these drivers call (``dsterf``, ``dstedc``), so the results agree
bit for bit.  Only the 64-bit-integer (ILP64) builds that
numpy's wheels ship are bound; elsewhere ``binding`` returns None and
callers keep the dense solvers.  This is the only module that touches
foreign functions.
"""

from __future__ import annotations

import ctypes
import functools
from types import SimpleNamespace

import numpy as np

#: (dsterf, dstevd) symbol names: numpy >= 2 wheels (scipy-openblas64), numpy 1.x wheels (openblas64_).
SYMBOLS = (("scipy_dsterf_64_", "scipy_dstevd_64_"), ("dsterf_64_", "dstevd_64_"))


@functools.cache
def binding() -> SimpleNamespace | None:
    """The drivers ``dsterf`` and ``dstevd`` of numpy's LAPACK, bound on first use;
    None if it exports neither name pair."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for sterf_name, stevd_name in SYMBOLS:
        try:
            sterf, stevd = getattr(lib, sterf_name), getattr(lib, stevd_name)
        except AttributeError:
            continue
        # ndpointer rejects an array of another dtype or layout before the call
        doubles = np.ctypeslib.ndpointer(dtype=np.float64, flags=("C_CONTIGUOUS", "WRITEABLE"))
        ints = np.ctypeslib.ndpointer(dtype=np.int64, flags=("C_CONTIGUOUS", "WRITEABLE"))
        n = ctypes.POINTER(ctypes.c_int64)
        # DSTERF(N, D, E, INFO)
        sterf.argtypes = [n, doubles, doubles, n]
        sterf.restype = None
        # DSTEVD(JOBZ, N, D, E, Z, LDZ, WORK, LWORK, IWORK, LIWORK, INFO), then the
        # hidden length of the JOBZ string that Fortran compilers append
        stevd.argtypes = [ctypes.c_char_p, n, doubles, doubles, doubles, n, doubles, n, ints, n, n, ctypes.c_size_t]
        stevd.restype = None
        return SimpleNamespace(dsterf=sterf, dstevd=stevd)
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
