"""Finite rectangular boxes in Z^nu: site enumeration, l1 geometry, Laplacians.

Sites are enumerated row-major over coordinates (first axis slowest), and
every matrix in the package uses this ordering.  ``graph_laplacian`` with
``laplacian_diagonal`` gives the plain (Neumann-type) Laplacian and its
Dirichlet-type variant with the boundary correction 2*(2*nu - degree) on
the diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class BoxGeometry:
    """An integer box [a_1,b_1] x ... x [a_nu,b_nu] with a fixed site order."""

    intervals: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.intervals:
            raise ValueError("box needs at least one dimension")
        ivs = tuple((int(a), int(b)) for a, b in self.intervals)
        for a, b in ivs:
            if a > b:
                raise ValueError(f"empty interval [{a},{b}]")
        object.__setattr__(self, "intervals", ivs)

    @classmethod
    def of_lengths(cls, lengths) -> "BoxGeometry":
        """Box [0,l_1-1] x ... x [0,l_nu-1]."""
        return cls(tuple((0, int(l) - 1) for l in lengths))

    @property
    def nu(self) -> int:
        return len(self.intervals)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(b - a + 1 for a, b in self.intervals)

    @property
    def n_sites(self) -> int:
        return math.prod(self.shape)

    def coords(self) -> np.ndarray:
        """(n_sites, nu) integer array, row i = coordinate of site index i."""
        axes = [np.arange(a, b + 1) for a, b in self.intervals]
        grid = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grid], axis=1)

    def index_of(self, coord) -> int:
        c = np.asarray(coord, dtype=int)
        if c.shape != (self.nu,):
            raise ValueError(f"coordinate must have {self.nu} components")
        offsets = tuple(c[i] - self.intervals[i][0] for i in range(self.nu))
        for off, n in zip(offsets, self.shape):
            if not 0 <= off < n:
                raise ValueError(f"coordinate {tuple(c)} outside box")
        return int(np.ravel_multi_index(offsets, self.shape))

    def coord_of(self, index: int) -> tuple[int, ...]:
        self._check_index(index)
        offs = np.unravel_index(int(index), self.shape)
        return tuple(int(o) + a for o, (a, _) in zip(offs, self.intervals))

    def _check_index(self, index) -> None:
        if not 0 <= int(index) < self.n_sites:
            raise ValueError(f"site index {index} outside 0..{self.n_sites - 1}")

    def diameter(self) -> int:
        return sum(b - a for a, b in self.intervals)


def _normalize_sites(box: BoxGeometry, sites) -> np.ndarray:
    idx = np.unique(np.asarray(list(sites), dtype=int))
    if idx.size and (idx[0] < 0 or idx[-1] >= box.n_sites):
        raise ValueError("site index outside box")
    return idx


def l1_distance(box: BoxGeometry, x: int, y: int) -> int:
    """l1 distance between two sites given by index."""
    box._check_index(x)
    box._check_index(y)
    c = box.coords()
    return int(np.abs(c[int(x)] - c[int(y)]).sum())


def l1_distances_from(box: BoxGeometry, x: int) -> np.ndarray:
    """Vector of l1 distances from site x to every site, in index order."""
    box._check_index(x)
    c = box.coords()
    return np.abs(c - c[int(x)]).sum(axis=1)


def neighborhood(box: BoxGeometry, sites, n: int) -> np.ndarray:
    """All sites within l1 distance n of the given nonempty set."""
    X = _normalize_sites(box, sites)
    if X.size == 0:
        raise ValueError("neighborhood of an empty set is undefined")
    if n < 0:
        raise ValueError("n must be nonnegative")
    c = box.coords()
    dist = np.abs(c[:, None, :] - c[X][None, :, :]).sum(axis=2).min(axis=1)
    return np.flatnonzero(dist <= n)


def boundary(box: BoxGeometry, sites) -> np.ndarray:
    """Sites of X adjacent (l1 distance 1) to some site of the box outside X."""
    X = _normalize_sites(box, sites)
    inside = np.zeros(box.n_sites, dtype=bool)
    inside[X] = True
    on_boundary = np.zeros(box.n_sites, dtype=bool)
    for i, j, _ in _edges(box):
        on_boundary[i] |= inside[i] & ~inside[j]
        on_boundary[j] |= inside[j] & ~inside[i]
    return np.flatnonzero(on_boundary)


def _edges(box: BoxGeometry):
    """Nearest-neighbor pairs (i, j, axis), j = i shifted by +1 along axis."""
    shape = box.shape
    strides = np.array(
        [int(np.prod(shape[d + 1:])) for d in range(box.nu)], dtype=int
    )
    coords = box.coords()
    for d in range(box.nu):
        has_next = coords[:, d] < box.intervals[d][1]
        i = np.flatnonzero(has_next)
        yield i, i + strides[d], d


@lru_cache(maxsize=32)
def _graph(box: BoxGeometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All nearest-neighbor pairs (i, j) of the box and the degree of every site.

    O(n) index data, built once per box and kept read-only, so every
    Laplacian of the same box walks the edges and coordinates only once.
    """
    pairs = list(_edges(box))
    i = np.concatenate([p[0] for p in pairs])
    j = np.concatenate([p[1] for p in pairs])
    deg = np.bincount(np.concatenate([i, j]), minlength=box.n_sites)
    for arr in (i, j, deg):
        arr.setflags(write=False)
    return i, j, deg


def degrees(box: BoxGeometry) -> np.ndarray:
    """Number of nearest neighbors of each site inside the box."""
    return _graph(box)[2].copy()


def box_boundary(box: BoxGeometry) -> np.ndarray:
    """Sites of the box with a missing neighbor in Z^nu (degree below 2*nu)."""
    return np.flatnonzero(degrees(box) < 2 * box.nu)


def laplacian_diagonal(box: BoxGeometry, bc: str = "neumann") -> np.ndarray:
    """Diagonal of the Neumann or Dirichlet Laplacian of the box, as floats.

    Neumann: the degree of each site.  Dirichlet: the degree plus the
    correction 2*(2*nu - degree), which vanishes in the interior, where the
    degree is 2*nu, so the two operators differ by a nonnegative diagonal
    supported on the boundary of the box.
    """
    deg = _graph(box)[2]
    if bc == "neumann":
        return deg.astype(float)
    if bc == "dirichlet":
        return deg + 2.0 * (2 * box.nu - deg)
    raise ValueError(f"unknown boundary condition {bc!r}")


def graph_laplacian(box: BoxGeometry, diagonal: np.ndarray) -> np.ndarray:
    """Dense n x n matrix with -1 on every nearest-neighbor pair and ``diagonal`` on the diagonal."""
    n = box.n_sites
    i, j, _ = _graph(box)
    h = np.zeros((n, n))
    h[i, j] = -1.0
    h[j, i] = -1.0
    h[np.arange(n), np.arange(n)] = diagonal
    return h
