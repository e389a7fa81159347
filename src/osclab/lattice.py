"""Finite rectangular boxes in Z^nu: site enumeration, l1 geometry, Laplacians.

Sites are enumerated row-major over coordinates (first axis slowest), and
every matrix in the package uses this ordering.  A Laplacian is -1 on every
nearest-neighbour pair of ``_graph`` and ``laplacian_diagonal`` on the
diagonal: the plain (Neumann-type) one, or its Dirichlet-type variant with
the boundary correction 2*(2*nu - degree).  ``anderson.Stencil`` keeps one
as the box and its diagonal.
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

    def diameter(self) -> int:
        return sum(b - a for a, b in self.intervals)


def l1_distances_from(box: BoxGeometry, x: int) -> np.ndarray:
    """Vector of l1 distances from site x to every site, in index order."""
    if not 0 <= int(x) < box.n_sites:
        raise ValueError(f"site index {x} outside 0..{box.n_sites - 1}")
    c = box.coords()
    return np.abs(c - c[int(x)]).sum(axis=1)


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
