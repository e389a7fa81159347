"""Finite rectangular boxes in Z^nu: site enumeration, l1 geometry, Laplacians.

A box is its lengths, {0..l_1-1} x ... x {0..l_nu-1}: the paper's bounds are
uniform in the volume, so where a box sits in Z^nu does not matter.  Sites are
numbered row-major (first axis slowest), the order of every matrix in the
package, so they form the grid ``np.arange(n).reshape(shape)``.  On it the
neighbour at +1 along an axis is the shift by one, stated once in
``_neighbour_slices`` for ``_graph``'s edges and ``anderson.Stencil``'s
products.  A Laplacian is -1 on every edge of ``_graph`` and
``laplacian_diagonal`` on the diagonal: the plain (Neumann-type) one, or its
Dirichlet-type variant with the boundary correction 2*(2*nu - degree).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class BoxGeometry:
    """The box {0..l_1-1} x ... x {0..l_nu-1}, built as ``BoxGeometry(lengths)``, with a fixed site order."""

    shape: tuple[int, ...]

    def __post_init__(self):
        shape = tuple(int(l) for l in self.shape)
        if not shape or min(shape) < 1:
            raise ValueError(f"box needs one or more lengths, each at least 1, got {shape}")
        object.__setattr__(self, "shape", shape)

    @property
    def nu(self) -> int:
        return len(self.shape)

    @property
    def n_sites(self) -> int:
        return math.prod(self.shape)

    def coords(self) -> np.ndarray:
        """(n_sites, nu) integer array, row i = coordinate of site index i."""
        return np.indices(self.shape).reshape(self.nu, -1).T

    def index_of(self, coord) -> int:
        c = np.asarray(coord, dtype=int)
        if c.shape != (self.nu,) or np.any((c < 0) | (c >= self.shape)):
            raise ValueError(f"coordinate {c.tolist()} is not a site of the box of lengths {self.shape}")
        return int(np.ravel_multi_index(c, self.shape))

    def diameter(self) -> int:
        return sum(self.shape) - self.nu


def l1_distances_from(box: BoxGeometry, x: int) -> np.ndarray:
    """Vector of l1 distances from site x to every site, in index order."""
    if not 0 <= int(x) < box.n_sites:
        raise ValueError(f"site index {x} outside 0..{box.n_sites - 1}")
    c = box.coords()
    return np.abs(c - c[int(x)]).sum(axis=1)


def _neighbour_slices(box: BoxGeometry):
    """(lo, hi) per axis: on a grid of the box, with any trailing axes, grid[hi] holds the
    neighbours at +1 along that axis of the sites in grid[lo]."""
    for axis in range(box.nu):
        before = (slice(None),) * axis
        yield before + (slice(None, -1),), before + (slice(1, None),)


@lru_cache(maxsize=32)
def _graph(box: BoxGeometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All nearest-neighbor pairs (i, j) of the box, axis after axis, and the degree of every site.

    O(n) index data, built once per box and kept read-only, so every
    Laplacian of the same box walks the edges only once.
    """
    grid = np.arange(box.n_sites).reshape(box.shape)
    pairs = [(grid[lo].ravel(), grid[hi].ravel()) for lo, hi in _neighbour_slices(box)]
    i, j = (np.concatenate(side) for side in zip(*pairs))
    deg = np.bincount(np.concatenate([i, j]), minlength=box.n_sites)
    for arr in (i, j, deg):
        arr.setflags(write=False)
    return i, j, deg


def box_boundary(box: BoxGeometry) -> np.ndarray:
    """Sites of the box with a missing neighbor in Z^nu (degree below 2*nu)."""
    return np.flatnonzero(_graph(box)[2] < 2 * box.nu)


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
