"""Uniform-grid discretization of a clipped domain.

Cells are axis-aligned lattice squares of side h anchored at the ball
center x0; a cell belongs to the grid when its center lies in D cap
B(x0, R), and every cell carries the full measure h^2.  ``visibility_pairs``
flags every unordered cell pair by the part-pair rule of ``forms``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry


@dataclass(frozen=True)
class Grid:
    """Immutable cell collection for D cap B(x0, R)."""

    h: float
    centers: np.ndarray          # (N, 2)
    tags: np.ndarray             # (N,) int8 region tags (all 0 wo. metadata)
    ix: np.ndarray               # (N,) lattice indices
    iy: np.ndarray
    domain: geometry.DomainSpec
    x0: tuple
    R: float

    @property
    def n_cells(self):
        return self.centers.shape[0]

    @property
    def cell_measure(self):
        """h^2, the measure of every cell."""
        return self.h * self.h


def build_grid(domain, x0, R, h):
    """Collocate the clipped domain on a lattice of squares of side h."""
    if h <= 0:
        raise ValueError("cell size h must be positive")
    x0 = np.asarray(x0, dtype=float)
    clipped = geometry.clip_ball(domain, x0, R)

    n_side = int(np.ceil(R / h))
    idx = np.arange(-n_side, n_side)
    II, JJ = np.meshgrid(idx, idx, indexing="ij")
    ix = II.ravel()
    iy = JJ.ravel()
    centers = np.stack([x0[0] + (ix + 0.5) * h, x0[1] + (iy + 0.5) * h], axis=1)

    keep = clipped.contains_many(centers)
    ix, iy, centers = ix[keep], iy[keep], centers[keep]
    if centers.shape[0] == 0:
        raise ValueError("empty grid: no cell centers inside the clipped domain")

    if domain.dumbbell is not None:
        tags = domain.region_tags(centers)
    else:
        tags = np.zeros(centers.shape[0], dtype=np.int8)

    return Grid(h=float(h), centers=centers, tags=tags,
                ix=ix, iy=iy, domain=domain, x0=(float(x0[0]), float(x0[1])),
                R=float(R))


@dataclass(frozen=True)
class PairSet:
    """All unordered cell pairs (i < j) with visibility flags and distances.

    Censored pairs are all pairs; the visible flag marks those whose
    center-to-center segment stays inside the domain, so the visible set
    is a subset by construction.
    """

    i: np.ndarray            # (P,) int32
    j: np.ndarray            # (P,) int32
    visible: np.ndarray      # (P,) bool
    r: np.ndarray            # (P,) distances

    @property
    def n_pairs(self):
        return self.i.shape[0]


def visibility_pairs(grid):
    """Exact visibility flags for every unordered cell pair.

    O(N^2) pairs, sorted lexicographically so downstream results are
    order-independent, flagged by the part-pair rule of the vis energies
    (``forms._visible_keys``), which decides each unordered pair once.
    """
    from . import forms       # forms imports this module

    n = grid.n_cells
    if n == 0:
        raise ValueError("empty grid")
    if n > 20000:
        raise ValueError(
            f"refusing to materialize {n*(n-1)//2} pairs; for a profile "
            "taking few values use forms.energy(forms.lazy_form(...), u), "
            "which streams them, and for the p = 2 constant on a dumbbell "
            "pass a lazy vis form to spectral.poincare_constant_l2, which "
            "needs no pair list")
    # first[a]: the pairs before row a in np.triu_indices(n, 1) order
    a = np.arange(n + 1)
    first = (a * (2 * n - 1 - a) // 2).astype(np.int32)
    n_pairs = int(first[-1])
    ii, jj, r = (np.empty(n_pairs, t) for t in (np.int32, np.int32, float))
    for k in range(n - 1):
        row = slice(first[k], first[k + 1])
        ii[row], jj[row] = k, np.arange(k + 1, n)
        d = grid.centers[k + 1:] - grid.centers[k]
        r[row] = np.sqrt(np.einsum("ij,ij->i", d, d))
    # pair (i, j) sits at first[i] + j - i - 1: its key i n + j plus shift[i]
    cells = np.arange(n)
    shift = first[:-1] - cells * (n + 1) - 1
    vis = np.zeros(n_pairs, dtype=bool)
    for keys in forms._visible_keys(grid, cells, cells):
        vis[shift[keys // n] + keys] = True
    return PairSet(i=ii, j=jj, visible=vis, r=r)


def cell_mean(grid, u):
    """Mean of per-cell values: every cell has measure h^2."""
    u = np.asarray(u, dtype=float)
    if u.shape[0] != grid.n_cells:
        raise ValueError("value vector length does not match the grid")
    # thread-count independent sum, as in forms.energy
    return float(np.sum(u) / u.size)
