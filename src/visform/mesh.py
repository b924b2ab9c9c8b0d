"""Uniform-grid discretization of a clipped domain.

Cells are axis-aligned lattice squares of side h anchored at the ball
center x0; a cell belongs to the grid when its center lies in D cap
B(x0, R), and every cell carries the full measure h^2.
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
    measures: np.ndarray         # (N,)
    tags: np.ndarray             # (N,) int8 region tags (all 0 wo. metadata)
    ix: np.ndarray               # (N,) lattice indices
    iy: np.ndarray
    domain: geometry.DomainSpec
    x0: tuple
    R: float

    @property
    def n_cells(self):
        return self.centers.shape[0]


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

    measures = np.full(centers.shape[0], h * h)

    if domain.dumbbell is not None:
        tags = domain.region_tags(centers)
    else:
        tags = np.zeros(centers.shape[0], dtype=np.int8)

    return Grid(h=float(h), centers=centers, measures=measures, tags=tags,
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


#: pairs processed per vectorized visibility block, here and in the
#: streamed energies of ``forms``
PAIR_BLOCK = 1 << 21


def visibility_pairs(grid):
    """Exact visibility flags for every unordered cell pair.

    O(N^2) pairs, evaluated in vectorized blocks: a pair with both ends in
    one convex primitive is visible, every other pair gets a segment test.
    Pairs come out sorted lexicographically so downstream results are
    order-independent.
    """
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
    all_visible = grid.domain.all_visible
    vis = np.full(n_pairs, all_visible)
    # a pair with both ends in one convex primitive is visible with no
    # segment test
    inside = [] if all_visible else [
        prim.contains_many(grid.centers)
        for prim in grid.domain.primitives if prim.convex]
    for lo in range(0, n_pairs, PAIR_BLOCK):
        hi = min(lo + PAIR_BLOCK, n_pairs)
        rows = np.arange(np.searchsorted(first, lo, "right") - 1,
                         np.searchsorted(first, hi), dtype=np.int32)
        take = np.diff(np.clip(first[rows[0]:rows[-1] + 2], lo, hi))
        i = np.repeat(rows, take)
        j = (np.arange(lo, hi, dtype=np.int32)
             - np.repeat(first[rows] - rows - 1, take))
        ii[lo:hi], jj[lo:hi] = i, j
        i, j = ii[lo:hi], jj[lo:hi]
        # endpoints are gathered one chunk of segments at a time, for the
        # segment tests and for the distances, not for the whole block
        chunk = geometry.SEGMENT_CHUNK
        if not all_visible:
            block = vis[lo:hi]
            for member in inside:
                block |= member[i] & member[j]
            test = np.flatnonzero(~block)
            for c in range(0, test.size, chunk):
                t = test[c:c + chunk]
                block[t] = grid.domain.segment_inside_many(
                    grid.centers[i[t]], grid.centers[j[t]])
        dist = r[lo:hi]
        for c in range(0, hi - lo, chunk):
            d = grid.centers[j[c:c + chunk]] - grid.centers[i[c:c + chunk]]
            dist[c:c + chunk] = np.sqrt(np.einsum("ij,ij->i", d, d))
    return PairSet(i=ii, j=jj, visible=vis, r=r)


def cell_mean(grid, u):
    """Measure-weighted mean of per-cell values."""
    u = np.asarray(u, dtype=float)
    if u.shape[0] != grid.n_cells:
        raise ValueError("value vector length does not match the grid")
    # thread-count independent sum, as in forms.energy
    return float(np.sum(u * grid.measures) / grid.measures.sum())
