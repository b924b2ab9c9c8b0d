"""Uniform-grid discretization of a clipped domain.

Cells are axis-aligned lattice squares of side h anchored at the ball
center x0; a cell belongs to the grid when its center lies in D cap
B(x0, R).  Cell measures come from a deterministic stratified sub-lattice
so that boundary cells carry their covered fraction of h^2.
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


def build_grid(domain, x0, R, h, subsamples=1):
    """Collocate the clipped domain on a lattice of squares of side h.

    ``subsamples`` is the number of stratified points per cell used for
    the covered-fraction measure (rounded down to a square k*k >= 1);
    with 1, every cell gets the full h^2.
    """
    if h <= 0:
        raise ValueError("cell size h must be positive")
    if subsamples < 1:
        raise ValueError("subsamples must be >= 1")
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

    if subsamples > 1:
        k = max(1, int(np.sqrt(subsamples)))
        offs = (np.arange(k) + 0.5) / k - 0.5
        ox, oy = np.meshgrid(offs, offs, indexing="ij")
        frac = np.zeros(centers.shape[0])
        for dx, dy in zip(ox.ravel(), oy.ravel()):
            frac += clipped.contains_many(centers + np.array([dx * h, dy * h]))
        frac /= k * k
        # the center is inside, so never let a covered cell degenerate to 0
        frac = np.maximum(frac, 1.0 / (k * k))
        measures = frac * h * h
    else:
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
        if not all_visible:
            block = vis[lo:hi]
            for member in inside:
                block |= member[i] & member[j]
            test = np.flatnonzero(~block)
            block[test] = grid.domain.segment_inside_many(
                grid.centers[i[test]], grid.centers[j[test]])
        d = grid.centers[j] - grid.centers[i]
        r[lo:hi] = np.sqrt(np.einsum("ij,ij->i", d, d))
        del d                     # not held through the next segment tests
    return PairSet(i=ii, j=jj, visible=vis, r=r)


def cell_mean(grid, u):
    """Measure-weighted mean of per-cell values."""
    u = np.asarray(u, dtype=float)
    if u.shape[0] != grid.n_cells:
        raise ValueError("value vector length does not match the grid")
    # thread-count independent sum, as in forms.energy
    return float(np.sum(u * grid.measures) / grid.measures.sum())
