"""Discrete nonlocal and local energy forms on a cell grid.

Four modes share one operator type:

* ``cen``   every unordered cell pair enters with weight k(r) m_i m_j,
* ``vis``   only pairs whose connecting segment stays inside the domain,
* ``ball``  visible pairs with r < max(delta_i, delta_j)/2, the
            half-boundary-distance ball restriction symmetrized over the
            two endpoints (within a factor 2 of the one-sided integral),
* ``local`` forward-difference gradient stencils with one-sided drop at
            cells missing a neighbor.

Nonlocal energies are 2 * sum over unordered pairs of w |u_i - u_j|^p
(the factor 2 restores the ordered double integral).  ``energy`` is the
one entry point: an assembled form sums over its pair list, a lazy form
(no pair list) streams the pairs between cells of distinct values in
blocks, without ever materializing O(N^2) pairs; this suits indicator and
step profiles on grids too large to assemble.

In vis mode, a group pair that joins the two bells of a dumbbell takes
its visible pairs from the portal rule
(``geometry.DomainSpec.portal_pairs``): the x2 of a segment at the
corridor's mouths decides it, and only pairs next to a corridor edge get
a segment test.  The block sums add the same terms in the same order as
a segment test of every pair would, so they keep their bits.  Every
other streamed vis-mode block takes a segment test of each pair.  The
same decision (``_visible_pairs``) gives the sparse entries of the
spectral layer's matrix-free vis operator.  Nothing is kept between
calls, so an energy's cost does not depend on what ran before it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, mesh
from .kernels import KernelSpec

MODES = ("vis", "cen", "ball", "local")

#: most distinct values a profile may take for a lazy form's energy
MAX_GROUPS = 64


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormOperator:
    mode: str
    grid: mesh.Grid
    kernel: KernelSpec | None
    p: float
    pair_i: np.ndarray | None = None     # nonlocal, materialized
    pair_j: np.ndarray | None = None
    weight: np.ndarray | None = None     # k(r) m_i m_j
    nbr_right: np.ndarray | None = None  # local stencil neighbors, -1 if none
    nbr_up: np.ndarray | None = None

    @property
    def n_pairs(self):
        return 0 if self.pair_i is None else self.pair_i.shape[0]


def _lattice_neighbors(grid):
    key = {(int(a), int(b)): k for k, (a, b) in enumerate(zip(grid.ix, grid.iy))}
    right = np.full(grid.n_cells, -1, dtype=np.int64)
    up = np.full(grid.n_cells, -1, dtype=np.int64)
    for k in range(grid.n_cells):
        right[k] = key.get((int(grid.ix[k]) + 1, int(grid.iy[k])), -1)
        up[k] = key.get((int(grid.ix[k]), int(grid.iy[k]) + 1), -1)
    return right, up


def boundary_distances(grid):
    """delta at every cell center, from the grid's clipped domain."""
    clipped = geometry.clip_ball(grid.domain, grid.x0, grid.R)
    return clipped.boundary_distance_many(grid.centers)


def assemble(grid, pairs, kernel, mode, p=2.0):
    """Build a FormOperator with an explicit pair list (or local stencil)."""
    if mode not in MODES:
        raise ValueError(f"unknown form mode {mode!r}")
    if mode == "local":
        right, up = _lattice_neighbors(grid)
        return FormOperator(mode=mode, grid=grid, kernel=None, p=float(p),
                            nbr_right=right, nbr_up=up)
    if pairs is None:
        raise ValueError("nonlocal assembly needs a PairSet")
    if mode == "cen":
        keep = np.ones(pairs.n_pairs, dtype=bool)
    elif mode == "vis":
        keep = pairs.visible.copy()
    else:  # ball
        delta = boundary_distances(grid)
        radius = np.maximum(delta[pairs.i], delta[pairs.j]) / 2.0
        keep = pairs.visible & (pairs.r < radius)
    i = pairs.i[keep]
    j = pairs.j[keep]
    w = kernel.k(pairs.r[keep]) * grid.measures[i] * grid.measures[j]
    pos = w > 0.0                      # truncated profiles zero out far pairs
    return FormOperator(mode=mode, grid=grid, kernel=kernel, p=float(p),
                        pair_i=i[pos], pair_j=j[pos], weight=w[pos])


def lazy_form(grid, kernel, mode, p=2.0):
    """Operator handle without a pair list.

    ``energy`` streams its pairs, which is exact for profiles taking at
    most MAX_GROUPS distinct values; local forms are assembled as usual.
    """
    if mode not in MODES:
        raise ValueError(f"unknown form mode {mode!r}")
    if mode == "local":
        return assemble(grid, None, None, "local", p)
    return FormOperator(mode=mode, grid=grid, kernel=kernel, p=float(p))


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def energy(form, u, p=None):
    """Total energy of the values u under the form.

    A local form sums its stencil, an assembled form its pair list, and a
    lazy form streams its pairs through ``grouped_energy``.
    """
    u = np.asarray(u, dtype=float)
    grid = form.grid
    if u.shape[0] != grid.n_cells:
        raise ValueError("value vector length does not match the grid")
    if p is None:
        p = form.p
    if form.mode == "local":
        return _local_energy(form, u, p)
    if form.pair_i is None:
        return grouped_energy(grid, form.kernel, form.mode, u, p)
    terms = np.abs(u[form.pair_i] - u[form.pair_j]) ** p
    terms *= form.weight
    # products are summed by np.sum (pairwise, one thread), not BLAS dot,
    # whose long sums are split by thread count and so round by it
    return float(2.0 * np.sum(terms))


def _local_energy(form, u, p):
    grid = form.grid
    h = grid.h
    g2 = np.zeros(grid.n_cells)
    for nbr in (form.nbr_right, form.nbr_up):
        has = nbr >= 0
        d = np.zeros(grid.n_cells)
        d[has] = (u[nbr[has]] - u[has]) / h
        g2 += d * d
    return float(np.sum(grid.measures * g2 ** (p / 2.0)))


def grouped_energy(grid, kernel, mode, u, p):
    """Exact energy for u taking few distinct values (streamed).

    Cells are grouped by exact value; same-value pairs contribute nothing
    and are skipped, distinct-value group pairs are streamed in blocks.
    ``energy`` calls this for a lazy form.
    """
    u = np.asarray(u, dtype=float)
    if u.shape[0] != grid.n_cells:
        raise ValueError("value vector length does not match the grid")
    values, inverse = np.unique(u, return_inverse=True)
    if values.size > MAX_GROUPS:
        raise ValueError(
            f"u takes {values.size} distinct values; a lazy form streams at "
            f"most {MAX_GROUPS}: assemble the form with a PairSet "
            "(mesh.visibility_pairs) instead")
    groups = [np.nonzero(inverse == g)[0] for g in range(values.size)]
    delta = boundary_distances(grid) if mode == "ball" else None
    total = 0.0
    for a in range(values.size):
        for b in range(a + 1, values.size):
            jump = abs(values[a] - values[b]) ** p
            total += jump * _cross_weight_sum(grid, kernel, mode, delta,
                                              groups[a], groups[b])
    return float(2.0 * total)


# ---------------------------------------------------------------------------
# streamed pair evaluation: the portal rule between the bells, segment
# tests for the other vis-mode blocks
# ---------------------------------------------------------------------------

def clear_visibility_cache():
    """Does nothing: streamed energies keep no state between calls.

    Kept only because ``perfbench/worker.py`` calls it before every pass.
    """


def _bell_columns(grid, A, B):
    """B's lattice columns when A x B joins the two bells of a dumbbell."""
    ends = {int(grid.tags[A[0]]), int(grid.tags[B[0]])}
    if (ends != {geometry.TAG_MINUS, geometry.TAG_PLUS}
            or np.any(grid.tags[A] != grid.tags[A[0]])
            or np.any(grid.tags[B] != grid.tags[B[0]])):
        return None
    return geometry.LatticeColumns.of(grid.centers[B])


def _visible_pairs(domain, cA, cB, bell=None):
    """The visible segments of the block cA x cB, as indices (i, j) into
    cA and cB in (source, cB) order.

    ``bell`` holds cB as ``LatticeColumns`` when the block joins the two
    bells of a dumbbell; ``DomainSpec.portal_pairs`` then decides it.
    Otherwise each pair gets a segment test from
    ``DomainSpec.segment_inside_many``.
    """
    pairs = None if bell is None else domain.portal_pairs(cA, bell)
    if pairs is not None:
        return pairs
    nb = cB.shape[0]
    keep = domain.segment_inside_many(np.repeat(cA, nb, axis=0),
                                      np.tile(cB, (cA.shape[0], 1)))
    k = np.flatnonzero(keep)
    i = k // nb
    return i, k - i * nb


def _cross_weight_sum(grid, kernel, mode, delta, A, B):
    """Sum of the weights k(r) m_i m_j over the pairs A x B.

    A is walked in blocks of whole rows against all of B; ``delta`` holds
    the boundary distances in ball mode.  In vis mode, ``_visible_pairs``
    decides each block: by the portal rule when the group pair joins the
    two bells of a dumbbell, else by segment tests.
    """
    domain = grid.domain
    rows = max(1, mesh.PAIR_BLOCK // B.size)
    cB, mB = grid.centers[B], grid.measures[B]
    vis = mode == "vis" and not domain.all_visible
    bell = _bell_columns(grid, A, B) if vis else None
    total = 0.0
    for lo in range(0, A.size, rows):
        a = A[lo:lo + rows]
        cA = grid.centers[a]
        if vis:
            # the visible pairs alone, in the block's (source, B) order, so
            # the block sum below adds the same terms in the same order
            i, j = _visible_pairs(domain, cA, cB, bell)
            dx = cB[j, 0] - cA[i, 0]
            dy = cB[j, 1] - cA[i, 1]
            r = np.sqrt(dx * dx + dy * dy)
            mass = grid.measures[a][i] * mB[j]
        else:
            # pair k of the block is (a[k // |B|], B[k % |B|])
            dx = cB[None, :, 0] - cA[:, None, 0]
            dy = cB[None, :, 1] - cA[:, None, 1]
            r = np.sqrt(dx * dx + dy * dy).ravel()
            mass = np.outer(grid.measures[a], mB).ravel()
            if mode == "ball":
                # a survivor has r < max(delta_i, delta_j) / 2, so its
                # segment lies in the open ball of radius delta about one
                # end, inside D: it needs no segment test
                keep = r < np.maximum.outer(delta[a], delta[B]).ravel() / 2.0
                r, mass = r[keep], mass[keep]
        if r.size:
            mass *= kernel.k(r)
            total += float(np.sum(mass))
    return total


# ---------------------------------------------------------------------------
# the weakly-singular counterexample
# ---------------------------------------------------------------------------

def counterexample_log_coefficient(resolution_factor=8):
    """c1 = pi |A_h| n^2, the coefficient of ln n in n^2 times the censored
    energy of the strip; the strip holds f (f - 1) / 2 cells of side 1/(f n)
    for the resolution factor f (28 cells at f = 8)."""
    f = resolution_factor
    return np.pi * (f * (f - 1) / 2) / f ** 2


def counterexample_ratio(n, resolution_factor=8):
    """Ball-restricted vs censored energy of the diagonal-strip indicator.

    On the unit square with the constant profile (k = 1/r^2 in d=2),
    evaluates the indicator of {x1 + x2 < 1/n} and returns
    (ball-restricted energy, censored energy, their ratio).  The square
    is convex, so censored and visible energies coincide.

    The strip is decided on the lattice: with h = 1/(f n) for the
    resolution factor f (f n even, so that the cells, anchored at the
    square's centre, tile the square), cell centre sums are whole
    multiples of h, and so is the line's 1/n = f h; a cell is in the strip
    when its centre sum is below 1/n - h/2.  Cells centred on the line
    x1 + x2 = 1/n stay out, as the strict ``<`` says, whatever the
    rounding of the centres; the strip then holds the same f (f - 1) / 2
    cells at every n, and the problem is self-similar in n.

    Scaling (f = 8, checked for n = 4 .. 128):

    * n^2 * num = 0.38125 at every n: the ball-restricted energy only
      sees pairs near the strip, and has no log term;
    * n^2 * den = c1 ln n + c2 + O(1/n), with
      c1 = ``counterexample_log_coefficient(f)`` = pi |A_h| n^2
      = pi 28/64 ~ 1.3744, the far field of r^-2 over the quarter
      plane doubled for ordered pairs, and c2 ~ 2.8 c1.

    So the ratio decays like 1/log n, but with a constant term that
    keeps ratio(4)/ratio(32) near 1.56 rather than the 2.5 of a pure
    C/ln n.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if resolution_factor < 8:
        raise ValueError("resolution too coarse: need h <= 1/(8n)")
    if resolution_factor * n % 2:
        raise ValueError("cells of side 1/(f n) tile the unit square from "
                         "its centre only when f n is even")
    h = 1.0 / (resolution_factor * n)
    domain = geometry.make_box(1.0, 1.0)
    grid = mesh.build_grid(domain, x0=(0.5, 0.5), R=2.0, h=h, subsamples=1)
    kernel = KernelSpec("constant")
    centre_sum = grid.centers[:, 0] + grid.centers[:, 1]
    u = (centre_sum < 1.0 / n - h / 2).astype(float)
    if not u.any():
        raise ValueError("strip resolved to no cells; refine the grid")
    num = energy(lazy_form(grid, kernel, "ball"), u)
    den = energy(lazy_form(grid, kernel, "cen"), u)
    return num, den, num / den
