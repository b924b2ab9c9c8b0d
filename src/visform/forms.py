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

In vis mode, a group pair that joins the two bells of a dumbbell is
decided by the portal rule (``geometry.DomainSpec.portal_runs``): the x2
of a segment at the corridor's mouths decides it, per source and target
column as runs of the column, and only pairs next to a corridor edge get
a segment test.  A visible run is summed from a prefix table of the
kernel over lattice offsets, so these sums differ from a pair-by-pair
sum by rounding (a few ulps).  All the other streamed vis-mode blocks of
one energy are first screened at the mouths they cross
(``DomainSpec.mouth_screen``), and share calls of the segment test for
the rest; each group pair is summed over its own visible pairs in the
order of a segment test of every pair, so these sums keep their bits.
The portal rule's pairs (``_visible_pairs``) give the sparse entries of
the spectral layer's matrix-free vis operator.  Nothing is kept between
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
    pairs = [(a, b) for a in range(values.size)
             for b in range(a + 1, values.size)]
    sums = _cross_weight_sums(grid, kernel, mode,
                              [(groups[a], groups[b]) for a, b in pairs])
    total = 0.0
    for (a, b), part in zip(pairs, sums):
        jump = abs(values[a] - values[b]) ** p
        total += jump * part
    return float(2.0 * total)


# ---------------------------------------------------------------------------
# streamed pair evaluation: runs of the portal rule between the bells,
# mouth-screened segment tests for the other vis-mode blocks
# ---------------------------------------------------------------------------

#: (source, column) entries per bell-to-bell block of a streamed vis energy
RUN_BLOCK = 1 << 16
#: pending segment tests that start a shared segment-test call for the
#: mouth-screened blocks
SCREEN_BATCH = 1 << 14


def clear_visibility_cache():
    """Does nothing: streamed energies keep no state between calls.

    Kept only because ``perfbench/worker.py`` calls it before every pass.
    """


def _bell_columns(grid, A, B):
    """B's lattice columns when A x B joins the two bells of a dumbbell
    whose bells see each other through the corridor's mouths alone."""
    ends = {int(grid.tags[A[0]]), int(grid.tags[B[0]])}
    if (ends != {geometry.TAG_MINUS, geometry.TAG_PLUS}
            or grid.domain._portal_corridor() is None
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


def _cross_weight_sums(grid, kernel, mode, group_pairs):
    """Per group pair (A, B), the sum of the weights k(r) m_i m_j over the
    pairs A x B (the visible ones in vis mode).

    In vis mode a group pair that joins the two bells of a dumbbell is
    summed over the runs of the portal rule (``_run_sum``), and all the
    other group pairs share mouth-screened segment tests
    (``_screened_sums``); in the other modes each group pair is summed
    apart (``_cross_weight_sum``).
    """
    if mode != "vis" or grid.domain.all_visible:
        delta = boundary_distances(grid) if mode == "ball" else None
        return [_cross_weight_sum(grid, kernel, delta, A, B)
                for A, B in group_pairs]
    sums = [0.0] * len(group_pairs)
    rest = []
    table = None
    for g, (A, B) in enumerate(group_pairs):
        bell = _bell_columns(grid, A, B)
        if bell is not None:
            if table is None:
                table = _offset_table(grid, kernel)
            sums[g] = _run_sum(grid, kernel, A, B, bell, table)
        else:
            rest.append((g, A, B))
    _screened_sums(grid, kernel, rest, sums)
    return sums


def _cross_weight_sum(grid, kernel, delta, A, B):
    """Sum of the weights k(r) m_i m_j over the pairs A x B, every pair
    visible (cen mode, or an all-visible domain) or, given the boundary
    distances ``delta``, the ball-mode survivors.  A is walked in blocks of
    whole rows against all of B."""
    rows = max(1, mesh.PAIR_BLOCK // B.size)
    cB, mB = grid.centers[B], grid.measures[B]
    total = 0.0
    for lo in range(0, A.size, rows):
        a = A[lo:lo + rows]
        # pair k of the block is (a[k // |B|], B[k % |B|])
        r = _on_block(_distance, grid.centers[a], cB).ravel()
        mass = _on_block(np.multiply, grid.measures[a], mB).ravel()
        if delta is not None:
            # a survivor has r < max(delta_i, delta_j) / 2, so its segment
            # lies in the open ball of radius delta about one end, inside
            # D: it needs no segment test
            keep = r < _on_block(np.maximum, delta[a], delta[B]).ravel() / 2.0
            r, mass = r[keep], mass[keep]
        if r.size:
            mass *= kernel.k(r)
            total += float(np.sum(mass))
    return total


def _offset_table(grid, kernel):
    """Prefix sums of k over lattice offsets between the two bells.

    Returns (P, d0, U) with P[|dix| - d0, diy + U] the sum of
    k(h |(dix, u)|) over u = -U .. diy - 1, for every column offset
    d0 <= |dix| of a bell-to-bell pair and every row offset |diy| <= U of
    the grid.
    """
    ix = [grid.ix[grid.tags == tag]
          for tag in (geometry.TAG_MINUS, geometry.TAG_PLUS)]
    d0 = int(ix[1].min() - ix[0].max())
    dx = np.arange(d0, ix[1].max() - ix[0].min() + 1, dtype=float)
    U = int(grid.iy.max() - grid.iy.min())
    du = np.arange(-U, U + 1, dtype=float)
    table = np.zeros((dx.size, 2 * U + 2))
    np.cumsum(kernel.k(grid.h * np.sqrt(dx[:, None] ** 2 + du * du)),
              axis=1, out=table[:, 1:])
    return table, d0, U


def _run_sum(grid, kernel, A, B, bell, table):
    """Sum of k(r) m_i m_j over the visible pairs between the bells.

    A is walked in blocks of ``RUN_BLOCK // columns`` rows.  Each run that
    ``DomainSpec.portal_runs`` calls visible is summed as a difference of
    two entries of the prefix table of ``_offset_table``; the pairs of the
    band runs get a segment test, and the visible ones are summed from
    k(h |offset|) one by one.  Every cell has measure h^2.  The terms are
    those of a sum over the visible pairs, in another order and with
    lattice offsets for centre differences, so the sum moves by ulps.
    """
    P, d0, U = table
    domain, h = grid.domain, grid.h
    # lattice offset of target j in column c from a source (ix, iy):
    # (colx[c] - ix, coly[c] + j - iy), as a column holds consecutive rows
    head = B[bell.first]
    colx = grid.ix[head]
    coly = grid.iy[head] - bell.first
    if np.ptp(grid.iy[B]) + 1 != bell.levels.size:
        raise ValueError("the bell's rows are not consecutive lattice rows")
    rows = max(1, RUN_BLOCK // bell.x.size)
    total = 0.0
    for lo in range(0, A.size, rows):
        a = A[lo:lo + rows]
        src, first, start, stop, last = domain.portal_runs(grid.centers[a],
                                                           bell)
        ix, iy = grid.ix[a[src]], grid.iy[a[src]]
        base = np.abs(colx[:, None] - ix) - d0
        base *= P.shape[1]
        base += (coly + U)[:, None] - iy
        runs = P.take(base + stop) - P.take(base + start)
        # the pairs of the band runs, tested
        i, j = (np.concatenate(v) for v in zip(_run_pairs(src, first, start),
                                                _run_pairs(src, stop, last)))
        keep = domain.segment_inside_many(grid.centers[a[i]], bell.points[j])
        i, j = a[i[keep]], B[j[keep]]
        dix = (grid.ix[j] - grid.ix[i]).astype(float)
        diy = (grid.iy[j] - grid.iy[i]).astype(float)
        band = kernel.k(h * np.sqrt(dix * dix + diy * diy))
        total += float(np.sum(runs) + np.sum(band))
    m = h * h
    return m * m * total


def _on_block(f, xa, xb):
    """f(x, y) over the block xa x xb, x from xa and y from xb, as an array
    of shape (len xa, len xb), or a tuple of them (None stays None).

    numpy's inner loops run along the last axis of a broadcast, so the
    longer side is put there and the result transposed back.
    """
    if xb.shape[0] >= xa.shape[0]:
        return f(xa[:, None], xb[None])
    out = f(xa[None], xb[:, None])
    if isinstance(out, tuple):
        return tuple(m.T for m in out)
    return None if out is None else out.T


def _distance(X, Y):
    dx = Y[..., 0] - X[..., 0]
    dy = Y[..., 1] - X[..., 1]
    return np.sqrt(dx * dx + dy * dy)


def _run_pairs(src, lo, hi):
    """The runs [lo, hi) of (C, len(src)) arrays as pairs (i, j): source
    src[column] and target index j."""
    size = (hi - lo).ravel()
    nz = np.flatnonzero(size)
    size = size[nz]
    i = np.repeat(src[nz % src.size], size)
    j = np.arange(size.sum()) + np.repeat(
        lo.ravel()[nz] - (np.cumsum(size) - size), size)
    return i, j


def _screened_sums(grid, kernel, jobs, sums):
    """Add to sums[g] the weight sum over the visible pairs of A x B, for
    each (g, A, B) of ``jobs``.

    Each group pair is walked in blocks of whole rows against all of B, as
    ``_cross_weight_sum`` walks it.  ``DomainSpec.mouth_screen`` decides
    what it can of a block, and the pairs left over from the blocks of all
    the group pairs share calls of ``segment_inside_many`` of at least
    SCREEN_BATCH segments (or PAIR_BLOCK pending pairs).  Each block is
    then summed over its visible pairs in (source, B) order, so every
    group pair's sum has the bits of a segment test of each of its pairs.
    """
    domain = grid.domain
    pending = []              # (g, a, B, visible, test) per block
    counts = [0, 0]           # pending segment tests and pairs

    def flush():
        keep = domain.segment_inside_many(
            np.concatenate([grid.centers[a[t // B.size]]
                            for _, a, B, _, t in pending]),
            np.concatenate([grid.centers[B[t % B.size]]
                            for _, a, B, _, t in pending])) \
            if counts[0] else None
        at = 0
        for g, a, B, visible, test in pending:
            if test.size:
                visible[test] = keep[at:at + test.size]
                at += test.size
            # pair k of the block is (a[k // |B|], B[k % |B|])
            visible = visible.reshape(a.size, B.size)
            r = _on_block(_distance, grid.centers[a], grid.centers[B])
            r = r[visible]
            mass = _on_block(np.multiply, grid.measures[a], grid.measures[B])
            mass = mass[visible]
            if r.size:
                mass *= kernel.k(r)
                sums[g] += float(np.sum(mass))
        pending.clear()
        counts[:] = [0, 0]

    for g, A, B in jobs:
        rows = max(1, mesh.PAIR_BLOCK // B.size)
        cB = grid.centers[B]
        for lo in range(0, A.size, rows):
            a = A[lo:lo + rows]
            screen = _on_block(domain.mouth_screen, grid.centers[a], cB)
            if screen is None:
                test = np.arange(a.size * B.size)
                visible = np.zeros(test.size, dtype=bool)
            else:
                test = np.flatnonzero(~screen[0])
                visible = screen[1].ravel()
            pending.append((g, a, B, visible, test))
            counts[0] += test.size
            counts[1] += visible.size
            if counts[0] >= SCREEN_BATCH or counts[1] >= mesh.PAIR_BLOCK:
                flush()
    flush()


# ---------------------------------------------------------------------------
# the weakly-singular counterexample
# ---------------------------------------------------------------------------

def counterexample_log_coefficient(resolution_factor=8):
    """c1 = pi |A_h| n^2, the coefficient of ln n in n^2 times the censored
    energy of the strip; the strip holds f (f - 1) / 2 cells of side 1/(f n)
    for the resolution factor f (28 cells at f = 8)."""
    f = resolution_factor
    return np.pi * (f * (f - 1) / 2) / f ** 2


def check_counterexample(n_list, resolution_factor):
    """Refuse strip sizes that ``counterexample_ratio`` cannot resolve."""
    f = resolution_factor
    if f < 8:
        raise ValueError(f"resolution factor {f} too coarse: need "
                         "h <= 1/(8n)")
    for n in n_list:
        if n < 2:
            raise ValueError(f"need n >= 2, got n={n}")
        if f * n % 2:
            raise ValueError(f"cells of side 1/(f n) tile the unit square "
                             f"from its centre only when f n is even, got "
                             f"f={f}, n={n}")


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
    check_counterexample((n,), resolution_factor)
    h = 1.0 / (resolution_factor * n)
    domain = geometry.make_box(1.0, 1.0)
    grid = mesh.build_grid(domain, x0=(0.5, 0.5), R=2.0, h=h)
    kernel = KernelSpec("constant")
    centre_sum = grid.centers[:, 0] + grid.centers[:, 1]
    u = (centre_sum < 1.0 / n - h / 2).astype(float)
    if not u.any():
        raise ValueError("strip resolved to no cells; refine the grid")
    num = energy(lazy_form(grid, kernel, "ball"), u)
    den = energy(lazy_form(grid, kernel, "cen"), u)
    return num, den, num / den
