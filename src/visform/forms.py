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

In vis mode one part-pair rule (``_part_jobs``) decides the visible pairs,
for the streamed energies, the sparse entries of the spectral layer's vis
operator (``_visible_pairs``) and the flags of ``mesh.visibility_pairs``;
a cell set paired with itself is decided once per unordered pair.  On a
convex domain every pair is visible.  On a ``make_dumbbell`` domain cells
are split by region tag.  The pairs from a bell or the corridor to a bell
are decided by the portal rule (``geometry.DomainSpec.portal_runs``): the
x2 of a segment at the mouths it crosses decides it, per source and target
column as runs of the column, and only pairs next to a corridor edge, or
the tube's candidates that its upper edge's vertex leaves open, get a
segment test.  Two cells of one bell, or of the straight dumbbell's slab,
lie in one convex piece of the domain and see each other without a test;
every other pair gets a segment test, the tests of one call's blocks made
together.  An energy sums a visible run from a prefix table of the kernel
over lattice offsets, and the corridor cells' sums per cell, so these sums
differ from a pair-by-pair sum by rounding (a few ulps); its other sums
keep the bits of a segment test of every pair.  Nothing is kept between
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
    """Per cell, its right and upper lattice neighbours (-1 if none), from a
    table of cell indices over the grid's lattice box, one row and column
    wider so that the +1 steps stay inside it."""
    ix, iy = grid.ix - grid.ix.min(), grid.iy - grid.iy.min()
    index = np.full((ix.max() + 2, iy.max() + 2), -1, dtype=np.int64)
    index[ix, iy] = np.arange(grid.n_cells)
    return index[ix + 1, iy], index[ix, iy + 1]


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
    sums = _cross_weight_sums(grid, kernel, mode, groups, pairs)
    total = 0.0
    for (a, b), part in zip(pairs, sums):
        jump = abs(values[a] - values[b]) ** p
        total += jump * part
    return float(2.0 * total)


# ---------------------------------------------------------------------------
# visible pairs and streamed pair evaluation: runs of the portal rule to the
# bells, segment tests for the other vis-mode blocks
# ---------------------------------------------------------------------------

#: (source, column) entries per bell-to-bell block of the portal rule's runs,
#: and candidate pairs per corridor-to-bell block
RUN_BLOCK = 1 << 16

_BELLS = {geometry.TAG_MINUS, geometry.TAG_PLUS}


def clear_visibility_cache():
    """Does nothing: streamed energies keep no state between calls.

    Kept only because ``perfbench/worker.py`` calls it before every pass.
    """


def _bell_columns(grid, B):
    """B's lattice columns, for B cells of one bell of a dumbbell, when B
    can be the targets of ``DomainSpec.portal_runs``: its columns have no
    hole and lie on consecutive lattice rows.  Else None."""
    bell = geometry.LatticeColumns.of(grid.centers[B])
    if bell is None or np.ptp(grid.iy[B]) + 1 != bell.levels.size:
        return None
    return bell


def _part_jobs(grid, groups, pairs):
    """The part-pair rule of vis mode, for the group pairs g = (a, b) of
    ``pairs``: jobs (runs, to_bell, whole, tested).

    On a dumbbell whose mouths decide what sees a bell
    (``DomainSpec.portal_runs``), groups are split by region tag.  A bell
    part B of groups[b] faced by the other bell's part, or by corridor
    parts from either side, is an entry (b, B, bell, sources) of ``runs``
    or ``to_bell``: ``bell`` holds B's columns as the portal rule's
    targets, sources the jobs (g, S) of the parts S facing it.  Two parts
    of one convex piece (a bell, or the straight dumbbell's slab) see each
    other whole: a job (g, A, B) of ``whole``.  Every other part pair, a
    bell part that ``_bell_columns`` declines, and every group pair on
    other domains are jobs of ``tested``, for segment tests; on an
    all-visible domain they are jobs of ``whole``.  A group paired with
    itself (a = b) gives each unordered part pair once, s <= t.
    """
    jobs = [(g, groups[a], groups[b]) for g, (a, b) in enumerate(pairs)]
    if grid.domain.all_visible:
        return [], [], jobs, []
    corridor = grid.domain._portal_corridor()
    if corridor is None:
        return [], [], [], jobs
    slab = isinstance(corridor, geometry.Box)
    convex = _BELLS | {geometry.TAG_STAR} if slab else _BELLS
    tags = grid.tags
    parts = [{int(t): G[tags[G] == t] for t in np.unique(tags[G])}
             for G in groups]
    runs, whole, tested = [], [], []
    faced = {}                # (group, bell tag) -> [(pair, corridor part)]
    for g, (a, b) in enumerate(pairs):
        for s, A in parts[a].items():
            for t, B in parts[b].items():
                if a == b and s > t:
                    continue
                bell = _bell_columns(grid, B) if {s, t} == _BELLS else None
                if bell is not None:
                    runs.append((b, B, bell, [(g, A)]))
                elif s == geometry.TAG_STAR and t in _BELLS:
                    faced.setdefault((b, t), []).append((g, A))
                elif t == geometry.TAG_STAR and s in _BELLS:
                    faced.setdefault((a, s), []).append((g, B))
                elif s == t and s in convex:
                    whole.append((g, A, B))
                else:
                    tested.append((g, A, B))
    to_bell = []
    for (b, t), sources in faced.items():
        B = parts[b][t]
        bell = _bell_columns(grid, B)
        if bell is None:
            tested += [(g, S, B) for g, S in sources]
        else:
            to_bell.append((b, B, bell, sources))
    return runs, to_bell, whole, tested


def _visible_keys(grid, A, B):
    """The visible pairs of A x B, for A and B grid cell indices, as blocks
    of keys i n + j (n cells), unsorted, i from A and j from B; when B is
    A, each unordered pair once, i < j.  The part-pair rule of
    ``_part_jobs`` decides them, as it does for the streamed energies."""
    n = grid.n_cells
    same = B is A
    runs, to_bell, whole, tested = _part_jobs(
        grid, [A] if same else [A, B], [(0, 0)] if same else [(0, 1)])
    for b, T, bell, sources in runs + to_bell:
        for _, S in sources:
            for _, a, src, lo, hi, i, j in _portal_blocks(grid, S, T, bell):
                ri, rj = _run_pairs(src, lo, hi)
                i, j = a[np.concatenate((ri, i))], T[np.concatenate((rj, j))]
                if same:
                    i, j = np.minimum(i, j), np.maximum(i, j)
                elif b == 0:          # the bell cells T are cells of A
                    i, j = j, i
                yield i * n + j
    for _, a, T in _row_blocks(whole):
        yield (a[:, None] * n + T).ravel()
    blocks = _row_blocks(tested)
    for (_, a, T), keep in zip(blocks, _segment_masks(grid, blocks)):
        # when B is A a block lies wholly before or after T, as parts do
        i, j = (T, a[:, None]) if same and a[0] > T[0] else (a[:, None], T)
        yield (i * n + j).ravel()[keep]


def _visible_pairs(grid, A, B):
    """``_visible_keys`` as grid indices (i, j), sorted by (i, j)."""
    keys = [np.zeros(0, dtype=np.int64), *_visible_keys(grid, A, B)]
    return np.divmod(np.sort(np.concatenate(keys)), grid.n_cells)


def _cross_weight_sums(grid, kernel, mode, groups, pairs):
    """Per group pair (a, b) of ``pairs``, the sum of the weights
    k(r) m_i m_j over the pairs groups[a] x groups[b] (the visible ones in
    vis mode).

    In vis mode the part-pair rule of ``_part_jobs`` routes the groups'
    parts.  A bell part against the other bell's part is summed over the
    portal rule's runs (``_run_sum``); the corridor parts against one bell
    part are summed over the runs too, per source, from one call for all
    their cells; two parts in one convex piece see each other whole.  The
    other pairs are summed over segment tests (``_weight_sums``), the tests
    of all of them made together.
    """
    sums = np.zeros(len(pairs))
    if mode != "vis":
        jobs = [(g, groups[a], groups[b]) for g, (a, b) in enumerate(pairs)]
        delta = boundary_distances(grid) if mode == "ball" else None
        _weight_sums(grid, kernel, jobs, sums, delta=delta)
        return sums.tolist()
    runs, to_bell, whole, tested = _part_jobs(grid, groups, pairs)
    table = _offset_table(grid, kernel) if runs or to_bell else None
    for _, B, bell, [(g, A)] in runs:
        sums[g] += _run_sum(grid, kernel, A, B, bell, table)
    for _, B, bell, sources in to_bell:
        S = np.concatenate([S for _, S in sources])
        per_source = _run_sum(grid, kernel, S, B, bell, table, True)
        label = np.repeat([g for g, _ in sources],
                          [S.size for _, S in sources])
        sums += np.bincount(label, per_source, minlength=len(pairs))
    _weight_sums(grid, kernel, whole, sums)
    _weight_sums(grid, kernel, tested, sums, test=True)
    return sums.tolist()


def _row_blocks(jobs):
    """The jobs (g, A, B) cut into blocks (g, a, B) of whole rows a of A
    against all of B, at most PAIR_BLOCK pairs each (one row at least), or
    when B is A into blocks (g, A[k:k + 1], A[k + 1:]), each pair once."""
    blocks = []
    for g, A, B in jobs:
        if B is A:
            blocks += [(g, A[k:k + 1], A[k + 1:]) for k in range(A.size - 1)]
            continue
        rows = max(1, mesh.PAIR_BLOCK // B.size)
        blocks += [(g, A[lo:lo + rows], B) for lo in range(0, A.size, rows)]
    return blocks


def _weight_sums(grid, kernel, jobs, sums, delta=None, test=False):
    """Add to sums[g], for each job (g, A, B), the sum of the weights
    k(r) m_i m_j over the pairs A x B: every pair or, given the boundary
    distances ``delta``, the ball-mode survivors or, given ``test``, the
    pairs that a segment test calls visible.

    Each block of ``_row_blocks`` is summed apart in (source, B) order, so
    a job's sum does not depend on the jobs beside it.
    """
    blocks = _row_blocks(jobs)
    masks = _segment_masks(grid, blocks) if test else [None] * len(blocks)
    for (g, a, B), keep in zip(blocks, masks):
        # pair k of the block is (a[k // |B|], B[k % |B|])
        r = _on_block(_distance, grid.centers[a], grid.centers[B]).ravel()
        mass = _on_block(np.multiply, grid.measures[a],
                         grid.measures[B]).ravel()
        if delta is not None:
            # a survivor has r < max(delta_i, delta_j) / 2, so its segment
            # lies in the open ball of radius delta about one end, inside
            # D: it needs no segment test
            keep = r < _on_block(np.maximum, delta[a], delta[B]).ravel() / 2.0
        if keep is not None:
            r, mass = r[keep], mass[keep]
        if r.size:
            mass *= kernel.k(r)
            sums[g] += float(np.sum(mass))


def _segment_masks(grid, blocks):
    """Per block (g, a, B), the segment tests of its pairs in (source, B)
    order, as a mask.  Consecutive blocks share one call of
    ``segment_inside_many`` of at most PAIR_BLOCK segments (a larger block
    has a call of its own); a call is made when its first mask is due."""
    sizes = [a.size * B.size for _, a, B in blocks]
    start = 0
    while start < len(blocks):
        stop, total = start + 1, sizes[start]
        while stop < len(blocks) and total + sizes[stop] <= mesh.PAIR_BLOCK:
            total += sizes[stop]
            stop += 1
        X, Y = np.empty((total, 2)), np.empty((total, 2))
        at = 0
        for _, a, B in blocks[start:stop]:
            n = a.size * B.size
            X[at:at + n].reshape(a.size, B.size, 2)[...] = \
                grid.centers[a][:, None]
            Y[at:at + n].reshape(a.size, B.size, 2)[...] = grid.centers[B]
            at += n
        keep = grid.domain.segment_inside_many(X, Y)
        del X, Y
        yield from np.split(keep, np.cumsum(sizes[start:stop - 1]))
        start = stop


def _offset_table(grid, kernel):
    """Prefix sums of k over the grid's lattice offsets.

    Returns (P, U) with P[|dix| - 1, diy + U] the sum of k(h |(dix, u)|)
    over u = -U .. diy - 1, for every column offset |dix| >= 1 and every
    row offset |diy| <= U of the grid.
    """
    dx = np.arange(1, np.ptp(grid.ix) + 1, dtype=float)
    U = int(np.ptp(grid.iy))
    du = np.arange(-U, U + 1, dtype=float)
    table = np.zeros((dx.size, 2 * U + 2))
    np.cumsum(kernel.k(grid.h * np.sqrt(dx[:, None] ** 2 + du * du)),
              axis=1, out=table[:, 1:])
    return table, U


def _portal_blocks(grid, A, B, bell):
    """The portal rule's visible pairs from A, cells of one bell or of the
    corridor, to the cells B of a bell, per block of rows of A:
    (lo, a, src, start, stop, i, j) with a = A[lo:lo + |a|], the visible
    runs [start, stop) of ``DomainSpec.portal_runs``, (column, source)
    arrays of indices into B for the sources a[src], and the pairs
    (a[i], B[j]) of its band runs that ``DomainSpec.portal_inside_many``
    calls visible.

    A is walked in blocks of ``RUN_BLOCK // |B|`` rows when it lies in the
    corridor, as a corridor source on the tube may have every cell of B as
    a candidate, else of ``RUN_BLOCK // columns`` rows.
    """
    domain = grid.domain
    corridor = grid.tags[A[0]] == geometry.TAG_STAR
    rows = max(1, RUN_BLOCK // (B.size if corridor else bell.x.size))
    for lo in range(0, A.size, rows):
        a = A[lo:lo + rows]
        src, first, start, stop, last = domain.portal_runs(grid.centers[a],
                                                           bell)
        # the pairs of the band runs, decided apart
        i, j = (np.concatenate(v) for v in zip(_run_pairs(src, first, start),
                                                _run_pairs(src, stop, last)))
        del first, last           # a block holds few (C, n) arrays at once
        if i.size:                # a block may have no band pair
            ok = domain.portal_inside_many(grid.centers[a[i]], bell.points[j])
            i, j = i[ok], j[ok]
        yield lo, a, src, start, stop, i, j


def _run_sum(grid, kernel, A, B, bell, table, per_source=False):
    """Sum of k(r) m_i m_j over the visible pairs from A to the bell cells B,
    in total or, given ``per_source``, per cell of A.

    A lies in the other bell, or in the corridor.  Each visible run of
    ``_portal_blocks`` is summed as a difference of two entries of the
    prefix table of ``_offset_table``, and the visible pairs of its band
    runs from k(h |offset|) one by one.  Every cell has measure h^2.  The
    terms are those of a sum over the visible pairs, in another order and
    with lattice offsets for centre differences, so the sum moves by ulps.
    """
    P, U = table
    h = grid.h
    # target j of column c lies at the lattice offset (cx - ix,
    # cy - first[c] + j - iy) from a source (ix, iy), (cx, cy) the column's
    # lowest cell, as a column holds consecutive rows; cx - ix has one
    # sign, as B lies beyond a mouth and A does not.  So its entry of P is
    # at a column term plus a source term plus j.
    head = B[bell.first]
    sign = 1 if bell.x[0] > 0.0 else -1
    width = P.shape[1]
    column = ((sign * grid.ix[head] - 1) * width
              + grid.iy[head] - bell.first + U)
    total = np.zeros(A.size) if per_source else 0.0
    for lo, a, src, start, stop, i, j in _portal_blocks(grid, A, B, bell):
        # the runs' ends as indices into P, in place
        source = -(sign * width * grid.ix[a[src]] + grid.iy[a[src]])
        for end in (start, stop):
            end += column[:, None]
            end += source
        runs = P.take(stop)
        runs -= P.take(start)
        dix = (grid.ix[B[j]] - grid.ix[a[i]]).astype(float)
        diy = (grid.iy[B[j]] - grid.iy[a[i]]).astype(float)
        band = kernel.k(h * np.sqrt(dix * dix + diy * diy))
        if per_source:
            total[lo + src] += np.sum(runs, axis=0)
            total[lo:lo + a.size] += np.bincount(i, band, minlength=a.size)
        else:
            total += float(np.sum(runs) + np.sum(band))
    m = h * h
    return m * m * total


def _on_block(f, xa, xb):
    """f(x, y) over the block xa x xb, x from xa and y from xb, as an array
    of shape (len xa, len xb).

    numpy's inner loops run along the last axis of a broadcast, so the
    longer side is put there and the result transposed back.
    """
    if xb.shape[0] >= xa.shape[0]:
        return f(xa[:, None], xb[None])
    return f(xa[None], xb[:, None]).T


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
