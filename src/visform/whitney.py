"""Whitney decomposition, admissible chains, and chain-style domain audits.

The decomposition subdivides the bounding box top-down and accepts a
dyadic cube Q once the sandwich  diam(Q) <= dist(Q, bdry D) <= 4 diam(Q)
is certified: the lower bound through an exact (or Lipschitz-slack)
minimum of the boundary-distance field over the cube, the upper bound
through the field at the cube center.  Boundary-hugging cubes recurse to
``max_level`` and the uncovered sliver is reported as residual measure.

The construction is level-synchronous: the live cubes of one level are
an (n, d) array of lattice anchors, their centers are evaluated in one
``boundary_distance_many`` call, the certified lower bounds come from
(n, 2^d, d) corner arrays, and masks decide accept, drop (wholly
outside, or a sliver at ``max_level``) or split into the next level's
anchors.  Each cube's decision depends on that cube alone, so the cube
set is the one a per-cube recursion gives.  A decomposition stores each
cube only as its (level, anchor) row, sorted in that order; sides,
corners and centers are derived from the rows.

Admissible chains are searched on the cubes' touching graph, a CSR
pattern found by dyadic-lattice lookups per level pair, by one
``scipy.sparse.csgraph.dijkstra`` call per endpoint.  Cube costs are
whole finest-side units, so ties are exact, and the path is walked back
by the smallest-index parent: the chain a (cost, index) heap gives.
scipy is imported by the chain search, on its first call; the
decomposition and the audits use numpy alone.

The chain-sum estimate ``verify_whitney_sum`` is a filtered sup
(Shewchuk's filtered predicates, Discrete Comput. Geom. 18, 1997): a
float32 screen in finest-lattice units, with a proven relative error
bound (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
4.2, for the positive row sums), values every source, and only the
sources that screen within that bound of the largest get the exact
float64 sum.  One loop takes both, in blocks of rows against (d, n)
columns of the cube bounds with the per-source arithmetic and summation
order.  The sup and its source keep their bits; where the bound cannot
be certified every source gets the float64 sum.

Level-L cubes have side  base * 2^-L  with base a quarter of the
bounding-box side, so level 0 starts below the domain scale and the
finest cells at the default audit depth resolve the boundary to ~1e-3
of the box.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry

#: cube-side window, relative to |x-y|, for comparable-size path cubes;
#: the floor matches the diam-normalized sandwich (diam <= dist <= 4 diam),
#: under which the largest cube side is ~dist/sqrt(2) of the side-based one
SIZE_WINDOW = (1.0 / 16.0, 1.0)
#: cube-pair visibility tests per visible-path search
SEARCH_BUDGET = 100_000
#: most cubes on a visible path
PATH_CUBES = 8
#: elements per (sources, cubes) block of the chain sum (cache-sized)
CHUNK = 1 << 16
#: most sources Q of the chain-sum sup; more cubes give a stratified subset
MAX_SOURCES = 4000
#: coverage_residual's lattice steps per side of the finest cube
RESIDUAL_OVERSAMPLE = 2


def _box_distance(lo_a, hi_a, lo_b, hi_b):
    """Euclidean distance between closed boxes, row by row."""
    gaps = np.maximum(0.0, np.maximum(lo_a - hi_b, lo_b - hi_a))
    return np.sqrt(np.sum(gaps ** 2, axis=-1))


def _corners(lows, highs):
    """(n, 2^d, d) cube corners; bit k of corner j picks hi on axis k."""
    dim = lows.shape[1]
    pick = ((np.arange(1 << dim)[:, None] >> np.arange(dim)) & 1).astype(bool)
    return np.where(pick, highs[:, None, :], lows[:, None, :])


def _exact_min_sd(prim, lows, highs, corners):
    """Exact min over each cube of the primitive's signed distance.

    -inf where no exact minimum is known (a tube, or a box corner outside
    the box), which leaves the cube to the Lipschitz bound.
    """
    n, k, dim = corners.shape
    flat = corners.reshape(n * k, dim)
    if isinstance(prim, (geometry.Ball, geometry.Annulus)):
        c = np.asarray(prim.center)
        off = flat - c
        far2 = np.einsum("ij,ij->i", off, off).reshape(n, k)
        far = np.sqrt(far2.max(axis=1))
        if isinstance(prim, geometry.Ball):
            return prim.radius - far
        near = np.hypot(*(np.clip(c, lows, highs) - c).T)
        return np.minimum(prim.r_out - far, near - prim.r_in)
    if isinstance(prim, geometry.Box):
        sd = prim.signed_distance(flat).reshape(n, k)
        # wall distances are linear inside
        return np.where(np.all(sd > 0.0, axis=1), sd.min(axis=1), -np.inf)
    return np.full(n, -np.inf)


def _min_delta_lower_bound(domain, lows, highs, center_delta, diam):
    """Certified lower bound on min over each cube of boundary_distance.

    The 1-Lipschitz center bound always applies; exact per-primitive box
    minima sharpen it where available (the union field is a max of the
    primitive fields, the clip then caps it from above).
    """
    lipschitz = center_delta - diam / 2.0
    if not isinstance(domain, geometry.DomainSpec):
        return lipschitz
    corners = _corners(lows, highs)
    exact = np.full(len(lows), -np.inf)
    for prim in domain.primitives:
        exact = np.maximum(exact, _exact_min_sd(prim, lows, highs, corners))
    if domain.clip is not None:              # clip intersects the union
        exact = np.minimum(exact, _exact_min_sd(domain.clip, lows, highs,
                                                corners))
    return np.maximum(lipschitz, exact)


@dataclass
class WhitneyDecomposition:
    """Accepted cubes as (level, anchor) rows, sorted by (level, anchor).

    A cube's side, corners and center are derived from its row with
    ``whitney_decompose``'s arithmetic, so they are the lattice's.
    """
    domain: object
    levels: np.ndarray           # (n,) dyadic level
    anchors: np.ndarray          # (n, d) lattice position at that level
    base: float
    max_level: int
    bbox_lo: tuple
    bbox_hi: tuple
    sides: np.ndarray = field(init=False)        # (n,) base * 2^-level
    lows: np.ndarray = field(init=False)         # (n, d)
    highs: np.ndarray = field(init=False)        # (n, d)
    centers: np.ndarray = field(init=False)
    _adjacency: object = field(default=None, init=False)  # by adjacency()

    def __post_init__(self):
        self.sides = self.base * 2.0 ** -self.levels
        self.lows = (np.asarray(self.bbox_lo, dtype=float)
                     + self.anchors * self.sides[:, None])
        self.highs = self.lows + self.sides[:, None]
        self.centers = (self.lows + self.highs) / 2.0

    @property
    def n_cubes(self):
        return self.sides.shape[0]

    @property
    def dim(self):
        return self.lows.shape[1]

    def set_distance(self, qi, si):
        """Euclidean distance between the two closed cubes."""
        return float(_box_distance(self.lows[qi], self.highs[qi],
                                   self.lows[si], self.highs[si]))

    def set_distances(self, qi):
        """set_distance from cube qi to every cube (same arithmetic)."""
        return _box_distance(self.lows[qi], self.highs[qi], self.lows,
                             self.highs)

    def long_distance(self, qi, si):
        return float(self.sides[qi] + self.set_distance(qi, si)
                     + self.sides[si])

    def adjacency(self):
        """Closed-cube touching (corner contact counts) as a symmetric CSR
        pattern.

        The cubes lie on one dyadic lattice, so a level-b cube B can touch
        only the level-a cubes (a <= b) anchored at floor((B + s) / 2^(b-a))
        for steps s in {-1, 0, 1}^d, and exactly those touch it (closed
        cubes): they are looked up by (level, anchor) key.
        """
        if self._adjacency is not None:
            return self._adjacency
        from scipy.sparse import csr_array

        n = self.n_cubes
        steps = np.asarray(list(np.ndindex(*(3,) * self.dim))) - 1
        keys, weight = _lattice_keys(self)
        pairs = []
        for b in np.unique(self.levels):
            fine = np.flatnonzero(self.levels == b)
            near = self.anchors[fine, None, :] + steps
            for a in range(b + 1):
                cand = a * weight[0] + (near // 2 ** (b - a)) @ weight[1:]
                at = np.minimum(np.searchsorted(keys, cand), n - 1)
                hit = keys[at] == cand
                i = at[hit]
                j = np.broadcast_to(fine[:, None], hit.shape)[hit]
                pairs.append(i[i < j] * n + j[i < j])
        i, j = np.divmod(np.unique(np.concatenate(pairs)), n)
        self._adjacency = csr_array(         # sorted columns
            (np.ones(2 * i.size), (np.concatenate([i, j]),
                                   np.concatenate([j, i]))), shape=(n, n))
        return self._adjacency

    def dump_csv(self, path):
        with open(path, "w") as fh:
            fh.write("level,side," +
                     ",".join(f"lo{d}" for d in range(self.dim)) + "," +
                     ",".join(f"hi{d}" for d in range(self.dim)) + "\n")
            # plain Python ints and floats, so no numpy types in the reprs
            for level, side, lo, hi in zip(
                    self.levels.tolist(), self.sides.tolist(),
                    self.lows.tolist(), self.highs.tolist()):
                fh.write(",".join(map(repr, [level, side, *lo, *hi])) + "\n")


def whitney_decompose(domain, max_level=8):
    """Dyadic Whitney cubes of a bounded domain (clip unbounded ones first)."""
    bb_lo, bb_hi = domain.bounding_box()
    bb_lo = np.asarray(bb_lo, dtype=float)
    bb_hi = np.asarray(bb_hi, dtype=float)
    dim = bb_lo.shape[0]
    side0 = float(np.max(bb_hi - bb_lo))
    base = side0 / 4.0

    # level-0 tiling of the box with side-base cubes
    counts = np.maximum(1, np.ceil((bb_hi - bb_lo) / base - 1e-12).astype(int))
    anchors = np.asarray(list(np.ndindex(*counts)), dtype=np.int64)
    children = np.asarray(list(np.ndindex(*(2,) * dim)), dtype=np.int64)
    levels, kept = [], []
    for level in range(max_level + 1):
        side = base * 2.0 ** (-level)
        diam = side * np.sqrt(dim)
        lo = bb_lo + anchors * side
        hi = lo + side
        delta = domain.boundary_distance_many((lo + hi) / 2.0)
        lower = _min_delta_lower_bound(domain, lo, hi, delta, diam)
        # wholly outside: boundary_distance is -dist(x, D) out there
        live = ~(delta + diam / 2.0 <= 0.0)
        accept = live & (lower >= diam) & (delta <= 4.0 * diam)
        done = np.flatnonzero(accept)
        done = done[np.lexsort(anchors[done].T[::-1])]      # anchor order
        levels.append(np.full(done.size, level))
        kept.append(anchors[done])
        # cubes still undecided at max_level are the boundary sliver,
        # reported by coverage_residual
        split = anchors[live & ~accept]
        anchors = (2 * split[:, None, :] + children).reshape(-1, dim)

    return WhitneyDecomposition(
        domain=domain, levels=np.concatenate(levels),
        anchors=np.concatenate(kept), base=base, max_level=max_level,
        bbox_lo=tuple(bb_lo), bbox_hi=tuple(bb_hi))


def coverage_residual(decomp):
    """(residual measure, domain measure) from a deterministic lattice.

    Rasterizes the accepted cubes on a midpoint lattice RESIDUAL_OVERSAMPLE
    times finer than the finest cube and measures the part of the domain
    left uncovered.
    """
    finest = decomp.base * 2.0 ** (-decomp.max_level)
    step = finest / RESIDUAL_OVERSAMPLE
    lo = np.asarray(decomp.bbox_lo)
    hi = np.asarray(decomp.bbox_hi)
    counts = np.ceil((hi - lo) / step).astype(int)
    covered = np.zeros(tuple(counts), dtype=bool)
    # exact index ranges: a level-l cube spans 2^(max_level - l) finest
    # sides, RESIDUAL_OVERSAMPLE steps each
    span = RESIDUAL_OVERSAMPLE * 2 ** (decomp.max_level
                                       - decomp.levels[:, None])
    first = decomp.anchors * span
    for i0, i1 in zip(first.tolist(), (first + span).tolist()):
        covered[tuple(slice(max(0, a), min(n, b))
                      for a, b, n in zip(i0, i1, counts))] = True

    cell = step ** decomp.dim
    residual = 0.0
    measure = 0.0
    # row-blocked membership to bound memory on fine lattices
    axes = [lo[d] + (np.arange(counts[d]) + 0.5) * step
            for d in range(decomp.dim)]
    block = max(1, int(2_000_000 // max(1, np.prod(counts[1:]))))
    for start in range(0, counts[0], block):
        stop = min(start + block, counts[0])
        mesh_axes = np.meshgrid(axes[0][start:stop], *axes[1:], indexing="ij")
        pts = np.stack([m.ravel() for m in mesh_axes], axis=1)
        inside = decomp.domain.contains_many(pts)
        cov = covered[start:stop].ravel()
        measure += float(inside.sum()) * cell
        residual += float((inside & ~cov).sum()) * cell
    return residual, measure


def check_sandwich(decomp):
    """Re-verify diam <= dist <= 4 diam for every accepted cube.

    Checks the implied necessary conditions on the domain's distance
    field: every corner and the center sit at least diam from the
    boundary, the certified cube minimum reaches diam, and the center
    value caps dist(Q, bdry) at 4 diam.  Returns the failing indices.
    """
    lows, highs = decomp.lows, decomp.highs
    diam = decomp.sides * np.sqrt(decomp.dim)
    pts = np.concatenate([_corners(lows, highs), decomp.centers[:, None, :]],
                         axis=1)
    dvals = decomp.domain.boundary_distance_many(
        pts.reshape(-1, decomp.dim)).reshape(pts.shape[:2])
    center_delta = dvals[:, -1]
    lower = _min_delta_lower_bound(decomp.domain, lows, highs, center_delta,
                                   diam)
    ok = ((dvals.min(axis=1) >= diam - 1e-12)
          & (lower >= diam - 1e-12)
          & (center_delta <= 4.0 * diam + 1e-12))
    return np.flatnonzero(~ok).tolist()


def _lattice_keys(decomp):
    """Mixed-radix (level, anchor) keys, increasing in the cubes' (level,
    anchor) order, and the digit weights; a digit of -1 or max + 1, one
    step off the lattice, matches no cube."""
    radix = decomp.anchors.max(axis=0) + 2
    weight = np.cumprod(np.append(1, radix[::-1]))[::-1]
    return np.column_stack([decomp.levels, decomp.anchors]) @ weight, weight


def disjoint_interiors(decomp):
    """True when no two cubes overlap on an open set (dyadic check): no
    (level, anchor) repeats and no cube's strict ancestor is present,
    looked up by key per pair of levels."""
    if decomp.n_cubes == 0:
        return True
    keys, weight = _lattice_keys(decomp)
    keys = np.sort(keys)
    if np.any(keys[1:] == keys[:-1]):
        return False
    for b in np.unique(decomp.levels):
        fine = decomp.anchors[decomp.levels == b]
        for a in range(b):
            cand = a * weight[0] + (fine // 2 ** (b - a)) @ weight[1:]
            at = np.minimum(np.searchsorted(keys, cand), keys.size - 1)
            if np.any(keys[at] == cand):
                return False
    return True


# ---------------------------------------------------------------------------
# admissible chains
# ---------------------------------------------------------------------------

@dataclass
class Chain:
    indices: list                  # cube indices along the chain
    epsilon: float
    j0: int                        # central position (0-based)
    length: float                  # sum of cube sides


def _path_long_distances(decomp, path):
    """Sides along a path from q to s, and D(q, c), D(c, s) for each of its
    cubes c, summed in long_distance's order: side(a) + set_distance(a, b)
    + side(b)."""
    sides = decomp.sides[path]
    lows, highs = decomp.lows[path], decomp.highs[path]
    to_q = sides[0] + _box_distance(lows[0], highs[0], lows, highs) + sides
    to_s = sides + _box_distance(lows, highs, lows[-1], highs[-1]) + sides[-1]
    return sides, to_q, to_s


def _central_index(decomp, path, eps):
    """Smallest valid central position, or None."""
    sides, to_q, to_s = _path_long_distances(decomp, path)
    # the Q-side condition holds up to j, the S-side one from j on
    pref_all = np.logical_and.accumulate(sides >= eps * to_q)
    suff_all = np.logical_and.accumulate((sides >= eps * to_s)[::-1])[::-1]
    central = np.flatnonzero(pref_all & suff_all)
    return int(central[0]) if central.size else None


def validate_chain(decomp, chain):
    """Re-check the three admissibility clauses from scratch."""
    idx = chain.indices
    lows, highs = decomp.lows[idx], decomp.highs[idx]
    if np.any(_box_distance(lows[:-1], highs[:-1], lows[1:], highs[1:])
              > 1e-9 * decomp.base):
        return False
    eps = chain.epsilon
    sides, to_q, to_s = _path_long_distances(decomp, idx)
    if sum(sides.tolist()) > to_q[-1] / eps + 1e-12:
        return False
    pos = np.arange(len(idx))
    grows_q = sides >= eps * to_q - 1e-12
    grows_s = sides >= eps * to_s - 1e-12
    return bool(grows_q[pos <= chain.j0].all()
                and grows_s[pos >= chain.j0].all())


def _growth_tree(adj, units, start, grows, limit):
    """Distances from ``start`` in finest-side units over the cubes where
    ``grows`` holds (entering cube v costs units[v]); inf past ``limit``."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import dijkstra

    keep = grows[adj.indices]
    indptr = np.concatenate([[0], np.cumsum(keep)])[adj.indptr]
    cols = adj.indices[keep]
    graph = csr_array((units[cols], cols, indptr), shape=adj.shape)
    return dijkstra(graph, indices=start, limit=limit)


def _walk_back(adj, units, dist, node):
    """Tree path from the root to ``node``; each parent is the smallest-index
    neighbour u with dist[u] + units[v] == dist[v], as a heap settles it."""
    path = [node]
    while dist[node] > 0.0:
        nb = adj.indices[adj.indptr[node]:adj.indptr[node + 1]]
        node = int(nb[np.argmax(dist[nb] + units[node] == dist[node])])
        path.append(node)
    path.reverse()
    return path


def find_admissible_chain(decomp, qi, si, eps):
    """Search for an eps-admissible chain from cube qi to si.

    Admissible chains grow away from both endpoints and meet at a
    central cube, so the search mirrors that shape: one shortest-path
    tree from Q over cubes satisfying the Q-side growth condition, one
    from S over the S-side condition, joined at the cube minimizing the
    total side-length sum (the smallest index among ties).  Costs are
    whole finest-side units, so ties are exact; ``length`` sums the sides
    as a heap would, each tree's path from its root, minus the junction's
    side.  The central-cube condition then holds at the junction by
    construction; the returned chain is still re-validated from scratch.
    None means no such two-tree chain within D(Q,S)/eps, not that no
    admissible chain exists.
    """
    sides = decomp.sides
    if qi == si:
        chain = Chain([qi], eps, 0, float(sides[qi]))
        return chain if validate_chain(decomp, chain) else None
    limit = decomp.long_distance(qi, si) / eps
    tol = 1e-12

    # the growth conditions of every cube at once, summed in long_distance's
    # order: side(a) + set_distance(a, b) + side(b)
    grows_q = sides >= eps * (sides[qi] + decomp.set_distances(qi)
                              + sides) - tol
    grows_s = sides >= eps * (sides + decomp.set_distances(si)
                              + sides[si]) - tol
    adj = decomp.adjacency()
    units = 2.0 ** (decomp.max_level - decomp.levels)
    bound = (limit + tol) / (decomp.base * 2.0 ** -decomp.max_level)
    from_q = _growth_tree(adj, units, qi, grows_q, bound - units[qi])
    from_s = _growth_tree(adj, units, si, grows_s, bound - units[si])

    junction = int(np.argmin(from_q + from_s - units))
    if not np.isfinite(from_q[junction] + from_s[junction]):
        return None
    head = _walk_back(adj, units, from_q, junction)
    tail = _walk_back(adj, units, from_s, junction)
    length = (float(np.cumsum(sides[head])[-1])
              + float(np.cumsum(sides[tail])[-1]) - float(sides[junction]))
    if length > limit + tol:
        return None
    path = head + tail[-2::-1]
    j0 = _central_index(decomp, path, eps)
    if j0 is None:
        return None
    chain = Chain(indices=path, epsilon=eps, j0=j0, length=length)
    return chain if validate_chain(decomp, chain) else None


# ---------------------------------------------------------------------------
# the chain-sum estimate
# ---------------------------------------------------------------------------

def _row_sums(lows, highs, sides, powered, qs, b):
    """sum over S of powered(S) / (side(Q) + dist(Q, S) + side(S))^b for
    each Q in qs, in the dtype of the (d, n) cube bounds and (n,) sides.

    Sources go B = CHUNK // n at a time through one (B, n) buffer.  Each
    element sees the per-source arithmetic in its order: squared gaps
    summed axis by axis, sqrt, side(Q) + dist + side(S), the power, the
    division, and a pairwise ``np.sum`` along the contiguous row, so a
    source's row sum does not depend on the others in its block.  float32
    takes the power by products, as the screen's error bound assumes;
    float64 takes numpy's array power.
    """
    n = sides.shape[0]
    rows = max(1, CHUNK // n)
    q_lows, q_highs, q_sides = lows[:, qs], highs[:, qs], sides[qs]
    buf, gap, other, zero = (np.zeros((rows, n), sides.dtype)
                             for _ in range(4))
    sums = np.empty(len(qs), sides.dtype)
    for start in range(0, len(qs), rows):
        q = slice(start, start + rows)
        m = min(rows, len(qs) - start)
        acc, g, g2 = buf[:m], gap[:m], other[:m]
        for k in range(lows.shape[0]):
            np.subtract(q_lows[k, q, None], highs[k], out=g)
            np.subtract(lows[k], q_highs[k, q, None], out=g2)
            np.maximum(g, g2, out=g)
            np.maximum(g, zero[:m], out=g)
            if k == 0:
                np.square(g, out=acc)
            else:
                acc += np.square(g, out=g)
        np.sqrt(acc, out=acc)
        acc += q_sides[q, None]
        acc += sides
        if acc.dtype == np.float32:
            np.copyto(g, acc)
            for _ in range(int(b) - 1):
                g *= acc
        else:
            acc **= b
            g = acc
        np.divide(powered, g, out=acc)
        sums[q] = np.sum(acc, axis=1)
    return sums


def _whitney_sum_values(decomp, a, b, qs):
    """side(Q)^(b-a) * sum over S of side(S)^a / D(Q,S)^b for each Q in qs.

    The exact path of ``verify_whitney_sum``, for the sources its screen
    keeps (or all of them): float64 ``_row_sums`` of the cube bounds.  The
    factor side(Q)^(b-a) stays a scalar power per source: numpy's array
    power differs from it in the last bit for a few percent of inputs.
    """
    sides = decomp.sides
    sums = _row_sums(np.ascontiguousarray(decomp.lows.T),      # (d, n)
                     np.ascontiguousarray(decomp.highs.T), sides, sides ** a,
                     qs, b)
    return np.array([sides[q] ** (b - a) * s
                     for q, s in zip(qs.tolist(), sums.tolist())])


# The screen's error against the exact lattice value V, first order in
# u = 2^-24 (each float32 operation rounds by at most u).  Anchors are
# nonnegative, so coordinates are integers in [0, reach], and below 2^24
# the gaps are exact.  The squared gaps summed over d axes err by d u, the
# sqrt by (d/2 + 1) u, and the two side additions leave den = dist + w_Q
# + w_S within (d/2 + 3) u.  For integral b, den^b errs by b times that
# plus b - 1 products, and side^a (rounded once) over it by two more: at
# most (b (d/2 + 4) + 1) u a term.
# numpy's pairwise row sum passes a term through at most 25 additions in a
# block of 128 (8 accumulators of 16, their 3-level join, 7 leftovers) and
# one more per halving, 39 in all for n <= 2^20; the terms are positive,
# so the row sum errs by at most 39 u more.  The float64 path takes the
# same steps at u = 2^-53, from coordinates bb_lo + anchor * side rounded
# by at most 3 scale 2^-53 finest sides (scale = reach + |bbox| in finest
# sides), so its den, at least 2 finest sides, errs by 3 sqrt(d) scale
# 2^-53 more, and its den^b by b times that.  A term neither overflows nor
# goes subnormal while every den^b lies in [1, 2^120].  The screen runs
# only where 10 times the sum of these bounds stays within _SCREEN_ERR
# (2-D, b = 3: 55 u plus about 2^-36, an 18-fold margin).  A non-integral
# b is not screened: numpy's float32 power errs by up to 15 u, and every
# experiment takes b = 3.
#: relative distance allowed between the float32 chain-sum screen and the
#: float64 sums of _whitney_sum_values
_SCREEN_ERR = 2.0 ** -14


def _screen_values(decomp, a, b, qs):
    """float32 screen of _whitney_sum_values(decomp, a, b, qs): each value
    within _SCREEN_ERR of the float64 one, relatively, or None where b is
    not integral or the bound above cannot be certified.

    The value is scale-free, so it is taken in finest-lattice units:
    coordinates are the integers anchor * 2^(L - level) and sides
    w = 2^(L - level), L the finest level.  The row sums are float32
    ``_row_sums``; times w_Q^(b-a) they are float64.
    """
    if not float(b).is_integer():
        return None
    levels = decomp.levels
    dim, n = decomp.dim, decomp.n_cubes
    top = int(levels.max())
    w = 2.0 ** (top - levels)
    lo = decomp.anchors * w[:, None]                    # exact integers
    hi = lo + w[:, None]
    finest = decomp.sides.min()
    reach = float(hi.max())
    scale = reach + np.abs(decomp.bbox_lo + decomp.bbox_hi).max() / finest
    bound = ((b * (dim / 2 + 4) + 40) * (2.0 ** -24 + 2.0 ** -53)
             + b * 3 * np.sqrt(dim) * scale * 2.0 ** -53)
    if not (reach < 2 ** 24 and n <= 2 ** 20
            and b * np.log2(2 * w.max() + np.sqrt(dim) * reach) <= 120
            and 10 * bound <= _SCREEN_ERR):
        return None
    sums = _row_sums(np.ascontiguousarray(lo.T, dtype=np.float32),
                     np.ascontiguousarray(hi.T, dtype=np.float32),
                     w.astype(np.float32), (w ** a).astype(np.float32), qs, b)
    return sums.astype(float) * w[qs] ** (b - a)


def verify_whitney_sum(decomp, a, b):
    """sup over Q of side(Q)^(b-a) * sum over S of side(S)^a / D(Q,S)^b.

    Requires b > a > d - 1.  When the decomposition has more than
    MAX_SOURCES cubes the sup is taken over a deterministic stratified
    subset of MAX_SOURCES sources Q (the inner sum always runs over every
    S).  Returns the sup and the first source that attains it.

    A float32 screen (``_screen_values``) values every source within
    _SCREEN_ERR of its float64 sum, so a source attaining the sup screens
    at least max * (1 - E) / (1 + E); only those sources, usually a
    handful, get float64 sums, and the sup and its first source are the
    ones of the float64 sums of all sources.  Where b is not integral or
    the screen's bound is not certified (den^b out of float32 range, a
    large b, or a lattice too fine for float32 integers) every source gets
    its float64 sum.
    """
    d = decomp.dim
    if not b > a > d - 1:
        raise ValueError(f"need b > a > d-1, got a={a}, b={b}, d={d}")
    n = decomp.n_cubes
    if n == 0:
        raise ValueError("empty decomposition")
    if n > MAX_SOURCES:
        qs = np.unique(np.linspace(0, n - 1, MAX_SOURCES).astype(int))
    else:
        qs = np.arange(n)
    screened = _screen_values(decomp, a, b, qs)
    if screened is not None:
        keep = screened.max() * ((1.0 - _SCREEN_ERR) / (1.0 + _SCREEN_ERR))
        qs = qs[screened >= keep]
    vals = _whitney_sum_values(decomp, a, b, qs)
    best = int(np.argmax(vals))          # the first maximum
    return float(vals[best]), int(qs[best])


# ---------------------------------------------------------------------------
# path condition audit (comparably-sized mutually visible cubes)
# ---------------------------------------------------------------------------

@dataclass
class PathConditionReport:
    ok: bool
    n_pairs: int
    found: int
    max_path_len: int


def _cube_sample_points(decomp, cubes, shrink=1e-3):
    """(len(cubes), 2^d + 1, d) corner and center samples of the open cubes
    (corners pulled inward).

    Closed-cube corners can sit exactly on a wall of the domain, where the
    grazing segment is a measure-zero false negative for the open cube.
    """
    center = decomp.centers[cubes][:, None, :]
    corners = _corners(decomp.lows[cubes], decomp.highs[cubes])
    return np.concatenate([center + (1.0 - shrink) * (corners - center),
                           center], axis=1)


def _cube_visible_from_point(domain, x, cubes, decomp):
    """Which cubes are wholly visible from x (corner + center certificate)."""
    pts = _cube_sample_points(decomp, cubes).reshape(-1, decomp.dim)
    X = np.broadcast_to(np.asarray(x), pts.shape)
    vis = domain.segment_inside_many(X, pts)
    return vis.reshape(len(cubes), -1).all(axis=1)


def _cubes_mutually_visible(domain, decomp, qa, qb):
    pa, pb = _cube_sample_points(decomp, [qa, qb])
    X = np.repeat(pa, pb.shape[0], axis=0)
    Y = np.tile(pb, (pa.shape[0], 1))
    return bool(domain.segment_inside_many(X, Y).all())


def audit_visible_paths(domain, decomp, n_pairs=40, seed=0):
    """Sampled audit of the bounded-path visibility condition.

    For random pairs x, y in D with y not visible from x, searches the
    cubes of ``decomp`` for at most PATH_CUBES cubes of side within
    SIZE_WINDOW * |x-y|, the first wholly visible from x, the last from y,
    consecutive ones mutually visible, within SEARCH_BUDGET cube-pair
    tests.  Convex domains yield no such pairs and pass vacuously.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0B]))
    bb_lo, bb_hi = domain.bounding_box()
    pairs = []
    attempts = 0
    while len(pairs) < n_pairs and attempts < 400 * n_pairs:
        attempts += 1
        pts = rng.uniform(bb_lo, bb_hi, size=(2, 2))
        if not domain.contains_many(pts).all():
            continue
        if not domain.segment_inside_many(pts[:1], pts[1:2])[0]:
            pairs.append((pts[0], pts[1]))

    report = PathConditionReport(ok=True, n_pairs=len(pairs), found=0,
                                 max_path_len=0)
    centers = decomp.centers
    sides = decomp.sides
    for x, y in pairs:
        r = float(np.hypot(*(y - x)))
        mid = (x + y) / 2.0
        size_ok = (sides >= SIZE_WINDOW[0] * r) & (sides <= SIZE_WINDOW[1] * r)
        near = np.einsum("ij,ij->i", centers - mid, centers - mid) \
            <= (8.0 * PATH_CUBES * r) ** 2
        cand = np.nonzero(size_ok & near)[0]
        if cand.size == 0:
            continue
        from_x = _cube_visible_from_point(domain, x, list(cand), decomp)
        from_y = _cube_visible_from_point(domain, y, list(cand), decomp)
        starts = cand[from_x]
        goals = set(int(c) for c in cand[from_y])
        path = _bfs_visible_path(domain, decomp, list(starts), goals,
                                 set(int(c) for c in cand))
        if path is None:
            continue
        report.found += 1
        report.max_path_len = max(report.max_path_len, len(path))
    if report.found < report.n_pairs:
        report.ok = False
    return report


def _bfs_visible_path(domain, decomp, starts, goals, allowed):
    """Shortest path in the candidate-cube visibility graph, edges on demand."""
    frontier = sorted(dict.fromkeys(starts))
    allowed_order = sorted(allowed)
    parents = {s: -1 for s in frontier}
    for s in frontier:
        if s in goals:
            return [s]
    tested = 0
    depth = 1
    while frontier and depth < PATH_CUBES and tested < SEARCH_BUDGET:
        nxt = []
        for node in frontier:
            for other in allowed_order:
                if other in parents:
                    continue
                tested += 1
                if tested >= SEARCH_BUDGET:
                    break
                if _cubes_mutually_visible(domain, decomp, node, other):
                    parents[other] = node
                    nxt.append(other)
                    if other in goals:
                        path = [other, node]
                        while parents[path[-1]] != -1:
                            path.append(parents[path[-1]])
                        return path[::-1]
            if tested >= SEARCH_BUDGET:
                break
        frontier = nxt
        depth += 1
    return None
