"""Constructive domains as finite unions of analytic primitives.

A domain is a union of primitives (half-space, ball, box, parabolic tube,
annulus), optionally intersected with a clipping ball.  Every primitive
supports three exact queries, all vectorized over point/segment batches:

* membership of a point,
* the parameter set {t in [0,1] : x + t(y-x) in primitive} of a segment,
  returned as a small fixed number of closed interval "slots",
* signed distance to the primitive boundary (positive inside).

Segment containment in the union is decided by covering [0,1] with the
interval slots of all primitives; distance to the union boundary is the
max of the signed distances (exact inside a single primitive, a documented
under-approximation where primitives overlap).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

# Absolute tolerance on segment parameters when deciding interval coverage.
# Open-set boundary cases are measure zero; the tolerance keeps them from
# flipping under refinement.
TAU_GEOM = 1e-9

#: segments per pass of DomainSpec.segment_inside_many (cache-sized chunks)
SEGMENT_CHUNK = 1 << 14

_INF = np.inf


def _as_points(x):
    a = np.atleast_2d(np.asarray(x, dtype=float))
    if a.shape[-1] != 2:
        raise ValueError(f"expected 2D points, got shape {a.shape}")
    return a


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

class Primitive:
    """Base of all primitive shapes; subclasses are immutable value objects."""

    #: True when the primitive is a convex set.  Unions of one convex
    #: primitive admit the trivial all-visible fast path.
    convex = True

    def contains_many(self, pts):
        raise NotImplementedError

    def segment_slots(self, X, V):
        """Interval slots of {t : X + t V in self} for a batch of segments.

        Returns a list of (lo, hi) float array pairs.  A slot with
        lo > hi is empty.  Slots are not clipped to [0,1]; the caller
        clips.  The union of the slots equals the exact parameter set up
        to the (measure zero) primitive boundary.
        """
        raise NotImplementedError

    def signed_distance(self, pts):
        """Distance to the primitive boundary, positive inside."""
        raise NotImplementedError


@dataclass(frozen=True)
class HalfSpace(Primitive):
    """Open half-space {x : n.x < c} with |n| = 1."""

    normal: tuple
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        norm = float(np.hypot(n[0], n[1]))
        if norm == 0.0:
            raise ValueError("half-space normal must be nonzero")
        object.__setattr__(self, "normal", (n[0] / norm, n[1] / norm))
        object.__setattr__(self, "offset", float(self.offset) / norm)

    def contains_many(self, pts):
        n = np.asarray(self.normal)
        return pts @ n < self.offset

    def segment_slots(self, X, V):
        n = np.asarray(self.normal)
        a = V @ n
        b = X @ n - self.offset          # f(t) = b + t a < 0
        with np.errstate(divide="ignore", invalid="ignore"):
            tstar = -b / a
        lo = np.where(a > 0, -_INF, tstar)
        hi = np.where(a > 0, tstar, _INF)
        # segments parallel to the boundary lie wholly in or out
        zero = np.flatnonzero(a == 0.0)
        if zero.size:
            inside = b[zero] < 0
            lo[zero] = np.where(inside, 0.0, 2.0)
            hi[zero] = np.where(inside, 1.0, -1.0)
        return [(lo, hi)]

    def signed_distance(self, pts):
        n = np.asarray(self.normal)
        return self.offset - pts @ n


@dataclass(frozen=True)
class Ball(Primitive):
    """Open ball {x : |x - center| < radius}."""

    center: tuple
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))
        object.__setattr__(self, "radius", float(self.radius))

    def contains_many(self, pts):
        d = pts - np.asarray(self.center)
        return np.einsum("ij,ij->i", d, d) < self.radius ** 2

    def _roots(self, X, V):
        # |X + tV - c|^2 = r^2, returns (t_lo, t_hi), empty as (inf, -inf)
        P = X - np.asarray(self.center)
        A = np.einsum("ij,ij->i", V, V)
        B = 2.0 * np.einsum("ij,ij->i", V, P)
        C = np.einsum("ij,ij->i", P, P) - self.radius ** 2
        disc = B * B - 4.0 * A * C
        ok = (disc > 0.0) & (A > 0.0)
        sq = np.sqrt(np.where(ok, disc, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = np.where(ok, (-B - sq) / (2.0 * A), _INF)
            t2 = np.where(ok, (-B + sq) / (2.0 * A), -_INF)
        degenerate = A == 0.0           # zero-length segment
        inside = C < 0.0
        t1 = np.where(degenerate, np.where(inside, -_INF, _INF), t1)
        t2 = np.where(degenerate, np.where(inside, _INF, -_INF), t2)
        return t1, t2

    def segment_slots(self, X, V):
        return [self._roots(X, V)]

    def signed_distance(self, pts):
        d = pts - np.asarray(self.center)
        return self.radius - np.sqrt(np.einsum("ij,ij->i", d, d))


@dataclass(frozen=True)
class Box(Primitive):
    """Open axis-aligned box; bounds may be infinite (slabs, half-slabs)."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        if not all(a < b for a, b in zip(lo, hi)):
            raise ValueError("box needs lo < hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def contains_many(self, pts):
        # per-axis comparisons: an (n, 2) mask reduced along axis 1 is
        # several times slower
        (lo0, lo1), (hi0, hi1) = self.lo, self.hi
        x, y = pts[:, 0], pts[:, 1]
        return (x > lo0) & (x < hi0) & (y > lo1) & (y < hi1)

    def segment_slots(self, X, V):
        t_in = np.full(X.shape[0], -_INF)
        t_out = np.full(X.shape[0], _INF)
        for d in range(2):
            if self.lo[d] == -_INF and self.hi[d] == _INF:
                continue                 # an unbounded axis cuts nothing
            v = V[:, d]
            a = self.lo[d] - X[:, d]
            b = self.hi[d] - X[:, d]
            with np.errstate(divide="ignore", invalid="ignore"):
                ta = a / v
                tb = b / v
            enter = np.minimum(ta, tb)
            exit_ = np.maximum(ta, tb)
            # segments parallel to the axis lie wholly in or out of the slab
            zero = np.flatnonzero(v == 0.0)
            if zero.size:
                in_slab = (a[zero] < 0.0) & (b[zero] > 0.0)
                enter[zero] = np.where(in_slab, -_INF, _INF)
                exit_[zero] = np.where(in_slab, _INF, -_INF)
            t_in = np.maximum(t_in, enter)
            t_out = np.minimum(t_out, exit_)
        return [(t_in, t_out)]

    def signed_distance(self, pts):
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        q = np.maximum(lo - pts, pts - hi)      # positive outside per axis
        m = np.max(q, axis=1)
        outside = np.sqrt(np.sum(np.maximum(q, 0.0) ** 2, axis=1))
        return np.where(m < 0.0, -m, -outside)


def _interval_difference(olo, ohi, ilo, ihi):
    """Slots of [olo,ohi] minus [ilo,ihi]; inner empty encoded inf/-inf."""
    s1 = (olo, np.minimum(ohi, ilo))
    s2 = (np.maximum(olo, ihi), ohi)
    return [s1, s2]


@dataclass(frozen=True)
class Annulus(Primitive):
    """Open annulus {x : r_in < |x - center| < r_out} (closed hole removed)."""

    center: tuple
    r_in: float
    r_out: float
    convex = False

    def __post_init__(self):
        if not 0 < self.r_in < self.r_out:
            raise ValueError("annulus needs 0 < r_in < r_out")
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))

    def contains_many(self, pts):
        d = pts - np.asarray(self.center)
        r2 = np.einsum("ij,ij->i", d, d)
        return (r2 > self.r_in ** 2) & (r2 < self.r_out ** 2)

    def segment_slots(self, X, V):
        outer = Ball(self.center, self.r_out)._roots(X, V)
        inner = Ball(self.center, self.r_in)._roots(X, V)
        return _interval_difference(outer[0], outer[1], inner[0], inner[1])

    def signed_distance(self, pts):
        d = pts - np.asarray(self.center)
        rho = np.sqrt(np.einsum("ij,ij->i", d, d))
        return np.minimum(self.r_out - rho, rho - self.r_in)


@dataclass(frozen=True)
class ParabolicTube(Primitive):
    """Open tube {(x1,x2) : |x2 - (a x1^2 - a)| < w} around a parabola.

    The curve x2 = a x1^2 - a dips to -a at x1 = 0 and returns to 0 at
    x1 = +-1, so with the default amplitude the tube mouth lines up with
    the half-planes {x1 < -1}, {x1 > 1}.  Not convex.
    """

    amplitude: float = 2.0
    radius: float = 1.0
    convex = False

    def __post_init__(self):
        if not (self.amplitude > 0 and self.radius > 0):
            raise ValueError("tube amplitude and radius must be positive")

    def _q(self, pts):
        # vertical offset from the axis curve
        return pts[:, 1] - self.amplitude * pts[:, 0] ** 2 + self.amplitude

    def contains_many(self, pts):
        return np.abs(self._q(pts)) < self.radius

    def segment_slots(self, X, V):
        a, w = self.amplitude, self.radius
        # q(t) = alpha t^2 + beta t + gamma along the segment
        alpha = -a * V[:, 0] ** 2
        beta = V[:, 1] - 2.0 * a * X[:, 0] * V[:, 0]
        gamma = X[:, 1] - a * X[:, 0] ** 2 + a

        # concave case: {q > -w} is an interval, {q < w} two rays
        discA = beta * beta - 4.0 * alpha * (gamma + w)
        okA = (discA > 0.0) & (alpha < 0.0)
        sqA = np.sqrt(np.where(okA, discA, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            r1 = np.where(okA, (-beta + sqA) / (2.0 * alpha), _INF)
            r2 = np.where(okA, (-beta - sqA) / (2.0 * alpha), -_INF)
        discB = beta * beta - 4.0 * alpha * (gamma - w)
        okB = (discB > 0.0) & (alpha < 0.0)
        sqB = np.sqrt(np.where(okB, discB, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            s1 = np.where(okB, (-beta + sqB) / (2.0 * alpha), _INF)
            s2 = np.where(okB, (-beta - sqB) / (2.0 * alpha), -_INF)

        # linear case alpha == 0 (vertical-progress-free segments)
        lin = alpha == 0.0
        if np.any(lin):
            with np.errstate(divide="ignore", invalid="ignore"):
                bsafe = np.where(beta == 0.0, 1.0, beta)
                tA = -(gamma + w) / bsafe      # q = -w crossing
                tB = (w - gamma) / bsafe       # q = +w crossing
            t_lo = np.where(beta > 0, tA, tB)
            t_hi = np.where(beta > 0, tB, tA)
            const_in = np.abs(gamma) < w
            flat = beta == 0.0
            t_lo = np.where(flat, np.where(const_in, -_INF, _INF), t_lo)
            t_hi = np.where(flat, np.where(const_in, _INF, -_INF), t_hi)
            r1 = np.where(lin, t_lo, r1)
            r2 = np.where(lin, t_hi, r2)
            s1 = np.where(lin, _INF, s1)
            s2 = np.where(lin, -_INF, s2)

        return _interval_difference(r1, r2, s1, s2)

    def signed_distance(self, pts):
        pts = np.atleast_2d(pts)
        a, w = self.amplitude, self.radius
        px, py = pts[:, 0], pts[:, 1]
        lead = 2.0 * a * a
        # a root px = 0 is split off by np.roots; those few points use it
        full = px != 0.0
        best = np.full(px.shape[0], _INF)
        for sigma in (w, -w):
            # minimize (u-px)^2 + (a u^2 - a + sigma - py)^2 over u: the real
            # roots of lead u^3 + lin u - px, as eigenvalues of the companion
            # matrix that np.roots builds, all points in one batch
            lin = 2.0 * a * (sigma - a - py) + 1.0
            comp = np.zeros((int(full.sum()), 3, 3))
            comp[:, 0, 0] = -0.0 / lead
            comp[:, 0, 1] = -lin[full] / lead
            comp[:, 0, 2] = px[full] / lead
            comp[:, 1, 0] = comp[:, 2, 1] = 1.0
            roots = np.empty((px.shape[0], 3), dtype=complex)
            roots[full] = np.linalg.eigvals(comp)
            for i in np.flatnonzero(~full):
                roots[i] = np.roots([lead, 0.0, lin[i], -px[i]])
            u = roots.real
            d2 = (u - px[:, None]) ** 2 + (a * u * u - a + sigma
                                           - py[:, None]) ** 2
            d2[np.abs(roots.imag) >= 1e-9] = _INF
            best = np.minimum(best, np.sqrt(d2.min(axis=1)))
        q = py - a * px * px + a
        return np.where(np.abs(q) < w, best, -best)


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DumbbellMeta:
    """Which primitives form the bells and the corridor of a dumbbell."""

    minus_ids: tuple
    corridor_ids: tuple
    plus_ids: tuple
    gamma_star_lo: tuple
    gamma_star_hi: tuple
    x0: tuple = (0.0, 0.0)
    gamma_tilde_id: int | None = None


@dataclass(frozen=True, eq=False)
class LatticeColumns:
    """Cell centres in grid order, read as lattice columns.

    Grid order sorts the cells by lattice index (ix, iy), so by x1 and then
    x2.  A column is a run of equal x1 whose x2 values are consecutive
    among the distinct x2 values of all the points, with no holes, as the
    cells of a convex region clipped to a ball are.
    """

    points: np.ndarray      # (m, 2) in grid order
    x: np.ndarray           # (C,) x1 of each column
    first: np.ndarray       # (C,) index of each column's lowest point
    count: np.ndarray       # (C,) points per column
    row0: np.ndarray        # (C,) rank of each column's lowest x2 in levels
    levels: np.ndarray      # sorted distinct x2 values

    @classmethod
    def of(cls, points):
        """The columns of ``points``, or None when they are not in grid
        order or a column has a hole."""
        pts = _as_points(points)
        x = pts[:, 0]
        levels, rank = np.unique(pts[:, 1], return_inverse=True)
        step = np.diff(x)
        new = np.concatenate(([True], step > 0.0))
        if np.any(step < 0.0) or np.any(np.diff(rank)[~new[1:]] != 1):
            return None
        first = np.flatnonzero(new)
        count = np.diff(np.append(first, pts.shape[0]))
        return cls(pts, x[first], first, count, rank[first], levels)

    def index(self, q, side):
        """Per column (last axis of q), the index of the first point with
        x2 >= q (side "left") or x2 > q (side "right")."""
        k = np.searchsorted(self.levels, q, side) - self.row0
        return self.first + np.minimum(np.maximum(k, 0), self.count)


@dataclass(frozen=True)
class DomainSpec:
    """Finite union of primitives, optionally clipped to a ball."""

    primitives: tuple
    clip: Ball | None = None
    dumbbell: DumbbellMeta | None = None
    name: str = "domain"

    def __post_init__(self):
        object.__setattr__(self, "primitives", tuple(self.primitives))
        if not self.primitives:
            raise ValueError("domain needs at least one primitive")

    @property
    def all_visible(self):
        """True when every segment between interior points stays inside."""
        return len(self.primitives) == 1 and self.primitives[0].convex

    # -- membership --------------------------------------------------------

    def contains_many(self, pts):
        pts = _as_points(pts)
        inside = np.zeros(pts.shape[0], dtype=bool)
        for prim in self.primitives:
            inside |= prim.contains_many(pts)
        if self.clip is not None:
            inside &= self.clip.contains_many(pts)
        return inside

    # -- segment containment ------------------------------------------------

    def segment_inside_many(self, X, Y):
        """Vectorized visibility: does each segment X[i]--Y[i] stay in D?

        Both endpoints are assumed to lie in the domain.  The clip ball is
        convex, so it never cuts a segment between interior points and is
        ignored here.  Segments are decided SEGMENT_CHUNK at a time, so the
        temporaries of a chunk stay in cache.
        """
        X = _as_points(X)
        Y = _as_points(Y)
        inside = np.empty(X.shape[0], dtype=bool)
        for lo in range(0, X.shape[0], SEGMENT_CHUNK):
            hi = lo + SEGMENT_CHUNK
            inside[lo:hi] = self._segment_chunk_inside(X[lo:hi], Y[lo:hi])
        return inside

    def _segment_chunk_inside(self, X, Y):
        V = Y - X
        # decide each segment from its lexicographically smaller endpoint:
        # a segment touching the boundary tangentially is decided by the
        # rounding of a double root, which must not depend on the direction
        # (X - Y is exactly -(Y - X), so V stays the difference of the ends);
        # a batch of rightward segments allocates no mask
        if V[:, 0].min(initial=_INF) <= 0.0:
            swap = (V[:, 0] < 0.0) | ((V[:, 0] == 0.0) & (V[:, 1] < 0.0))
            if swap.any():
                X = np.where(swap[:, None], Y, X)
                V[swap] = -V[swap]
        slots = []
        for prim in self.primitives:
            slots.extend(prim.segment_slots(X, V))
        los = [np.clip(lo, 0.0, 1.0) for lo, hi in slots]
        his = [np.clip(hi, 0.0, 1.0) for lo, hi in slots]
        cover = np.zeros(X.shape[0])
        # fixed-point sweep: len(slots) passes reach the transitive closure
        # of overlapping intervals regardless of their order; a pass that
        # changes nothing has reached it already
        for _ in range(len(slots)):
            before = cover.copy()
            for lo, hi in zip(los, his):
                np.maximum(cover, hi, out=cover, where=lo <= cover + TAU_GEOM)
            if np.array_equal(cover, before):
                break
        return cover >= 1.0 - TAU_GEOM

    def portal_pairs(self, X, bell):
        """Visible segments from source points in one bell of a dumbbell to
        the cells of the other bell, decided through the corridor's mouths.

        ``bell`` holds the target cells as ``LatticeColumns``.  Between the
        mouths x1 = -1 and x1 = +1 only the corridor covers a bell-to-bell
        segment, so on the slab it is visible when its x2 at both mouths lies
        in the slab, the range [e0, e1].  The tube with amplitude a >= 2 w
        admits none in the open domain: the segment's x2 at x1 = 0 is the
        mean of its x2 at the mouths, which the tube's mouths hold above -w,
        while the tube needs it below -a + w <= -w.  The rule takes the tube
        as the range [e0, e1] = [-w, -w]: nothing is surely visible, and
        lines near x2 = -w, which touches the tube at (0, -w) when a = 2 w,
        are left to the slot test.  On the line from (px, py) to (qx, qy),
        x2 at a mouth mu is py + (qy - py) lam, lam = (mu - px) / (qx - px)
        in (0, 1), increasing in qy: for one source and one target column
        the targets with x2 in a range at both mouths are one run of the
        column.

        Pairs with x2 at a mouth within ``band`` of a corridor edge go to
        ``segment_inside_many``, so the result is the slot test's, bridged
        contacts included.  The slot test bridges gaps up to TAU_GEOM in the
        segment parameter: a line missing a mouth by d in x2 leaves a gap of
        d / (|Vy| + 2 a Vx) there (edge slope 2 a on the tube, 0 on the
        slab), and on the tube a line above x2 = -a + w at x1 = 0 by d is
        decided by the rounding of a double root while d is below about
        1e-15 a x1^2.  A slot-visible line thus has x2 at both mouths within
        TAU_GEOM (1 + 2 a) |V| plus twice that rounding zone of an edge;
        ``band`` doubles the first and takes the second 500 times over.

        Returns None when the rule does not apply (not a ``make_dumbbell``
        domain, a tube one can see through, or points not beyond opposite
        mouths), else (i, j): the visible pairs X[i]--bell.points[j], sorted
        by (i, j).
        """
        corridor = self._portal_corridor()
        X = _as_points(X)
        if corridor is None or not (
                (X[:, 0].max() < -1.0 and bell.x[0] > 1.0)
                or (X[:, 0].min() > 1.0 and bell.x[-1] < -1.0)):
            return None
        if isinstance(corridor, Box):
            a, e0, e1 = 0.0, corridor.lo[1], corridor.hi[1]
        else:
            a, e0, e1 = corridor.amplitude, -corridor.radius, -corridor.radius
        scale = 1.0 + max(np.abs(X).max(), np.abs(bell.x).max(),
                          np.abs(bell.levels).max())
        # |V| <= 2 scale
        band = (4.0 * (1.0 + 2.0 * a) * TAU_GEOM * scale
                + 1e-12 * (1.0 + a) * scale * scale)
        # per source, column and mouth, the qy at which x2 at the mouth is
        # e0 - band, e0 + band (lower ends), e1 + band, e1 - band (upper
        # ends); q[mouth, end, source, column]
        px, py = X[:, :1], X[:, 1:]
        inv = (bell.x - px) / (np.array([-1.0, 1.0])[:, None, None] - px)
        ends = np.array([e0 - band, e0 + band, e1 + band, e1 - band])
        q = py + (ends[:, None, None] - py) * inv[:, None]
        # both mouths: maybe visible in [lo, hi), visible in [mid_lo, mid_hi)
        lo, mid_lo = bell.index(np.maximum(q[0, :2], q[1, :2]), "left")
        hi, mid_hi = bell.index(np.minimum(q[0, 2:], q[1, 2:]), "right")
        hi = np.maximum(hi, lo)
        mid_lo = np.minimum(np.maximum(mid_lo, lo), hi)
        mid_hi = np.minimum(np.maximum(mid_hi, mid_lo), hi)
        # expand the runs [lo, hi) to pairs, row by row and column by column
        size = (hi - lo).ravel()
        i = np.repeat(np.arange(X.shape[0]), (hi - lo).sum(axis=1))
        j = np.arange(size.sum()) + np.repeat(
            lo.ravel() - (np.cumsum(size) - size), size)
        keep = ((j >= np.repeat(mid_lo.ravel(), size))
                & (j < np.repeat(mid_hi.ravel(), size)))
        edge = np.flatnonzero(~keep)
        if edge.size:
            keep[edge] = self.segment_inside_many(X[i[edge]],
                                                  bell.points[j[edge]])
        return i[keep], j[keep]

    def _portal_corridor(self):
        """The corridor of a ``make_dumbbell`` domain whose bells see each
        other only through it and its mouths x1 = +-1, else None."""
        meta = self.dumbbell
        if (meta is None or len(self.primitives) != 3
                or (meta.minus_ids, meta.corridor_ids, meta.plus_ids)
                != ((0,), (1,), (2,))
                or self.primitives[0] != HalfSpace((1.0, 0.0), -1.0)
                or self.primitives[2] != HalfSpace((-1.0, 0.0), -1.0)):
            return None
        corridor = self.primitives[1]
        if isinstance(corridor, Box) and corridor.lo[0] == -_INF \
                and corridor.hi[0] == _INF:
            return corridor
        if (isinstance(corridor, ParabolicTube)
                and corridor.amplitude >= 2.0 * corridor.radius):
            return corridor
        return None

    # -- boundary distance --------------------------------------------------

    def boundary_distance_many(self, pts):
        """max over primitives of signed distance, clipped; exact inside a
        single primitive, an under-approximation on overlaps (the ball of
        that radius is still contained in the domain)."""
        pts = _as_points(pts)
        sd = np.full(pts.shape[0], -_INF)
        for prim in self.primitives:
            sd = np.maximum(sd, prim.signed_distance(pts))
        if self.clip is not None:
            sd = np.minimum(sd, self.clip.signed_distance(pts))
        return sd

    # -- misc ----------------------------------------------------------------

    def bounding_box(self):
        """Finite bounding box; raises when the domain is unbounded."""
        if self.clip is not None:
            c = np.asarray(self.clip.center)
            r = self.clip.radius
            return c - r, c + r
        lo = np.full(2, _INF)
        hi = np.full(2, -_INF)
        for prim in self.primitives:
            if isinstance(prim, Ball):
                c = np.asarray(prim.center)
                lo = np.minimum(lo, c - prim.radius)
                hi = np.maximum(hi, c + prim.radius)
            elif isinstance(prim, Annulus):
                c = np.asarray(prim.center)
                lo = np.minimum(lo, c - prim.r_out)
                hi = np.maximum(hi, c + prim.r_out)
            elif isinstance(prim, Box):
                lo = np.minimum(lo, prim.lo)
                hi = np.maximum(hi, prim.hi)
            else:
                raise ValueError(
                    f"domain with a {type(prim).__name__} is unbounded; clip it first")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("domain is unbounded; clip it first")
        return lo, hi

    def _in_any(self, ids, pts):
        """Mask of the points inside any of the primitives ``ids``."""
        m = np.zeros(pts.shape[0], dtype=bool)
        for i in ids:
            m |= self.primitives[i].contains_many(pts)
        return m

    def region_tags(self, pts):
        """Dumbbell region tag per point: 0 other, 1 bell-, 2 corridor*, 3 bell+."""
        if self.dumbbell is None:
            raise ValueError("domain has no dumbbell metadata")
        pts = _as_points(pts)
        meta = self.dumbbell
        tag = np.zeros(pts.shape[0], dtype=np.int8)
        minus = self._in_any(meta.minus_ids, pts)
        plus = self._in_any(meta.plus_ids, pts)
        corr = self._in_any(meta.corridor_ids, pts)
        tag[minus] = TAG_MINUS
        tag[plus] = TAG_PLUS
        tag[corr & ~minus & ~plus] = TAG_STAR
        return tag


TAG_OTHER, TAG_MINUS, TAG_STAR, TAG_PLUS = 0, 1, 2, 3


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def make_dumbbell(variant="straight"):
    """Two half-planes joined by a corridor of radius 1.

    ``straight`` uses the slab {|x2| < 1}; every left-right crossing can be
    seen through it, and the slab doubles as the convex sub-corridor used
    by the convex sub-corridor overlap checks.  ``curved`` uses the
    parabolic tube, which blocks all direct left-right visibility.
    """
    r = 1.0
    minus = HalfSpace(normal=(1.0, 0.0), offset=-1.0)     # x1 < -1
    plus = HalfSpace(normal=(-1.0, 0.0), offset=-1.0)     # x1 > 1
    if variant == "straight":
        corridor = Box(lo=(-_INF, -r), hi=(_INF, r))
        gamma_tilde_id = 1
    elif variant == "curved":
        corridor = ParabolicTube(amplitude=2.0, radius=r)
        gamma_tilde_id = None
    else:
        raise ValueError(f"unknown dumbbell variant {variant!r}")
    meta = DumbbellMeta(
        minus_ids=(0,), corridor_ids=(1,), plus_ids=(2,),
        gamma_star_lo=(-1.0, -r - 2.0), gamma_star_hi=(1.0, r),
        x0=(0.0, 0.0), gamma_tilde_id=gamma_tilde_id)
    return DomainSpec(primitives=(minus, corridor, plus), dumbbell=meta,
                      name=f"{variant}-dumbbell")


def make_annulus(r_in=1.0 / 3.0, r_out=1.0):
    return DomainSpec(primitives=(Annulus((0.0, 0.0), r_in, r_out),),
                      name=f"annulus:{r_in:g},{r_out:g}")


def make_box(a=1.0, b=1.0):
    return DomainSpec(primitives=(Box((0.0, 0.0), (float(a), float(b))),),
                      name=f"box:{a:g},{b:g}")


def clip_ball(domain, x0, R):
    """Intersect the domain with the open ball B(x0, R)."""
    if R <= 0:
        raise ValueError("clip radius must be positive")
    return replace(domain, clip=Ball(tuple(float(v) for v in x0), float(R)))


def parse_domain(text):
    """Parse a CLI domain name.

    Accepted: ``straight-dumbbell``, ``curved-dumbbell``,
    ``annulus:<rin>,<rout>``, ``box:<a>,<b>``.
    """
    if text == "straight-dumbbell":
        return make_dumbbell("straight")
    if text == "curved-dumbbell":
        return make_dumbbell("curved")
    if text.startswith("annulus:"):
        parts = text.split(":", 1)[1].split(",")
        if len(parts) != 2:
            raise ValueError(f"annulus spec needs two radii: {text!r}")
        return make_annulus(float(parts[0]), float(parts[1]))
    if text.startswith("box:"):
        parts = text.split(":", 1)[1].split(",")
        if len(parts) != 2:
            raise ValueError(f"box spec needs two side lengths: {text!r}")
        return make_box(float(parts[0]), float(parts[1]))
    raise ValueError(f"unknown domain {text!r}")


# ---------------------------------------------------------------------------
# dumbbell structure report
# ---------------------------------------------------------------------------

#: Fixed acceptance band for |bell cap B(x0,R)| / R^d across the sweep.
BELL_RATIO_BAND = (0.3, 2.5)
#: Fixed band for the convex-subcorridor overlap |gamma-tilde cap bell_R| / R.
TILDE_RATIO_BAND = (0.5, 4.0)


@dataclass
class DumbbellStructureReport:
    ok: bool
    violated: list
    bell_ratios: dict = field(default_factory=dict)   # R -> (minus, plus)
    tilde_ratios: dict = field(default_factory=dict)  # R -> (minus, plus)
    gamma_star_bounded: bool = True
    gamma_tilde_present: bool = False

    def summary_lines(self):
        lines = [f"dumbbell_structure_pass={self.ok}"]
        if self.violated:
            lines.append("violated=" + ";".join(self.violated))
        for R in sorted(self.bell_ratios):
            m, p = self.bell_ratios[R]
            lines.append(f"bell_ratio R={R} minus={m:.6g} plus={p:.6g}")
        for R in sorted(self.tilde_ratios):
            m, p = self.tilde_ratios[R]
            lines.append(f"tilde_ratio R={R} minus={m:.6g} plus={p:.6g}")
        lines.append("gamma_tilde=" +
                      ("present" if self.gamma_tilde_present else "absent"))
        return lines


def audit_dumbbell_structure(domain, R_list=(8, 16, 32), n_samples=40000, seed=0):
    """Monte Carlo audit of the dumbbell volume-growth structure.

    Estimates |bell cap B(x0,R)| / R^2 for both bells at each R and checks
    the ratios sit in a fixed band, that the corridor remainder is bounded
    (metadata), that both bells overlap the corridor, and, when a convex
    sub-corridor is present, that its overlap with the clipped bells grows
    linearly in R.
    """
    if domain.dumbbell is None:
        raise ValueError("dumbbell structure audit needs dumbbell metadata")
    meta = domain.dumbbell
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6E0A]))
    x0 = np.asarray(meta.x0)
    violated = []
    report = DumbbellStructureReport(ok=True, violated=violated)
    report.gamma_star_bounded = all(
        np.isfinite(meta.gamma_star_lo)) and all(np.isfinite(meta.gamma_star_hi))
    if not report.gamma_star_bounded:
        violated.append("gamma_star_unbounded")
    tilde = (None if meta.gamma_tilde_id is None
             else domain.primitives[meta.gamma_tilde_id])
    report.gamma_tilde_present = tilde is not None

    for R in R_list:
        pts = x0 + rng.uniform(-R, R, size=(n_samples, 2))
        in_ball = np.einsum("ij,ij->i", pts - x0, pts - x0) < R * R
        box_area = 4.0 * R * R
        minus = domain._in_any(meta.minus_ids, pts) & in_ball
        plus = domain._in_any(meta.plus_ids, pts) & in_ball
        ratios = (minus.mean() * box_area / R ** 2,
                  plus.mean() * box_area / R ** 2)
        report.bell_ratios[R] = ratios
        for side, val in zip(("minus", "plus"), ratios):
            if not BELL_RATIO_BAND[0] <= val <= BELL_RATIO_BAND[1]:
                violated.append(f"bell_growth_{side}_R={R}")
        if tilde is not None:
            in_tilde = tilde.contains_many(pts) & in_ball
            tr = tuple((in_tilde & domain._in_any(ids, pts)).mean()
                       * box_area / R
                       for ids in (meta.minus_ids, meta.plus_ids))
            report.tilde_ratios[R] = tr
            for side, val in zip(("minus", "plus"), tr):
                if not TILDE_RATIO_BAND[0] <= val <= TILDE_RATIO_BAND[1]:
                    violated.append(f"tilde_overlap_{side}_R={R}")

    # the bells must overlap the corridor on a set of positive measure
    Rprobe = max(R_list)
    pts = x0 + rng.uniform(-Rprobe, Rprobe, size=(n_samples, 2))
    corr = domain._in_any(meta.corridor_ids, pts)
    hits = (int((corr & domain._in_any(meta.minus_ids, pts)).sum()),
            int((corr & domain._in_any(meta.plus_ids, pts)).sum()))
    if hits[0] == 0:
        violated.append("corridor_bell_minus_overlap_empty")
    if hits[1] == 0:
        violated.append("corridor_bell_plus_overlap_empty")

    report.ok = not violated
    return report
