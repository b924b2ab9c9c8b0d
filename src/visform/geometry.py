"""Constructive domains as finite unions of analytic primitives.

A domain is a union of primitives (ball, box, parabolic tube, annulus),
optionally intersected with a clipping ball.  Every primitive
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
        best = np.full(px.shape[0], _INF)
        for sigma in (w, -w):
            # minimize (u-px)^2 + (a u^2 - a + sigma - py)^2 over u: the real
            # roots of lead u^3 + lin u - px, as eigenvalues of the companion
            # matrix that np.roots builds, all points in one batch
            lin = 2.0 * a * (sigma - a - py) + 1.0
            comp = np.zeros((px.shape[0], 3, 3))
            comp[:, 0, 1] = -lin / lead
            comp[:, 0, 2] = px / lead
            comp[:, 1, 0] = comp[:, 2, 1] = 1.0
            roots = np.linalg.eigvals(comp)
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
    """Marks a dumbbell: a domain whose primitives are (minus bell,
    corridor, plus bell), with the centre x0 of its clip balls."""

    x0: tuple = (0.0, 0.0)


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

    def at(self, k):
        """Per column (row of the (C, n) array k of ranks in ``levels``),
        the index of the column's first point whose x2 has rank k or more;
        k is overwritten."""
        k += (self.first - self.row0)[:, None]
        np.maximum(k, self.first[:, None], out=k)
        np.minimum(k, (self.first + self.count)[:, None], out=k)
        return k


def _portal_band(a, scale):
    """Half-width in x2 of the band at a mouth that the portal rule leaves
    to the slot test, for corridor edge slope 2 a and coordinates below
    ``scale`` - 1 in size (see ``DomainSpec.portal_runs``)."""
    # |V| <= 2 scale
    return (4.0 * (1.0 + 2.0 * a) * TAU_GEOM * scale
            + 1e-12 * (1.0 + a) * scale * scale)


def _tube_chords(tube, X, Y):
    """The chords X[i]--Y[i] from corridor points (|x1| <= 1) to bell cells
    beyond a mouth that the tube's edges decide, by the upper edge's vertex
    (see ``DomainSpec.portal_runs``): boolean arrays (decided, visible).
    Every other pair is undecided."""
    a, w = tube.amplitude, tube.radius
    band = _portal_band(a, 1.0 + max(np.abs(X).max(), np.abs(Y).max()))
    px, py, qx, qy = X[:, 0], X[:, 1], Y[:, 0], Y[:, 1]
    mu = np.sign(qx)
    # a vertical pair (qx == px) is no chord through a mouth: undecided
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (qy - py) / (qx - px)
        # x2 at the mouth above the lower edge, and D(x*) of the upper one
        lower = py + slope * (mu - px) + w
        xs = np.clip(slope / (2.0 * a), np.minimum(px, mu),
                     np.maximum(px, mu))
        upper = a * xs * xs - a + w - (py + slope * (xs - px))
    visible = (lower > band) & (upper > band)
    decided = (np.abs(px) <= 1.0) & (np.abs(qx) > 1.0) & (
        visible | (lower < -band) | (upper < -band))
    return decided, visible & decided


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
        if self.dumbbell is not None and len(self.primitives) != 3:
            raise ValueError("a dumbbell's primitives are (minus bell, "
                             "corridor, plus bell)")

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

    def portal_runs(self, X, bell):
        """Visibility through the corridor's mouths, as runs of target
        columns: from source points in one bell of a dumbbell, or in its
        corridor, to the cells of a bell.

        ``bell`` holds the target cells as ``LatticeColumns``, beyond the
        mouth x1 = mu (mu = +-1).  Between the mouths only the corridor
        covers a segment, and beyond a mouth the bell's half-plane covers
        all of it.  A segment from the other bell crosses both mouths; a
        segment from a corridor point strictly between the mouths, or on
        the other mouth, crosses mu alone.  On the line from (px, py) to
        (qx, qy), x2 at a mouth m is py + (qy - py) lam, lam = (m - px) /
        (qx - px) in (0, 1], increasing in qy: for one source and one target
        column, the targets with x2 in a range at the crossed mouths are one
        run of the column.

        On the slab the corridor is convex, so a segment is visible when its
        x2 at every crossed mouth lies in the slab, the range [e0, e1].
        The tube with amplitude a >= 2 w admits no bell-to-bell segment in
        the open domain: the segment's x2 at x1 = 0 is the mean of its x2 at
        the mouths, which the tube's mouths hold above -w, while the tube
        needs it below -a + w <= -w.  The rule takes the tube as the range
        [e0, e1] = [-w, -w] for those: nothing is surely visible, and lines
        near x2 = -w, which touches the tube at (0, -w) when a = 2 w, are
        left to the slot test.

        For a corridor source the tube's range is its opening (-w, w) at
        mu, which only gives candidates, each decided at the upper edge's
        vertex (``portal_inside_many``).  Between the source p and the mouth
        the tube is the convex set {x2 > a x1^2 - a - w} cut by
        {x2 < a x1^2 - a + w}.  The chord lies in the first set when its x2
        at the mouth, y_mu, is above -w, the first set's edge there, as p
        lies in it too.  It lies below the second set's edge when
        D(x) = a x^2 - a + w - line(x), convex, is positive at its least
        value on [px, mu], which it takes at x* = slope / (2 a) clamped to
        that interval.  So the chord is visible iff y_mu + w > 0 and
        D(x*) > 0.  Either value below -band leaves a gap that the slot test
        does not bridge, both above band leave the overlap it needs (see
        below; a chord above the edge by d at an inner x* leaves the tube
        for 2 sqrt(d / (a Vx^2)) in the parameter, more than at a mouth),
        and a pair with a value within band of 0 gets a slot test.  A
        corridor source on the mouth mu itself sees the whole bell: the
        bell's half-plane holds the segment but for that end, where its
        slot parameter is exactly 0 or 1 (x1 - mu is 0 there, and the two
        ends' differences from mu are each other's negatives).

        Pairs with x2 at a mouth within ``band`` of a corridor edge go to
        the slot test, so the result is the slot test's, bridged contacts
        included.  The slot test bridges gaps up to TAU_GEOM in the segment
        parameter: a line missing a mouth by d in x2 leaves a gap of
        d / (|Vy| + 2 a Vx) there (edge slope 2 a on the tube, 0 on the
        slab), and on the tube a line above x2 = -a + w at x1 = 0 by d is
        decided by the rounding of a double root while d is below about
        1e-15 a x1^2.  A slot-visible line thus has x2 at every crossed
        mouth within TAU_GEOM (1 + 2 a) |V| plus twice that rounding zone of
        an edge; ``band`` doubles the first and takes the second 500 times
        over.

        On the tube, a bell-to-bell line with x2 at both mouths within
        ``band`` of -w has slope at most ``band`` in size, so its x2 at the
        source is within ``band`` (1 + |px|) of -w: sources farther than
        twice that bound from x2 = -w have no candidate pairs and are
        dropped before any threshold is computed.  Per source and end of
        the range, the mouth that binds (the larger qy for a lower end, the
        smaller for an upper one) is fixed by the sign of e - py, as qy
        grows with lam there; rounding keeps that order, so one mouth gives
        the bits of the maximum or minimum over both.

        Two searches per block: the thresholds of e0 - band and e0 + band
        (and of e1 + band and e1 - band) differ by at most 2 band / lam.
        When twice that is below the smallest gap between target rows, at
        most one row lies between them, so the inner end is the outer one
        moved by at most one row after one comparison; otherwise it is
        searched for too.  Both ways give the same runs.

        Returns None when the rule does not apply (not a ``make_dumbbell``
        domain, a tube one can see through, or sources neither all beyond
        the other mouth nor all within x1 in [-1, 1]), else
        (src, lo, mid_lo, mid_hi, hi): the sources that can have visible
        pairs, ascending, and per target column (row) and such source
        (column), indices into ``bell.points`` such that [mid_lo, mid_hi)
        is visible, [lo, mid_lo) and [mid_hi, hi) are the band runs that
        need a test, and no other target of the column is visible.
        Sources run along the rows, the longer axis in practice, so that
        numpy's inner loops run along them.
        """
        corridor = self._portal_corridor()
        X = _as_points(X)
        if corridor is None:
            return None
        mu = 1.0 if bell.x[0] > 1.0 else -1.0        # the targets' mouth
        inner = np.abs(X[:, 0]).max() <= 1.0        # corridor sources
        if mu * bell.x[-1] <= 1.0 or not (
                inner or (-mu * X[:, 0]).min() > 1.0):
            return None
        tube = isinstance(corridor, ParabolicTube)
        if tube:
            a, w = corridor.amplitude, corridor.radius
            e0, e1 = (-w, w) if inner else (-w, -w)
        else:
            a, e0, e1 = 0.0, corridor.lo[1], corridor.hi[1]
        scale = 1.0 + max(np.abs(X).max(), np.abs(bell.x).max(),
                          np.abs(bell.levels).max())
        band = _portal_band(a, scale)
        src = np.arange(X.shape[0])
        if tube and not inner:
            src = np.flatnonzero(np.abs(X[:, 1] - e0)
                                 <= 2.0 * band * (2.0 + np.abs(X[:, 0])))
        px, py = X[src, 0], X[src, 1]
        # (qx - px) / (m - px) is 1 / lam at a mouth m: at the sources'
        # mouth -mu (near) and at the targets' mouth mu (far)
        dx = bell.x[:, None] - px
        near, far = -mu - px, mu - px
        if inner:
            own = px == mu
            far[own] = 1.0
            near = far

        def threshold(e, lower):
            # the qy at which x2 at the binding mouth is e
            d = e - py
            m = far if inner else np.where((d > 0.0) == lower, near, far)
            return py + d * (dx / m)

        # ranks in bell.levels: maybe visible in [lo, hi), visible in
        # [mid_lo, mid_hi)
        levels = bell.levels
        lo = np.searchsorted(levels, threshold(e0 - band, True), "left")
        hi = np.searchsorted(levels, threshold(e1 + band, False), "right")
        # 1 / lam is at most the largest |dx| over the nearest mouth's |m|
        inv = (np.abs(bell.x[[0, -1], None] - px).max(initial=0.0)
               / np.abs(near).min(initial=_INF))
        if tube and inner:
            mid_lo, mid_hi = hi.copy(), hi.copy()
        elif 4.0 * band * inv < np.diff(levels).min(initial=_INF):
            # at most one row between the thresholds of e - band and e + band:
            # levels[k] is above[k], and levels[k - 1] is below[k]
            above = np.append(levels, _INF)
            below = np.concatenate(([-_INF], levels))
            mid_lo = lo + (above.take(lo) < threshold(e0 + band, True))
            mid_hi = hi - (below.take(hi) > threshold(e1 - band, False))
        else:
            mid_lo = np.searchsorted(levels, threshold(e0 + band, True),
                                     "left")
            mid_hi = np.searchsorted(levels, threshold(e1 - band, False),
                                     "right")
        lo, mid_lo, mid_hi, hi = (bell.at(k) for k in (lo, mid_lo, mid_hi, hi))
        np.maximum(hi, lo, out=hi)
        np.minimum(np.maximum(mid_lo, lo, out=mid_lo), hi, out=mid_lo)
        np.minimum(np.maximum(mid_hi, mid_lo, out=mid_hi), hi, out=mid_hi)
        if inner and own.any():
            lo[:, own] = mid_lo[:, own] = bell.first[:, None]
            hi[:, own] = mid_hi[:, own] = (bell.first + bell.count)[:, None]
        return src, lo, mid_lo, mid_hi, hi

    def portal_inside_many(self, X, Y):
        """``segment_inside_many`` for the pairs of ``portal_runs``' band
        runs: on the tube, the chords from corridor points to bell cells
        that ``_tube_chords`` decides take its answer, and every other pair
        gets a slot test."""
        X, Y = _as_points(X), _as_points(Y)
        corridor = self._portal_corridor()
        if not isinstance(corridor, ParabolicTube) or not X.shape[0]:
            return self.segment_inside_many(X, Y)
        decided, inside = _tube_chords(corridor, X, Y)
        test = np.flatnonzero(~decided)
        inside[test] = self.segment_inside_many(X[test], Y[test])
        return inside

    def _portal_corridor(self):
        """The corridor of a ``make_dumbbell`` domain whose bells see each
        other only through it and its mouths x1 = +-1, else None."""
        if (self.dumbbell is None or self.primitives[0] != _MINUS_BELL
                or self.primitives[2] != _PLUS_BELL):
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

    def region_tags(self, pts):
        """Dumbbell region tag per point: 0 other, 1 bell-, 2 corridor*, 3 bell+."""
        if self.dumbbell is None:
            raise ValueError("domain has no dumbbell metadata")
        pts = _as_points(pts)
        tag = np.zeros(pts.shape[0], dtype=np.int8)
        minus, corr, plus = (prim.contains_many(pts)
                             for prim in self.primitives)
        tag[minus] = TAG_MINUS
        tag[plus] = TAG_PLUS
        tag[corr & ~minus & ~plus] = TAG_STAR
        return tag


TAG_OTHER, TAG_MINUS, TAG_STAR, TAG_PLUS = 0, 1, 2, 3

#: the bells of ``make_dumbbell``, half-planes as boxes with three infinite
#: bounds: {x1 < -1} and {x1 > 1}
_MINUS_BELL = Box((-_INF, -_INF), (-1.0, _INF))
_PLUS_BELL = Box((1.0, -_INF), (_INF, _INF))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def make_dumbbell(variant="straight"):
    """Two half-planes joined by a corridor of radius 1: the primitives
    (minus bell, corridor, plus bell), about x0 = (0, 0).

    ``straight`` uses the slab {|x2| < 1}; every left-right crossing can be
    seen through it, and the slab, being convex, doubles as the convex
    sub-corridor of the overlap checks.  ``curved`` uses the parabolic
    tube, which blocks all direct left-right visibility.
    """
    if variant == "straight":
        corridor = Box(lo=(-_INF, -1.0), hi=(_INF, 1.0))
    elif variant == "curved":
        corridor = ParabolicTube(amplitude=2.0, radius=1.0)
    else:
        raise ValueError(f"unknown dumbbell variant {variant!r}")
    return DomainSpec(primitives=(_MINUS_BELL, corridor, _PLUS_BELL),
                      dumbbell=DumbbellMeta(), name=f"{variant}-dumbbell")


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
    the ratios sit in a fixed band, that both bells overlap the corridor,
    and, when the corridor is convex (a convex sub-corridor), that its
    overlap with the clipped bells grows linearly in R.
    """
    if domain.dumbbell is None:
        raise ValueError("dumbbell structure audit needs dumbbell metadata")
    bells = domain.primitives[::2]
    corridor = domain.primitives[1]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6E0A]))
    x0 = np.asarray(domain.dumbbell.x0)
    violated = []
    report = DumbbellStructureReport(ok=True, violated=violated)
    report.gamma_tilde_present = corridor.convex

    for R in R_list:
        pts = x0 + rng.uniform(-R, R, size=(n_samples, 2))
        in_ball = np.einsum("ij,ij->i", pts - x0, pts - x0) < R * R
        box_area = 4.0 * R * R
        in_bells = [bell.contains_many(pts) for bell in bells]
        ratios = tuple((in_bell & in_ball).mean() * box_area / R ** 2
                       for in_bell in in_bells)
        report.bell_ratios[R] = ratios
        for side, val in zip(("minus", "plus"), ratios):
            if not BELL_RATIO_BAND[0] <= val <= BELL_RATIO_BAND[1]:
                violated.append(f"bell_growth_{side}_R={R}")
        if corridor.convex:
            in_tilde = corridor.contains_many(pts) & in_ball
            tr = tuple((in_tilde & in_bell).mean() * box_area / R
                       for in_bell in in_bells)
            report.tilde_ratios[R] = tr
            for side, val in zip(("minus", "plus"), tr):
                if not TILDE_RATIO_BAND[0] <= val <= TILDE_RATIO_BAND[1]:
                    violated.append(f"tilde_overlap_{side}_R={R}")

    # the bells must overlap the corridor on a set of positive measure
    Rprobe = max(R_list)
    pts = x0 + rng.uniform(-Rprobe, Rprobe, size=(n_samples, 2))
    corr = corridor.contains_many(pts)
    for side, bell in zip(("minus", "plus"), bells):
        if not (corr & bell.contains_many(pts)).any():
            violated.append(f"corridor_bell_{side}_overlap_empty")

    report.ok = not violated
    return report
