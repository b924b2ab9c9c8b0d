import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from visform import forms, geometry as geo, mesh, spectral
from visform.kernels import KernelSpec
from conftest import sample_points_in


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def test_contains_square_center(unit_square):
    assert unit_square.contains_many([(0.5, 0.5)])[0]


def test_contains_annulus_hole(annulus):
    assert np.array_equal(annulus.contains_many([(0.0, 0.0), (0.5, 0.0)]),
                          [False, True])


def test_contains_straight_dumbbell_corridor(straight_dumbbell):
    # |x2| < 1 along the corridor; the open slab leaves out its edges
    pts = [(0.0, 0.5), (0.0, 1.5), (-5.0, 0.0), (0.0, 1.0), (0.5, -1.0)]
    assert np.array_equal(straight_dumbbell.contains_many(pts),
                          [True, False, True, False, False])


# ---------------------------------------------------------------------------
# segment containment
# ---------------------------------------------------------------------------

def test_segment_annulus_chord_misses_hole(annulus):
    # distance from the origin to the chord is 0.6/sqrt(2) ~ 0.424 > 1/3
    assert annulus.segment_inside_many([(0.6, 0.0)], [(0.0, 0.6)])[0]


def test_segment_annulus_diameter_blocked(annulus):
    assert not annulus.segment_inside_many([(0.6, 0.0)], [(-0.6, 0.0)])[0]


def test_segment_convex_always(unit_square):
    pts = sample_points_in(unit_square, 20, seed=1)
    a, b = np.repeat(pts[:10], 10, axis=0), np.tile(pts[10:], (10, 1))
    assert unit_square.segment_inside_many(a, b).all()


def test_segment_straight_dumbbell_axis(straight_dumbbell):
    assert straight_dumbbell.segment_inside_many([(-2.0, 0.0)],
                                                 [(2.0, 0.0)])[0]


def test_segment_curved_dumbbell_axis_blocked(curved_dumbbell):
    # any affine graph deviates from the parabola by >= 1 on [-1, 1]
    # (Chebyshev equioscillation), so no bell-to-bell segment survives
    assert not curved_dumbbell.segment_inside_many([(-2.0, 0.0)],
                                                   [(2.0, 0.0)])[0]


def test_segment_visibility_symmetry(annulus, curved_dumbbell):
    for dom, seed in ((annulus, 3), (curved_dumbbell, 4)):
        box = None if dom.clip is None and dom.dumbbell is None \
            else ((-6, -6), (6, 6))
        pts = sample_points_in(dom, 40, seed=seed, box=box)
        X, Y = pts[:20], pts[20:]
        fwd = dom.segment_inside_many(X, Y)
        bwd = dom.segment_inside_many(Y, X)
        assert np.array_equal(fwd, bwd)
    # segments touching the tube's upper edge at (0, -1): the tangent
    # contact rounded differently in the two directions before segments
    # were decided from one endpoint
    X = np.array([[-1.8, -1.0], [-1.6, -1.0], [-1.0, -1.0]])
    Y = np.array([[0.8, -1.0], [1.8, -1.0], [1.8, -1.0]])
    assert np.array_equal(curved_dumbbell.segment_inside_many(X, Y),
                          curved_dumbbell.segment_inside_many(Y, X))


def test_segment_monotone_in_primitives(annulus):
    # adding primitives can only reveal more of each segment
    bigger = geo.DomainSpec(annulus.primitives + (geo.Ball((0.0, 0.0), 0.5),))
    pts = sample_points_in(annulus, 40, seed=5)
    X, Y = pts[:20], pts[20:]
    small = annulus.segment_inside_many(X, Y)
    large = bigger.segment_inside_many(X, Y)
    assert np.all(large[small])


def _certificate_domains():
    """Every domain family, bare and clipped, with a box to draw points in."""
    square = geo.make_box(1, 1)
    annulus = geo.make_annulus()
    straight = geo.make_dumbbell("straight")
    curved = geo.make_dumbbell("curved")
    wide = ((-4.0, -4.0), (4.0, 4.0))
    doms = {"square": (square, square.bounding_box()),
            "annulus": (annulus, annulus.bounding_box()),
            "straight": (straight, wide), "curved": (curved, wide)}
    for name, x0, R in (("square", (0.5, 0.5), 0.6),
                        ("annulus", (0.4, 0.0), 0.8),
                        ("straight", (0.0, 0.0), 3.0),
                        ("curved", (0.0, 0.0), 3.0)):
        clipped = geo.clip_ball(doms[name][0], x0, R)
        doms[f"{name}-clipped"] = (clipped, clipped.bounding_box())
    return doms


_CERTIFICATE_DOMAINS = _certificate_domains()


def _sampled_certificate(domain, x, y, pieces=512, margin=1e-6):
    """What dense samples along x--y prove: False when one lies farther than
    ``margin`` outside D, True when every sample's inner ball
    (boundary_distance > spacing / 2) fits, so the balls cover the segment;
    None when neither holds.

    The margin leaves out the measure-zero contacts that TAU_GEOM bridges
    by design: a segment through a corner of the open domain, or tangent
    to its boundary, is outside D at one point only.
    """
    t = np.linspace(0.0, 1.0, pieces + 1)[:, None]
    pts = (1.0 - t) * x + t * y          # exact at both ends
    delta = domain.boundary_distance_many(pts)
    if np.any(delta < -margin):
        return False
    spacing = float(np.hypot(*(y - x))) / pieces
    if np.all(delta > spacing / 2.0):
        return True
    return None


def test_segment_inside_many_against_sampled_certificates():
    decided = []

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(sorted(_CERTIFICATE_DOMAINS)),
           u=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    def check(name, u):
        domain, (lo, hi) = _CERTIFICATE_DOMAINS[name]
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        x, y = lo + np.reshape(u, (2, 2)) * (hi - lo)
        assume(domain.contains_many(np.stack([x, y])).all())
        expected = _sampled_certificate(domain, x, y)
        if expected is not None:
            assert domain.segment_inside_many(x[None], y[None])[0] \
                == expected, (name, x.tolist(), y.tolist())
        decided.append(expected is not None)

    check()
    # the certificates decide most draws (about 85% in trial runs); points
    # drawn next to a wall leave the rest undecided
    assert np.mean(decided) >= 0.6


def test_curved_dumbbell_bell_separation(curved_dumbbell):
    rng = np.random.default_rng(11)
    left = np.stack([rng.uniform(-6, -1.001, 50), rng.uniform(-6, 6, 50)], axis=1)
    right = np.stack([rng.uniform(1.001, 6, 50), rng.uniform(-6, 6, 50)], axis=1)
    vis = curved_dumbbell.segment_inside_many(left, right)
    assert not vis.any()


def test_tube_segment_slots_two_components():
    # horizontal segment over the parabola dip leaves and re-enters the tube
    tube = geo.ParabolicTube()
    dom = geo.DomainSpec((tube,))
    x = np.array([[-1.1, 2 * 1.1 ** 2 - 2]])
    y = np.array([[1.1, 2 * 1.1 ** 2 - 2]])
    assert dom.contains_many(x)[0] and dom.contains_many(y)[0]
    assert not dom.segment_inside_many(x, y)[0]


# ---------------------------------------------------------------------------
# bell-to-bell visibility through the portals
# ---------------------------------------------------------------------------

def _bells(domain, R, h):
    grid = mesh.build_grid(domain, (0.0, 0.0), R, h)
    return (grid.centers[grid.tags == geo.TAG_MINUS],
            grid.centers[grid.tags == geo.TAG_PLUS])


def _cells(domain, R, h):
    """A grid, and the cell indices of its corridor, bell- and bell+."""
    grid = mesh.build_grid(domain, (0.0, 0.0), R, h)
    return grid, *(np.flatnonzero(grid.tags == tag)
                   for tag in (geo.TAG_STAR, geo.TAG_MINUS, geo.TAG_PLUS))


def _pair_mask(grid, A, B):
    """``forms._visible_pairs`` of A x B as an (|A|, |B|) mask."""
    i, j = forms._visible_pairs(grid, A, B)
    order = i * grid.n_cells + j
    assert np.all(np.diff(order) > 0)          # sorted by (source, target)
    mask = np.zeros((A.size, B.size), dtype=bool)
    mask[np.searchsorted(A, i), np.searchsorted(B, j)] = True
    return mask


def _brute_mask(domain, src, tgt):
    return domain.segment_inside_many(
        np.repeat(src, tgt.shape[0], axis=0),
        np.tile(tgt, (src.shape[0], 1))).reshape(src.shape[0], tgt.shape[0])


#: (R, h) of the oracle grids: h = 0.3 and 0.4 put cell centres off the
#: dyadic lattice, and at R = 9, h = 0.4 the curved dumbbell has 273
#: bell-to-bell pairs along x2 = -1 that the slot test calls visible by
#: bridging the tangency at (0, -1)
_PORTAL_GRIDS = ((6, 0.5), (12, 0.5), (18, 0.5), (32, 0.5), (16, 0.25),
                 (10, 0.3), (9, 0.4))


@pytest.mark.parametrize("variant", ["straight", "curved"])
@pytest.mark.parametrize("R,h", _PORTAL_GRIDS)
def test_portal_pairs_equal_segment_tests(variant, R, h):
    """The bell-to-bell pairs of ``forms._visible_pairs``, from the portal
    rule's runs, are the slot test's, bit for bit, compared in blocks of
    rows; on small grids also from bell+ to bell-."""
    grid, _, minus, plus = _cells(geo.make_dumbbell(variant), R, h)
    directions = [(minus, plus)]
    if minus.size * plus.size < 5e6:
        directions.append((plus, minus))
    visible = 0
    for A, B in directions:
        mask = _pair_mask(grid, A, B)
        rows = max(1, forms.PAIR_BLOCK // B.size)
        for lo in range(0, A.size, rows):
            assert np.array_equal(mask[lo:lo + rows], _brute_mask(
                grid.domain, grid.centers[A[lo:lo + rows]], grid.centers[B]))
        visible += int(mask.sum())
    if variant == "curved":
        assert visible == (2 * 273 if (R, h) == (9, 0.4) else 0)
    else:
        assert visible > 0


def test_portal_runs_drop_tube_sources_off_the_tangent_line(monkeypatch,
                                                            curved_dumbbell):
    """On the tube, a source block with no row near x2 = -1 has no candidate
    pair: no pairs and no segment test.  The rows on x2 = -1 at h = 0.4
    keep their 273 tangent pairs in each direction, from slot tests."""
    calls = []
    original = geo.DomainSpec.segment_inside_many

    def counted(self, X, Y):
        calls.append(len(X))
        return original(self, X, Y)

    monkeypatch.setattr(geo.DomainSpec, "segment_inside_many", counted)
    grid, _, minus, plus = _cells(curved_dumbbell, 18, 0.5)
    bell = geo.LatticeColumns.of(grid.centers[plus])
    src, lo, mid_lo, mid_hi, hi = curved_dumbbell.portal_runs(
        grid.centers[minus], bell)
    assert src.size == 0 and lo.shape == (bell.x.size, 0)
    i, j = forms._visible_pairs(grid, minus, plus)
    assert i.size == j.size == 0 and not calls
    grid, _, minus, plus = _cells(curved_dumbbell, 9, 0.4)
    for A, B in ((minus, plus), (plus, minus)):
        calls.clear()
        i, j = forms._visible_pairs(grid, A, B)
        assert i.size == 273 and np.isin(i, A).all() and np.isin(j, B).all()
        assert np.all(grid.centers[i, 1] == -1.0)
        assert np.all(grid.centers[j, 1] == -1.0)
        assert sum(calls) >= 273            # every visible pair was tested


def _corridor(domain, R, h):
    grid = mesh.build_grid(domain, (0.0, 0.0), R, h)
    return grid.centers[grid.tags == geo.TAG_STAR], _bells(domain, R, h)


@pytest.mark.parametrize("variant", ["straight", "curved"])
@pytest.mark.parametrize("h", [0.5, 0.4, 0.3, 0.25])
def test_portal_pairs_from_corridor_equal_segment_tests(variant, h):
    """From the corridor cells to either bell, and back, the pairs of
    ``forms._visible_pairs``, from the portal rule's runs and the tube's
    vertex decisions, give the slot test's mask, bit for bit.  At h = 0.4
    the cells on the mouths see their own bell whole."""
    grid, corridor, *bells = _cells(geo.make_dumbbell(variant), 12.0, h)
    for B, mu in zip(bells, (-1.0, 1.0)):
        mask = _pair_mask(grid, corridor, B)
        assert np.array_equal(mask, _brute_mask(
            grid.domain, grid.centers[corridor], grid.centers[B]))
        assert np.array_equal(_pair_mask(grid, B, corridor), mask.T)
        assert mask.any() and not mask.all()
        own = grid.centers[corridor, 0] == mu
        assert own.any() == (h == 0.4) and mask[own].all()


@pytest.mark.parametrize("variant", ["straight", "curved"])
@pytest.mark.parametrize("R,h", _PORTAL_GRIDS)
def test_tube_chord_decisions_equal_slot_tests(variant, R, h):
    """Every chord from a corridor cell to a bell cell that the tube's
    upper-edge vertex decides gets the slot test's answer (0 mismatches).
    The vertex leaves few undecided, mostly lines through a mouth's corner:
    at most 2.1% of the pairs on these grids (at R = 6).  On the slab
    every band pair gets a slot test."""
    domain = geo.make_dumbbell(variant)
    corridor, bells = _corridor(domain, R, h)
    for tgt in bells:
        X = np.repeat(corridor, tgt.shape[0], axis=0)
        Y = np.tile(tgt, (corridor.shape[0], 1))
        truth = domain.segment_inside_many(X, Y)
        assert np.array_equal(domain.portal_inside_many(X, Y), truth)
        if variant == "straight":
            continue
        decided, visible = geo._tube_chords(domain.primitives[1], X, Y)
        assert np.array_equal(visible[decided], truth[decided])
        assert not visible[~decided].any() and visible.any()
        assert decided.mean() > 0.97
    # bell-to-bell pairs are left to the slot test
    X, Y = bells[0][:50], bells[1][-50:]
    decided, _ = geo._tube_chords(geo.ParabolicTube(), X, Y)
    assert not decided.any()


@pytest.mark.parametrize("variant", ["straight", "curved"])
@pytest.mark.parametrize("R,h", _PORTAL_GRIDS)
def test_mouth_screen_agrees_with_segment_tests(variant, R, h):
    """``portal_inside_many``, the mouths' screen in front of the slot
    test, gives the slot test's answer on any pairs of cells, not only on
    the band runs of ``portal_runs``: random pairs of cells, corridor cells
    against random cells, and pairs of cells on the rows next to the
    mouths' corners (the h = 0.4 rows on x2 = -1 hold the tube's tangent
    pairs).  On the tube the upper edge's vertex decides most of the
    chords from the corridor to the bells, and only those."""
    domain = geo.make_dumbbell(variant)
    grid = mesh.build_grid(domain, (0.0, 0.0), R, h)
    c, n = grid.centers, grid.n_cells
    rng = np.random.default_rng([R, int(round(100 * h))])
    corridor = np.flatnonzero(grid.tags == geo.TAG_STAR)
    edge = np.flatnonzero(np.abs(np.abs(c[:, 1]) - 1.0) <= h)
    ei, ej = (v.ravel() for v in np.meshgrid(edge, edge))
    pick = rng.permutation(ei.size)[:50000]
    i = np.concatenate([rng.integers(0, n, 80000), rng.choice(corridor, 20000),
                        ei[pick]])
    j = np.concatenate([rng.integers(0, n, 100000), ej[pick]])
    i, j = i[i != j], j[i != j]
    truth = domain.segment_inside_many(c[i], c[j])
    assert np.array_equal(domain.portal_inside_many(c[i], c[j]), truth)
    assert truth.any() and not truth.all()
    if variant == "curved":
        decided, visible = geo._tube_chords(domain.primitives[1], c[i], c[j])
        assert np.array_equal(visible[decided], truth[decided])
        chord = (grid.tags[i] == geo.TAG_STAR) & (np.abs(c[j, 0]) > 1.0)
        assert not decided[~chord].any() and decided[chord].mean() > 0.9


def _four_search_runs(domain, X, bell):
    """``portal_runs`` with each end of a run found by its own search, from
    the binding mouth as the maximum or minimum over the crossed mouths."""
    corridor = domain.primitives[1]
    mu = 1.0 if bell.x[0] > 1.0 else -1.0
    inner = np.abs(X[:, 0]).max() <= 1.0
    mouths = (mu,) if inner else (mu, -mu)
    tube = isinstance(corridor, geo.ParabolicTube)
    if tube:
        a, w = corridor.amplitude, corridor.radius
        e0, e1 = (-w, w) if inner else (-w, -w)
    else:
        a, e0, e1 = 0.0, corridor.lo[1], corridor.hi[1]
    band = geo._portal_band(a, 1.0 + max(np.abs(X).max(), np.abs(bell.x).max(),
                                         np.abs(bell.levels).max()))
    src = np.arange(X.shape[0])
    if tube and not inner:
        src = src[np.abs(X[:, 1] - e0) <= 2.0 * band * (2.0 + np.abs(X[:, 0]))]
    px, py = X[src, 0], X[src, 1]
    own = px == mu
    qx = bell.x[:, None]

    def index(e, lower, side):
        with np.errstate(divide="ignore", invalid="ignore"):
            qy = [py + (e - py) * ((qx - px) / (m - px)) for m in mouths]
        q = np.maximum.reduce(qy) if lower else np.minimum.reduce(qy)
        k = np.searchsorted(bell.levels, q, side) - bell.row0[:, None]
        return np.clip(k, 0, bell.count[:, None]) + bell.first[:, None]

    lo = index(e0 - band, True, "left")
    hi = np.maximum(index(e1 + band, False, "right"), lo)
    if tube and inner:
        mid_lo = mid_hi = hi
    else:
        mid_lo = np.clip(index(e0 + band, True, "left"), lo, hi)
        mid_hi = np.clip(index(e1 - band, False, "right"), mid_lo, hi)
    full = (bell.first, bell.first + bell.count)
    return src, *(np.where(own, end[:, None], k) for end, k in
                  zip((full[0], full[0], full[1], full[1]),
                      (lo, mid_lo, mid_hi, hi)))


def _runs_equal(domain, X, bell):
    got, want = domain.portal_runs(X, bell), _four_search_runs(domain, X, bell)
    return all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("variant", ["straight", "curved"])
@pytest.mark.parametrize("R,h", _PORTAL_GRIDS + ((9, 0.25),))
def test_portal_runs_two_searches_equal_four(monkeypatch, variant, R, h):
    """The runs from two searches per block, the inner ends one row step
    from the outer ones, equal (array_equal) those of a search per end,
    from either bell in blocks of rows and from the corridor cells."""
    searches = []
    original = np.searchsorted

    def counted(*args, **kwargs):
        searches.append(1)
        return original(*args, **kwargs)

    domain = geo.make_dumbbell(variant)
    corridor, (minus, plus) = _corridor(domain, R, h)
    for src, tgt in ((minus, plus), (plus, minus), (corridor, plus),
                     (corridor, minus)):
        bell = geo.LatticeColumns.of(tgt)
        for lo in range(0, src.shape[0], 500):
            with monkeypatch.context() as m:
                m.setattr(np, "searchsorted", counted)
                runs = domain.portal_runs(src[lo:lo + 500], bell)
            assert runs is not None and len(searches) == 2
            assert _runs_equal(domain, src[lo:lo + 500], bell)
            searches.clear()


@pytest.mark.parametrize("variant", ["straight", "curved"])
def test_portal_runs_wide_band_searches_each_end(monkeypatch, variant):
    """A band too wide for one row step between a run's outer and inner
    ends falls back to a search per end, with the same runs as the
    reference."""
    searches = []
    original = np.searchsorted

    def counted(*args, **kwargs):
        searches.append(1)
        return original(*args, **kwargs)

    domain = geo.make_dumbbell(variant)
    monkeypatch.setattr(geo, "_portal_band", lambda a, scale: 0.3)
    corridor, (minus, plus) = _corridor(domain, 12.0, 0.5)
    for src, tgt in ((minus, plus), (corridor, plus)):
        bell = geo.LatticeColumns.of(tgt)
        with monkeypatch.context() as m:
            m.setattr(np, "searchsorted", counted)
            domain.portal_runs(src, bell)
        assert len(searches) == (2 if variant == "curved"
                                 and src is corridor else 4)
        assert _runs_equal(domain, src, bell)
        searches.clear()


def test_portal_pairs_corner_segment(straight_dumbbell):
    """(-1.25, -1.25)--(1.25, 1.25) passes through both slab corners; the
    slot test bridges them and calls it visible, and so does the rule."""
    grid, _, minus, plus = _cells(straight_dumbbell, 6.0, 0.5)
    c = grid.centers
    s = np.flatnonzero((c == (-1.25, -1.25)).all(axis=1))
    k = np.flatnonzero((c == (1.25, 1.25)).all(axis=1))
    assert straight_dumbbell.segment_inside_many(c[s], c[k])[0]
    assert _pair_mask(grid, s, plus)[0, np.searchsorted(plus, k[0])]


def test_portal_pairs_declines(straight_dumbbell, annulus):
    minus, plus = _bells(straight_dumbbell, 6.0, 0.5)
    bell = geo.LatticeColumns.of(plus)
    # not a dumbbell, sources neither all beyond the other mouth nor all in
    # the corridor, or sources and targets beyond the same mouth
    assert annulus.portal_runs(minus, bell) is None
    assert straight_dumbbell.portal_runs([[0.25, 0.25], [-1.25, 0.25]],
                                         bell) is None
    assert straight_dumbbell.portal_runs(plus[:5], bell) is None
    # a tube shallow enough to see through (amplitude < 2 radius) has
    # visible bell-to-bell pairs, which segment tests find
    wide = geo.DomainSpec(
        (straight_dumbbell.primitives[0], geo.ParabolicTube(1.0, 1.0),
         straight_dumbbell.primitives[2]),
        dumbbell=straight_dumbbell.dumbbell)
    assert wide.portal_runs(minus, bell) is None
    grid, _, A, B = _cells(wide, 6.0, 0.5)
    mask = _pair_mask(grid, A, B)
    assert mask.any() and np.array_equal(mask, _brute_mask(
        wide, grid.centers[A], grid.centers[B]))
    # the targets must be in grid order, with no hole in a column
    assert geo.LatticeColumns.of(plus[::-1]) is None
    assert geo.LatticeColumns.of(np.delete(plus, 1, axis=0)) is None


# ---------------------------------------------------------------------------
# boundary distance
# ---------------------------------------------------------------------------

def test_boundary_distance_square_center(unit_square):
    assert unit_square.boundary_distance_many([(0.5, 0.5)])[0] \
        == pytest.approx(0.5)


def test_boundary_distance_ball_radial():
    ball = geo.DomainSpec((geo.Ball((0.0, 0.0), 1.0),))
    assert ball.boundary_distance_many([(0.25, 0.0)])[0] \
        == pytest.approx(0.75)


def test_boundary_distance_straight_dumbbell_origin(straight_dumbbell):
    assert straight_dumbbell.boundary_distance_many([(0.0, 0.0)])[0] \
        == pytest.approx(1.0)


def test_tube_distance_off_axis_minimum():
    # at (0,-2) the nearest tube wall point is off-axis: sqrt(7)/4
    tube = geo.ParabolicTube()
    sd = tube.signed_distance(np.array([[0.0, -2.0]]))[0]
    assert sd == pytest.approx(np.sqrt(7.0) / 4.0, rel=1e-9)


def test_tube_distance_batch_matches_per_point_roots():
    # the batched companion-matrix solve gives np.roots' bits point by point,
    # also at x1 = 0, where np.roots splits off the root u = 0
    tube = geo.ParabolicTube()
    rng = np.random.default_rng(11)
    pts = np.vstack([rng.uniform(-3.0, 3.0, (200, 2)),
                     [[0.0, -0.75], [-0.0, 0.5], [0.0, -2.75]]])
    ref = []
    for px, py in pts:
        best = np.inf
        for sigma in (1.0, -1.0):
            roots = np.roots([8.0, 0.0, 4.0 * (sigma - 2.0 - py) + 1.0, -px])
            u = roots[np.abs(roots.imag) < 1e-9].real
            d2 = (u - px) ** 2 + (2.0 * u * u - 2.0 + sigma - py) ** 2
            best = min(best, float(np.sqrt(d2.min())))
        ref.append(best if abs(py - 2.0 * px * px + 2.0) < 1.0 else -best)
    assert np.array_equal(tube.signed_distance(pts), ref)


def _tube_distance_by_np_roots(tube, pts):
    """The tube's signed distance with one np.roots call per point."""
    a, w = tube.amplitude, tube.radius
    out = []
    for px, py in pts:
        best = np.inf
        for sigma in (w, -w):
            roots = np.roots([2.0 * a * a, 0.0,
                              2.0 * a * (sigma - a - py) + 1.0, -px])
            u = roots.real
            d2 = (u - px) ** 2 + (a * u * u - a + sigma - py) ** 2
            d2[np.abs(roots.imag) >= 1e-9] = np.inf
            best = min(best, np.sqrt(d2.min()))
        q = py - a * px * px + a
        out.append(best if abs(q) < w else -best)
    return np.array(out)


@pytest.mark.parametrize("amplitude, radius", [(2.0, 1.0), (3.0, 0.5),
                                               (0.75, 1.25)])
def test_tube_distance_on_the_axis_x1_zero(amplitude, radius):
    # np.roots splits the root u = 0 off at x1 = 0 and solves a quadratic;
    # the one batched companion-matrix solve must give the same bits there
    tube = geo.ParabolicTube(amplitude, radius)
    rng = np.random.default_rng(5)
    x2 = np.concatenate([np.arange(-6.0, 4.0, 1.0 / 32.0),
                         rng.uniform(-6.0, 4.0, 300)])
    pts = np.stack([np.where(np.arange(x2.size) % 2, 0.0, -0.0), x2], axis=1)
    assert tube.signed_distance(pts).tobytes() == \
        _tube_distance_by_np_roots(tube, pts).tobytes()


@pytest.mark.parametrize("maker", ["unit_square", "annulus",
                                   "straight_dumbbell", "curved_dumbbell"])
def test_delta_ball_inside_domain(maker, request):
    dom = request.getfixturevalue(maker)
    box = None if dom.dumbbell is None else ((-6, -6), (6, 6))
    pts = sample_points_in(dom, 25, seed=7, box=box)
    theta = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)
    for x, d in zip(pts, dom.boundary_distance_many(pts)):
        probe = x + (1 - 1e-9) * d * np.stack(
            [np.cos(theta), np.sin(theta)], axis=1)
        assert dom.contains_many(probe).all()


# ---------------------------------------------------------------------------
# constructors, clipping, serialization
# ---------------------------------------------------------------------------

def test_make_dumbbell_metadata(straight_dumbbell, curved_dumbbell):
    """The corridor, primitive 1, is a convex sub-corridor on the slab and
    none on the tube, for the audit and for the rate table."""
    kernel = KernelSpec("power", s=0.25, p=2)
    for dom, tilde, rate in [(straight_dumbbell, "present", 1.5),
                             (curved_dumbbell, "absent", 2.0)]:
        assert dom.dumbbell.x0 == (0.0, 0.0)
        rep = geo.audit_dumbbell_structure(dom, R_list=(8,), n_samples=1000)
        assert f"gamma_tilde={tilde}" in rep.summary_lines()
        assert spectral.predicted_exponent(dom, kernel, 2) == (rate, False)


@pytest.mark.parametrize("n", [2, 4])
def test_dumbbell_needs_three_primitives(straight_dumbbell, n):
    prims = (straight_dumbbell.primitives * 2)[:n]
    with pytest.raises(ValueError, match="minus bell, corridor, plus bell"):
        geo.DomainSpec(prims, dumbbell=geo.DumbbellMeta())


@pytest.mark.parametrize("variant", ["straight", "curved"])
def test_dumbbell_bells_are_exact_half_planes(variant):
    """The bells are {x1 < -1} and {x1 > 1}: membership, signed distance
    and the clipped slot of a segment are the half-planes' own formulas,
    exactly (on a mouth line the zero distance is -0.0, as on any box's
    boundary)."""
    minus, _, plus = geo.make_dumbbell(variant).primitives
    rng = np.random.default_rng(29)
    pts = np.vstack([rng.uniform(-4.0, 4.0, (5000, 2)),
                     [[-1.0, 0.5], [1.0, -3.0], [np.nextafter(-1.0, 0.0), 0.0]]])
    x1 = pts[:, 0]
    assert np.array_equal(minus.contains_many(pts), x1 < -1.0)
    assert np.array_equal(plus.contains_many(pts), x1 > 1.0)
    assert np.array_equal(minus.signed_distance(pts), -1.0 - x1)
    assert np.array_equal(plus.signed_distance(pts), x1 - 1.0)
    X = rng.uniform(-4.0, 4.0, (5000, 2))
    V = rng.uniform(-4.0, 4.0, (5000, 2))
    V[:500, 0] = 0.0                         # parallel to the mouths
    X[:100, 0] = rng.choice([-1.0, 1.0], 100)
    for bell, mouth in ((minus, -1.0), (plus, 1.0)):
        (lo, hi), = bell.segment_slots(X, V)
        lo, hi = np.clip(lo, 0.0, 1.0), np.clip(hi, 0.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = np.clip((mouth - X[:, 0]) / V[:, 0], 0.0, 1.0)
        # a segment leaving the bell is in it for t < cross, else t > cross
        leaving = V[:, 0] * mouth < 0.0
        inside = bell.contains_many(X)
        want_lo = np.where(V[:, 0] == 0.0, np.where(inside, 0.0, 1.0),
                           np.where(leaving, 0.0, cross))
        want_hi = np.where(V[:, 0] == 0.0, np.where(inside, 1.0, 0.0),
                           np.where(leaving, cross, 1.0))
        assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)


def test_make_dumbbell_bad_variant():
    with pytest.raises(ValueError):
        geo.make_dumbbell("twisted")


def test_clip_ball_membership():
    # the half-plane x1 > 1
    half = geo.DomainSpec((geo.Box((1.0, -np.inf), (np.inf, np.inf)),))
    clipped = geo.clip_ball(half, (0.0, 0.0), 4.0)
    assert np.array_equal(clipped.contains_many([(2.0, 0.0), (5.0, 0.0)]),
                          [True, False])


def test_clip_measure_against_quadrature(straight_dumbbell):
    # |D cap B(0,R)| = piR^2 - 2 * area{|x1|<=1, 1<=x2<=sqrt(R^2-x1^2)}
    R = 4.0
    missing = 2.0 * quad(lambda x: np.sqrt(R * R - x * x) - 1.0, -1.0, 1.0)[0]
    expected = np.pi * R * R - missing
    clipped = geo.clip_ball(straight_dumbbell, (0.0, 0.0), R)
    rng = np.random.default_rng(123)
    pts = rng.uniform(-R, R, size=(200_000, 2))
    est = clipped.contains_many(pts).mean() * (2 * R) ** 2
    assert est == pytest.approx(expected, rel=0.02)


def test_parse_domain_names():
    assert geo.parse_domain("straight-dumbbell").name == "straight-dumbbell"
    assert geo.parse_domain("annulus:0.25,2").primitives[0].r_out == 2.0
    box = geo.parse_domain("box:2,3")
    assert np.array_equal(box.contains_many([(1.9, 2.9), (2.1, 1.0)]),
                          [True, False])
    with pytest.raises(ValueError):
        geo.parse_domain("pentagon")
    with pytest.raises(ValueError):
        geo.parse_domain("annulus:1")


# ---------------------------------------------------------------------------
# dumbbell structure audit
# ---------------------------------------------------------------------------

def test_condition_A_straight_passes(straight_dumbbell):
    rep = geo.audit_dumbbell_structure(straight_dumbbell, R_list=(8, 16, 32),
                                n_samples=20_000, seed=2)
    assert rep.ok
    assert rep.gamma_tilde_present
    # the convex sub-corridor overlap per bell grows linearly: ratio ~ 2
    for R, (m, p) in rep.tilde_ratios.items():
        assert 1.0 < m < 3.0 and 1.0 < p < 3.0


def test_condition_A_curved_passes_without_tilde(curved_dumbbell):
    rep = geo.audit_dumbbell_structure(curved_dumbbell, R_list=(8, 16, 32),
                                n_samples=20_000, seed=2)
    assert rep.ok
    assert not rep.gamma_tilde_present
    assert rep.tilde_ratios == {}


def test_condition_A_needs_metadata(annulus):
    with pytest.raises(ValueError):
        geo.audit_dumbbell_structure(annulus)


def test_condition_A_detects_missing_overlap():
    # two half-planes plus a corridor that touches neither bell
    minus = geo.Box((-np.inf, -np.inf), (-1.0, np.inf))
    plus = geo.Box((1.0, -np.inf), (np.inf, np.inf))
    corridor = geo.Box((-0.5, -1.0), (0.5, 1.0))
    dom = geo.DomainSpec((minus, corridor, plus), dumbbell=geo.DumbbellMeta())
    rep = geo.audit_dumbbell_structure(dom, R_list=(8, 16), n_samples=5_000, seed=0)
    assert not rep.ok
    assert any("overlap_empty" in v for v in rep.violated)


def test_segment_degenerate_same_point(annulus):
    assert annulus.segment_inside_many([(0.6, 0.0)], [(0.6, 0.0)])[0]
