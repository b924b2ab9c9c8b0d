import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from visform import geometry as geo, mesh
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


def _portal_mask(domain, src, bell):
    i, j = domain.portal_pairs(src, bell)
    order = i * bell.points.shape[0] + j
    assert np.all(np.diff(order) > 0)          # sorted by (source, target)
    mask = np.zeros((src.shape[0], bell.points.shape[0]), dtype=bool)
    mask[i, j] = True
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
    """The portal rule's bell-to-bell masks are the slot test's, bit for
    bit, in blocks of rows as the streamed energies take them; on small
    grids also from bell+ to bell-."""
    domain = geo.make_dumbbell(variant)
    minus, plus = _bells(domain, R, h)
    directions = [(minus, plus)]
    if minus.shape[0] * plus.shape[0] < 5e6:
        directions.append((plus, minus))
    visible = 0
    for src, tgt in directions:
        bell = geo.LatticeColumns.of(tgt)
        rows = max(1, mesh.PAIR_BLOCK // tgt.shape[0])
        for lo in range(0, src.shape[0], rows):
            block = src[lo:lo + rows]
            mask = _portal_mask(domain, block, bell)
            assert np.array_equal(mask, _brute_mask(domain, block, tgt))
            visible += int(mask.sum())
    if variant == "curved":
        assert visible == (2 * 273 if (R, h) == (9, 0.4) else 0)
    else:
        assert visible > 0


def test_portal_pairs_corner_segment(straight_dumbbell):
    """(-1.25, -1.25)--(1.25, 1.25) passes through both slab corners; the
    slot test bridges them and calls it visible, and so does the rule."""
    minus, plus = _bells(straight_dumbbell, 6.0, 0.5)
    src = np.array([[-1.25, -1.25]])
    bell = geo.LatticeColumns.of(plus)
    k = int(np.flatnonzero((plus == (1.25, 1.25)).all(axis=1))[0])
    assert straight_dumbbell.segment_inside_many(src, plus[k:k + 1])[0]
    assert _portal_mask(straight_dumbbell, src, bell)[0, k]


def test_portal_pairs_declines(straight_dumbbell, annulus):
    minus, plus = _bells(straight_dumbbell, 6.0, 0.5)
    bell = geo.LatticeColumns.of(plus)
    # not a dumbbell, sources not beyond a mouth, or sources and targets
    # beyond the same mouth
    assert annulus.portal_pairs(minus, bell) is None
    assert straight_dumbbell.portal_pairs([[0.25, 0.25]], bell) is None
    assert straight_dumbbell.portal_pairs(plus[:5], bell) is None
    # a tube shallow enough to see through (amplitude < 2 radius) has
    # visible bell-to-bell pairs
    wide = geo.DomainSpec(
        (straight_dumbbell.primitives[0], geo.ParabolicTube(1.0, 1.0),
         straight_dumbbell.primitives[2]),
        dumbbell=straight_dumbbell.dumbbell)
    assert wide.portal_pairs(minus, bell) is None
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
    assert straight_dumbbell.dumbbell.gamma_tilde_id is not None
    assert curved_dumbbell.dumbbell.gamma_tilde_id is None
    assert straight_dumbbell.dumbbell.x0 == (0.0, 0.0)
    assert np.all(np.isfinite(straight_dumbbell.dumbbell.gamma_star_lo))


def test_make_dumbbell_bad_variant():
    with pytest.raises(ValueError):
        geo.make_dumbbell("twisted")


def test_clip_ball_membership():
    half = geo.DomainSpec((geo.HalfSpace((-1.0, 0.0), -1.0),))  # x1 > 1
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
    minus = geo.HalfSpace((1.0, 0.0), -1.0)
    plus = geo.HalfSpace((-1.0, 0.0), -1.0)
    corridor = geo.Box((-0.5, -1.0), (0.5, 1.0))
    meta = geo.DumbbellMeta(minus_ids=(0,), corridor_ids=(1,), plus_ids=(2,),
                            gamma_star_lo=(-1.0, -1.0),
                            gamma_star_hi=(1.0, 1.0))
    dom = geo.DomainSpec((minus, corridor, plus), dumbbell=meta)
    rep = geo.audit_dumbbell_structure(dom, R_list=(8, 16), n_samples=5_000, seed=0)
    assert not rep.ok
    assert any("overlap_empty" in v for v in rep.violated)


def test_segment_degenerate_same_point(annulus):
    assert annulus.segment_inside_many([(0.6, 0.0)], [(0.6, 0.0)])[0]
