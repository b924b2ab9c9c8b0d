import numpy as np
import pytest

from visform import geometry as geo, whitney as wh


class Interval1D:
    """1D test domain (0,1) exercising the dimension-generic machinery."""

    def bounding_box(self):
        return (np.array([0.0]), np.array([1.0]))

    def boundary_distance_many(self, pts):
        x = pts[:, 0]
        return np.minimum(x, 1.0 - x)

    def contains_many(self, pts):
        x = pts[:, 0]
        return (x > 0.0) & (x < 1.0)


@pytest.fixture(scope="module")
def annulus_decomp(annulus):
    return wh.whitney_decompose(annulus, max_level=7)


def test_1d_dyadic_construction():
    decomp = wh.whitney_decompose(Interval1D(), max_level=6)
    ivals = sorted((c.lo[0], c.hi[0]) for c in decomp.cubes)
    assert (0.25, 0.5) in ivals
    assert (0.5, 0.75) in ivals
    # length 1/4 at distance 1/4: the sandwich is tight at the lower edge
    assert wh.disjoint_interiors(decomp)


def test_square_sandwich_and_cover(unit_square):
    decomp = wh.whitney_decompose(unit_square, max_level=6)
    assert decomp.n_cubes > 0
    assert wh.check_sandwich(decomp) == []
    assert wh.disjoint_interiors(decomp)
    residual, measure = wh.coverage_residual(decomp)
    assert measure == pytest.approx(1.0, rel=0.01)
    # coarse decomposition: sliver shrinks with level (tested at 2^-6 here)
    assert residual < 0.08 * measure


def test_long_distance_values(annulus_decomp):
    c0 = annulus_decomp.cubes[0]
    assert annulus_decomp.long_distance(0, 0) == pytest.approx(2 * c0.side)
    # touching equal cubes: distance 0, so long distance is the two sides
    adj = annulus_decomp.adjacency()
    i = next(k for k in range(annulus_decomp.n_cubes) if adj[k])
    j = next(j for j in adj[i]
             if annulus_decomp.cubes[j].side == annulus_decomp.cubes[i].side)
    assert annulus_decomp.long_distance(i, j) == pytest.approx(
        2 * annulus_decomp.cubes[i].side)


def test_long_distance_separated_unit_cubes():
    # two unit-side cubes three apart: 1 + 3 + 1 = 5
    a = wh.WhitneyCube(level=0, anchor=(0, 0), side=1.0,
                       lo=(0.0, 0.0), hi=(1.0, 1.0))
    b = wh.WhitneyCube(level=0, anchor=(4, 0), side=1.0,
                       lo=(4.0, 0.0), hi=(5.0, 1.0))
    decomp = wh.WhitneyDecomposition(domain=None, cubes=[a, b], base=1.0,
                                     max_level=0, dim=2,
                                     bbox_lo=(0, 0), bbox_hi=(5, 1))
    assert decomp.long_distance(0, 1) == pytest.approx(5.0)


def test_two_cube_chain_small_epsilon(annulus_decomp):
    adj = annulus_decomp.adjacency()
    i = next(k for k in range(annulus_decomp.n_cubes) if adj[k])
    j = next(j for j in adj[i]
             if annulus_decomp.cubes[j].side == annulus_decomp.cubes[i].side)
    for eps in (0.5, 0.25, 0.05):
        chain = wh.find_admissible_chain(annulus_decomp, i, j, eps)
        assert chain is not None
        assert wh.validate_chain(annulus_decomp, chain)


def test_annulus_chains_found_and_valid(annulus_decomp):
    rng = np.random.default_rng(0)
    for _ in range(25):
        qi, si = (int(v) for v in rng.integers(0, annulus_decomp.n_cubes, 2))
        chain = wh.find_admissible_chain(annulus_decomp, qi, si, 0.05)
        assert chain is not None
        assert wh.validate_chain(annulus_decomp, chain)
        # reversal is a chain for the swapped pair with mirrored center
        rev = chain.reversed()
        assert rev.indices[0] == si and rev.indices[-1] == qi
        assert wh.validate_chain(annulus_decomp, rev)


def test_thin_glue_chain_fails():
    # near-tangent balls: the lens is too thin for comparably-sized cubes
    thin = geo.DomainSpec((geo.Ball((-0.99, 0.0), 1.0),
                           geo.Ball((0.99, 0.0), 1.0)))
    decomp = wh.whitney_decompose(thin, max_level=7)
    cl = int(np.argmin(decomp.centers[:, 0]))
    cr = int(np.argmax(decomp.centers[:, 0]))
    assert wh.find_admissible_chain(decomp, cl, cr, 0.2) is None


def test_whitney_sum_preconditions(annulus_decomp):
    with pytest.raises(ValueError):
        wh.verify_whitney_sum(annulus_decomp, 2.0, 2.0)
    with pytest.raises(ValueError):
        wh.verify_whitney_sum(annulus_decomp, 0.5, 3.0)


def test_whitney_sum_1d_bounded():
    decomp = wh.whitney_decompose(Interval1D(), max_level=8)
    sup6, _ = wh.verify_whitney_sum(decomp, 1.0, 2.0)
    finer = wh.whitney_decompose(Interval1D(), max_level=9)
    sup7, _ = wh.verify_whitney_sum(finer, 1.0, 2.0)
    assert 0 < sup6 < 50
    assert max(sup6, sup7) / min(sup6, sup7) < 2.0


def test_whitney_sum_square_stable(unit_square):
    d5 = wh.whitney_decompose(unit_square, max_level=5)
    d6 = wh.whitney_decompose(unit_square, max_level=6)
    s5, _ = wh.verify_whitney_sum(d5, 2.0, 3.0)
    s6, _ = wh.verify_whitney_sum(d6, 2.0, 3.0)
    assert max(s5, s6) / min(s5, s6) < 2.0


def test_unbounded_domain_needs_clip(straight_dumbbell):
    with pytest.raises(ValueError):
        wh.whitney_decompose(straight_dumbbell, max_level=4)


# ---------------------------------------------------------------------------
# bounded visible-path audits
# ---------------------------------------------------------------------------

def test_path_audit_annulus(annulus, annulus_decomp):
    rep = wh.audit_visible_paths(annulus, n_pairs=20, seed=1,
                               decomp=annulus_decomp)
    assert rep.n_pairs == 20
    assert rep.ok
    assert rep.max_path_len <= 8


def test_path_audit_convex_vacuous(unit_square):
    rep = wh.audit_visible_paths(unit_square, n_pairs=10, seed=1)
    assert rep.n_pairs == 0      # no non-visible pairs exist
    assert rep.ok


def test_path_audit_straight_dumbbell(straight_dumbbell):
    dom = geo.clip_ball(straight_dumbbell, (0.0, 0.0), 8.0)
    rep = wh.audit_visible_paths(dom, n_pairs=15, seed=3, max_level=6)
    assert rep.ok, f"found {rep.found}/{rep.n_pairs}"
