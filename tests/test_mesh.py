import dataclasses

import numpy as np
import pytest

from visform import geometry as geo, mesh
from conftest import brute_visibility_pairs


def test_exact_tiling_four_cells(unit_square):
    grid = mesh.build_grid(unit_square, (0.5, 0.5), 1.0, 0.5)
    assert grid.n_cells == 4
    assert np.allclose(grid.measures, 0.25)
    assert np.all(grid.domain.contains_many(grid.centers))


def test_ball_measure_subsampled():
    ball = geo.DomainSpec((geo.Ball((0.0, 0.0), 1.0),))
    grid = mesh.build_grid(ball, (0.0, 0.0), 1.0, 0.25)
    assert grid.measures.sum() == pytest.approx(np.pi, rel=0.05)
    assert np.all(grid.measures > 0)
    assert np.all(grid.measures <= 0.25 ** 2 + 1e-15)


def test_corridor_tags(straight_dumbbell):
    grid = mesh.build_grid(straight_dumbbell, (0.0, 0.0), 4.0, 0.5)
    star = grid.tags == geo.TAG_STAR
    assert star.any()
    assert np.all(np.abs(grid.centers[star, 0]) <= 1.0)
    assert np.all(grid.tags[grid.centers[:, 0] < -1.0] == geo.TAG_MINUS)
    assert np.all(grid.tags[grid.centers[:, 0] > 1.0] == geo.TAG_PLUS)
    assert not (grid.tags == geo.TAG_OTHER).any()


def test_empty_grid_errors(unit_square):
    with pytest.raises(ValueError):
        mesh.build_grid(unit_square, (10.0, 10.0), 0.5, 0.25)
    with pytest.raises(ValueError):
        mesh.build_grid(unit_square, (0.5, 0.5), 1.0, -0.1)


def test_visibility_pairs_refusal_names_lazy_energy(unit_square):
    grid = mesh.build_grid(unit_square, (0.5, 0.5), 1.0, 1.0 / 150)
    assert grid.n_cells > 20000
    with pytest.raises(ValueError, match=r"forms\.energy\(forms\.lazy_form"):
        mesh.visibility_pairs(grid)


@pytest.mark.parametrize("maker,x0,R", [
    ("unit_square", (0.5, 0.5), 1.0),
    ("annulus", (0.0, 0.0), 1.0),
    ("straight_dumbbell", (0.0, 0.0), 8.0),
    ("curved_dumbbell", (0.0, 0.0), 8.0),
])
def test_refinement_measure_stability(maker, x0, R, request):
    dom = request.getfixturevalue(maker)
    coarse = mesh.build_grid(dom, x0, R, 0.5)
    fine = mesh.build_grid(dom, x0, R, 0.25)
    assert fine.measures.sum() == pytest.approx(coarse.measures.sum(),
                                                rel=0.03)


def test_visibility_pairs_convex_all_visible(unit_square):
    grid = mesh.build_grid(unit_square, (0.5, 0.5), 1.0, 0.25)
    pairs = mesh.visibility_pairs(grid)
    assert pairs.n_pairs == grid.n_cells * (grid.n_cells - 1) // 2
    assert pairs.visible.all()


def test_visibility_pairs_annulus_blocked(annulus_grid):
    pairs = mesh.visibility_pairs(annulus_grid)
    assert pairs.visible.any()
    assert not pairs.visible.all()
    # flags match a segment test of every pair (exhaustive on this grid)
    C = annulus_grid.centers
    recheck = annulus_grid.domain.segment_inside_many(C[pairs.i], C[pairs.j])
    assert np.array_equal(recheck, pairs.visible)


#: (domain, R, h) of the segment-test counts, about x0 = 0; the ids keep
#: the names the dumbbell cases had
_RULE_CASES = [(variant, R, h)
               for R, h in [(4.0, 0.5), (8.0, 0.5), (6.0, 0.4), (5.0, 0.3)]
               for variant in ("straight", "curved")] + [
    ("annulus", 1.0, 1.0 / 8.0), ("annulus", 1.0, 1.0 / 16.0),
    ("box", 2.0, 1.0 / 16.0)]


@pytest.mark.parametrize("variant,R,h", _RULE_CASES,
                         ids=[f"{R}-{h}-{v}" for v, R, h in _RULE_CASES])
def test_visibility_pairs_convex_primitive_skip(monkeypatch, variant, R, h):
    """The flags come from the part-pair rule and equal a segment test of
    every pair.  The rule segment-tests at most 2% of a dumbbell's pairs
    (a test of every pair outside one convex primitive made about half of
    them), each unordered pair of the annulus once, and no pair of a
    convex box."""
    domain = {"annulus": geo.make_annulus(),
              "box": geo.make_box(1.0, 1.0)}.get(variant)
    grid = mesh.build_grid(domain or geo.make_dumbbell(variant), (0.0, 0.0),
                           R, h)
    tested = [0]
    original = geo.DomainSpec.segment_inside_many

    def counted(self, X, Y):
        tested[0] += len(X)
        return original(self, X, Y)

    with monkeypatch.context() as m:
        m.setattr(geo.DomainSpec, "segment_inside_many", counted)
        pairs = mesh.visibility_pairs(grid)
    if variant == "annulus":
        assert tested[0] == pairs.n_pairs
    elif variant == "box":
        assert tested[0] == 0 and pairs.n_pairs
    else:
        assert tested[0] <= 0.02 * pairs.n_pairs
    assert np.array_equal(pairs.visible,
                          brute_visibility_pairs(grid).visible)


def test_visibility_pairs_curved_bells_disconnected(curved_dumbbell):
    grid = mesh.build_grid(curved_dumbbell, (0.0, 0.0), 4.0, 0.5)
    pairs = mesh.visibility_pairs(grid)
    cross = (grid.tags[pairs.i] == geo.TAG_MINUS) \
        & (grid.tags[pairs.j] == geo.TAG_PLUS)
    cross |= (grid.tags[pairs.i] == geo.TAG_PLUS) \
        & (grid.tags[pairs.j] == geo.TAG_MINUS)
    assert cross.any()
    assert not pairs.visible[cross].any()


@pytest.mark.parametrize("block", [7, 1000, 16835, 1 << 21])
def test_visibility_pairs_blocks_give_triu_order(monkeypatch, annulus_grid,
                                                 block):
    """The pairs are np.triu_indices with the whole-array distances, and
    the flags do not depend on the block size of the part-pair rule."""
    whole = mesh.visibility_pairs(annulus_grid)
    monkeypatch.setattr(mesh, "PAIR_BLOCK", block)
    pairs = mesh.visibility_pairs(annulus_grid)
    ii, jj = np.triu_indices(annulus_grid.n_cells, k=1)
    assert pairs.i.dtype == pairs.j.dtype == np.int32
    assert np.array_equal(pairs.i, ii) and np.array_equal(pairs.j, jj)
    d = annulus_grid.centers[jj] - annulus_grid.centers[ii]
    assert np.array_equal(pairs.r, np.sqrt(np.einsum("ij,ij->i", d, d)))
    assert np.array_equal(pairs.visible, whole.visible)


def test_pair_distances_match_centers(annulus_grid):
    pairs = mesh.visibility_pairs(annulus_grid)
    d = annulus_grid.centers[pairs.i] - annulus_grid.centers[pairs.j]
    assert np.allclose(pairs.r, np.hypot(d[:, 0], d[:, 1]))
    assert np.all(pairs.i < pairs.j)


def test_cell_mean(unit_square):
    grid = mesh.Grid(h=1.0, centers=np.zeros((3, 2)),
                     measures=np.array([1.0, 1.0, 2.0]),
                     tags=np.zeros(3, dtype=np.int8),
                     ix=np.arange(3), iy=np.arange(3),
                     domain=unit_square, x0=(0.0, 0.0), R=1.0)
    assert mesh.cell_mean(grid, [0.0, 1.0, 2.0]) == pytest.approx(1.25)
    assert mesh.cell_mean(grid, [3.0, 3.0, 3.0]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        mesh.cell_mean(grid, [1.0, 2.0])


def test_visibility_pairs_bell_with_a_hole(straight_dumbbell):
    """A bell part whose columns have a hole is no target of the portal
    rule, so its pairs with the corridor cells get segment tests; the
    flags still equal a segment test of every pair."""
    grid = mesh.build_grid(straight_dumbbell, (0.0, 0.0), 4.0, 0.5)
    minus = grid.tags == geo.TAG_MINUS
    keep = ~(minus & (grid.ix == grid.ix[minus].max()) & (grid.iy == 0))
    assert keep.sum() == grid.n_cells - 1
    grid = dataclasses.replace(grid, **{
        f: getattr(grid, f)[keep]
        for f in ("centers", "measures", "tags", "ix", "iy")})
    pairs = mesh.visibility_pairs(grid)
    assert np.array_equal(pairs.visible,
                          brute_visibility_pairs(grid).visible)
