import dataclasses

import numpy as np
import pytest

from visform import forms, geometry, mesh


@pytest.fixture(scope="session")
def unit_square():
    return geometry.make_box(1.0, 1.0)


@pytest.fixture(scope="session")
def annulus():
    return geometry.make_annulus()


@pytest.fixture(scope="session")
def straight_dumbbell():
    return geometry.make_dumbbell("straight")


@pytest.fixture(scope="session")
def curved_dumbbell():
    return geometry.make_dumbbell("curved")


@pytest.fixture(scope="session")
def annulus_grid(annulus):
    return mesh.build_grid(annulus, (0.0, 0.0), 1.0, 1.0 / 8.0)


def two_cell_grid(domain=None, distance=1.0):
    """Degenerate two-cell grid of unit cells, centers on a line."""
    domain = domain if domain is not None else geometry.make_box(3.0, 1.0)
    centers = np.array([[0.5, 0.5], [0.5 + distance, 0.5]])
    return mesh.Grid(h=1.0, centers=centers,
                     tags=np.zeros(2, dtype=np.int8),
                     ix=np.array([0, 1]), iy=np.array([0, 0]),
                     domain=domain, x0=(0.0, 0.0), R=10.0)


def sample_points_in(domain, n, seed, box=None):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5A11]))
    if box is None:
        lo, hi = domain.bounding_box()
    else:
        lo, hi = (np.asarray(v, dtype=float) for v in box)
    pts = []
    while len(pts) < n:
        cand = rng.uniform(lo, hi, size=(4 * n, 2))
        keep = domain.contains_many(cand)
        pts.extend(cand[keep][: n - len(pts)])
    return np.asarray(pts)


def brute_visibility_pairs(grid):
    """``mesh.visibility_pairs(grid)``'s pairs and distances with the flags
    of a segment test of every pair, the oracle of the part-pair rule.  A
    pair with both ends in one convex primitive is visible untested; that
    skip reads no region tag and no portal rule."""
    pairs = mesh.visibility_pairs(grid)
    C = grid.centers
    visible = np.zeros(pairs.n_pairs, dtype=bool)
    for prim in grid.domain.primitives:
        if prim.convex:
            member = prim.contains_many(C)
            visible |= member[pairs.i] & member[pairs.j]
    test = np.flatnonzero(~visible)
    for lo in range(0, test.size, forms.PAIR_BLOCK):
        t = test[lo:lo + forms.PAIR_BLOCK]
        visible[t] = grid.domain.segment_inside_many(C[pairs.i[t]],
                                                     C[pairs.j[t]])
    return dataclasses.replace(pairs, visible=visible)
