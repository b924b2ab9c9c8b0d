import numpy as np
import pytest

from visform import geometry as geo, kernels as kn, mesh, walker
from visform.geometry import TAG_MINUS, TAG_PLUS


def _two_state_chain(q=0.5):
    """State 0 jumps to state 1 with probability q, else stays."""
    dom = geo.make_dumbbell("straight")
    centers = np.array([[-9.0, 0.0], [9.0, 0.0]])
    grid = mesh.Grid(h=1.0, centers=centers, measures=np.ones(2),
                     tags=np.array([TAG_MINUS, TAG_PLUS], dtype=np.int8),
                     ix=np.arange(2), iy=np.zeros(2, dtype=int),
                     domain=dom, x0=(0.0, 0.0), R=16.0)
    P = np.array([[1.0 - q, q], [0.0, 1.0]])
    return walker.ChainModel(P=P, rates=np.ones(2), grid=grid,
                             isolated=np.zeros(2, dtype=bool))


class _FixedDraws:
    """Stands in for a Generator whose uniform draws are all ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        return np.full(n, self.u)


def test_draw_above_rounded_row_total_stays_reachable():
    # the row sums to 1 - 1e-15: a draw above that total must go to the
    # row's last positive entry (state 2), never to the unreachable state 3
    P = np.zeros((4, 4))
    P[0] = [0.0, 0.5, 0.5 - 1e-15, 0.0]
    P[1:, 0] = 1.0
    chain = walker.ChainModel(P=P, rates=np.ones(4), grid=None,
                              isolated=np.zeros(4, dtype=bool))
    u = 0.9999999999999995
    assert np.cumsum(P[0])[-1] < u
    nxt = walker._advance(chain, np.zeros(3, dtype=np.int64), _FixedDraws(u))
    assert nxt.tolist() == [2, 2, 2]
    assert np.all(np.diff(chain.cdf(), axis=1) >= 0.0)


def test_two_state_geometric_mean():
    chain = _two_state_chain(q=0.5)
    stats = walker.mean_crossing_time(chain, n_paths=4000, max_steps=10_000,
                                      seed=5)
    assert stats.mean_steps == pytest.approx(2.0, abs=3 * stats.ci95)
    assert stats.n_censored == 0


def test_start_in_target_is_zero():
    chain = _two_state_chain()
    stats = walker.mean_crossing_time(chain, n_paths=50, max_steps=100,
                                      seed=1, source_tag=TAG_PLUS,
                                      target_tag=TAG_PLUS, deep_fraction=-1.0)
    assert stats.mean_steps == 0.0


def test_build_chain_two_visible_cells():
    dom = geo.make_box(3.0, 1.0)
    centers = np.array([[0.5, 0.5], [1.5, 0.5]])
    grid = mesh.Grid(h=1.0, centers=centers, measures=np.ones(2),
                     tags=np.zeros(2, dtype=np.int8),
                     ix=np.arange(2), iy=np.zeros(2, dtype=int),
                     domain=dom, x0=(0.0, 0.0), R=4.0)
    pairs = mesh.visibility_pairs(grid)
    chain = walker.build_chain(grid, pairs, kn.KernelSpec("constant"))
    assert np.allclose(chain.P, [[0.0, 1.0], [1.0, 0.0]])


def test_build_chain_detailed_balance(annulus_grid):
    pairs = mesh.visibility_pairs(annulus_grid)
    chain = walker.build_chain(annulus_grid, pairs,
                               kn.KernelSpec("power", s=0.5, p=2))
    assert np.allclose(chain.P.sum(axis=1)[~chain.isolated], 1.0, atol=1e-12)
    flow = annulus_grid.measures[:, None] * chain.rates[:, None] * chain.P
    assert np.max(np.abs(flow - flow.T)) < 1e-12


def test_build_chain_rejects_all_isolated():
    dom = geo.make_box(9.0, 1.0)
    centers = np.array([[0.5, 0.5], [8.5, 0.5]])
    grid = mesh.Grid(h=1.0, centers=centers, measures=np.ones(2),
                     tags=np.zeros(2, dtype=np.int8),
                     ix=np.arange(2), iy=np.zeros(2, dtype=int),
                     domain=dom, x0=(0.0, 0.0), R=16.0)
    pairs = mesh.visibility_pairs(grid)
    with pytest.raises(ValueError):
        walker.build_chain(grid, pairs, kn.KernelSpec("truncated", rho=1.0))


def test_curved_chain_has_no_direct_cross(curved_dumbbell):
    grid = mesh.build_grid(curved_dumbbell, (0.0, 0.0), 6.0, 0.5)
    pairs = mesh.visibility_pairs(grid)
    chain = walker.build_chain(grid, pairs, kn.KernelSpec("power", s=0.25, p=2))
    minus = grid.tags == TAG_MINUS
    plus = grid.tags == TAG_PLUS
    assert np.all(chain.P[np.ix_(minus, plus)] == 0.0)
    assert np.all(chain.P[np.ix_(plus, minus)] == 0.0)
    stats = walker.mean_crossing_time(chain, n_paths=300, max_steps=100_000,
                                      seed=2)
    assert stats.direct_cross_jumps == 0
    assert stats.n_completed > 0


def _exact_mean_crossing(chain, deep_fraction=0.5):
    """Exact mean first-hit step count: (I - Q) t = 1 solved densely over
    the non-target states, averaged over the measure-weighted live start
    cells deep in the minus bell."""
    grid = chain.grid
    rest = np.flatnonzero(grid.tags != TAG_PLUS)
    Q = chain.P[np.ix_(rest, rest)]
    t = np.zeros(grid.n_cells)
    t[rest] = np.linalg.solve(np.eye(rest.size) - Q, np.ones(rest.size))
    start = np.flatnonzero((grid.tags == TAG_MINUS)
                           & (grid.centers[:, 0] < -deep_fraction * grid.R)
                           & ~chain.isolated)
    w = grid.measures[start]
    return float(np.sum(w * t[start]) / np.sum(w))


@pytest.mark.parametrize("name", ["straight", "curved"])
def test_crossing_mean_matches_exact_hitting_time(name):
    grid = mesh.build_grid(geo.make_dumbbell(name), (0.0, 0.0), 8.0, 0.5)
    chain = walker.build_chain(grid, mesh.visibility_pairs(grid),
                               kn.KernelSpec("power", s=0.25, p=2))
    if name == "curved":
        minus, plus = grid.tags == TAG_MINUS, grid.tags == TAG_PLUS
        assert np.all(chain.P[np.ix_(minus, plus)] == 0.0)
    exact = _exact_mean_crossing(chain)
    stats = walker.mean_crossing_time(chain, n_paths=3000,
                                      max_steps=200_000, seed=0)
    assert stats.n_censored == 0
    z = (stats.mean_steps - exact) / (stats.ci95 / 1.96)
    assert abs(z) < 4.0, f"mean {stats.mean_steps}, exact {exact}, z {z}"


def test_seed_determinism(straight_dumbbell):
    grid = mesh.build_grid(straight_dumbbell, (0.0, 0.0), 6.0, 0.5)
    pairs = mesh.visibility_pairs(grid)
    chain = walker.build_chain(grid, pairs, kn.KernelSpec("power", s=0.25, p=2))
    a = walker.mean_crossing_time(chain, n_paths=200, max_steps=50_000, seed=9)
    b = walker.mean_crossing_time(chain, n_paths=200, max_steps=50_000, seed=9)
    c = walker.mean_crossing_time(chain, n_paths=200, max_steps=50_000, seed=10)
    assert np.array_equal(a.steps, b.steps)
    assert a.mean_steps == b.mean_steps
    assert a.mean_steps != c.mean_steps


def test_convex_box_rows_strictly_positive(unit_square):
    grid = mesh.build_grid(unit_square, (0.5, 0.5), 1.0, 0.25)
    pairs = mesh.visibility_pairs(grid)
    chain = walker.build_chain(grid, pairs, kn.KernelSpec("power", s=0.5, p=2))
    off = chain.P + np.eye(grid.n_cells)
    assert np.all(off > 0.0)
    assert not chain.isolated.any()
