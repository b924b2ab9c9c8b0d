import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from visform import forms, geometry as geo, kernels as kn, mesh, walker
from visform.geometry import TAG_MINUS, TAG_PLUS

#: the CSR rows sum their weights in another order than the dense rows
#: did, so P and cdf may differ from the dense reference in the last ulps
ROW_RTOL = 64 * np.finfo(float).eps


def _dense_chain(grid, pairs, kernel):
    """Reference (N, N) chain: W_ij = k(r) m_j on the visible pairs, P its
    normalized rows and cdf their running sums, reading 1.0 from each
    row's last positive entry on."""
    n = grid.n_cells
    W = np.zeros((n, n))
    keep = pairs.visible
    i = pairs.i[keep]
    j = pairs.j[keep]
    k = kernel.k(pairs.r[keep])
    W[i, j] = k * grid.cell_measure
    W[j, i] = k * grid.cell_measure
    rates = W.sum(axis=1)
    live = rates > 0.0
    P = np.zeros_like(W)
    P[live] = W[live] / rates[live, None]
    cdf = np.cumsum(P, axis=1)
    for row, p in zip(cdf, P):
        reach = np.flatnonzero(p)
        row[reach[-1] if reach.size else -1:] = 1.0
    return P, cdf


def _dense_advance(cdf, states, rng):
    """Reference step: bisection over whole dense cdf rows."""
    n = cdf.shape[0]
    u = rng.random(states.shape[0])
    lo = np.zeros(states.shape[0], dtype=np.int64)
    hi = np.full(states.shape[0], n, dtype=np.int64)
    for _ in range(int(np.ceil(np.log2(max(2, n)))) + 1):
        mid = (lo + hi) // 2
        go_right = cdf[states, np.minimum(mid, n - 1)] < u
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(go_right, hi, mid)
    return np.minimum(lo, n - 1)


def _dense_P(chain):
    """(N, N) copy of the chain's CSR probabilities."""
    n = chain.indptr.size - 1
    return sp.csr_array((chain.P, chain.cols, chain.indptr),
                        shape=(n, n)).toarray()


def _two_state_chain(q=0.5):
    """State 0 jumps to state 1 with probability q, else stays."""
    dom = geo.make_dumbbell("straight")
    centers = np.array([[-9.0, 0.0], [9.0, 0.0]])
    grid = mesh.Grid(h=1.0, centers=centers,
                     tags=np.array([TAG_MINUS, TAG_PLUS], dtype=np.int8),
                     ix=np.arange(2), iy=np.zeros(2, dtype=int),
                     domain=dom, x0=(0.0, 0.0), R=16.0)
    W = sp.csr_array(np.array([[1.0 - q, q], [q, 1.0 - q]]))
    return walker._chain(W, grid)


class _FixedDraws:
    """Stands in for a Generator whose uniform draws are all ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        return np.full(n, self.u)


class _GivenDraws:
    """Stands in for a Generator whose uniform draws are ``u``, in order."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        assert n == self.u.size
        return self.u


def _dense_cdf(chain):
    """(N, N) running sums read from the chain's own CSR rows: each column
    holds the cdf of the row's last stored entry at or before it, 0.0
    before the first one (a running max, as each row's cdf is monotone)."""
    n = chain.indptr.size - 1
    cdf = np.zeros((n, n))
    cdf[np.repeat(np.arange(n), np.diff(chain.indptr)), chain.cols] = chain.cdf
    return np.maximum.accumulate(cdf, axis=1)


def _assert_edge_draws_match_dense(chain):
    """Every live row, drawn at each guide-bucket edge g / L, both float
    neighbours of each edge and each stored cdf value with its upper
    neighbour, moves where the dense whole-row bisection over the same
    cdf moves; u = 0.0 takes the row's first stored entry, where the dense
    rows give column 0 whether or not it is stored."""
    states, draws = [], []
    for s in np.flatnonzero(~chain.isolated):
        lo, hi = chain.indptr[s], chain.indptr[s + 1]
        edges = np.arange(hi - lo + 1) / (hi - lo)
        row = np.concatenate([edges, np.nextafter(edges, 0.0),
                              np.nextafter(edges, 1.0), chain.cdf[lo:hi],
                              np.nextafter(chain.cdf[lo:hi], 1.0)])
        row = np.unique(row[row < 1.0])
        states.append(np.full(row.size, s))
        draws.append(row)
    states = np.concatenate(states)
    u = np.concatenate(draws)
    assert u[0] == 0.0 and np.nextafter(1.0, 0.0) in u
    got = walker._advance(chain, states, _GivenDraws(u))
    want = _dense_advance(_dense_cdf(chain), states, _GivenDraws(u))
    zero = u == 0.0
    want[zero] = chain.cols[chain.indptr[states[zero]]]
    assert np.array_equal(got, want)


def test_draw_above_rounded_row_total_stays_reachable():
    # row 0's probabilities 8.6/16.1 and 7.5/16.1 add up to 1 - 2**-52: a
    # draw above that total must go to the row's last entry (state 2),
    # never past the row's end into row 1
    W = sp.csr_array(np.array([[0.0, 8.6, 7.5, 0.0],
                               [8.6, 0.0, 0.0, 1.0],
                               [7.5, 0.0, 0.0, 0.0],
                               [0.0, 1.0, 0.0, 0.0]]))
    chain = walker._chain(W, None)
    u = np.nextafter(1.0, 0.0)
    assert chain.cols[:2].tolist() == [1, 2]
    assert np.cumsum(chain.P[:2])[-1] < u
    nxt = walker._advance(chain, np.zeros(3, dtype=np.int64), _FixedDraws(u))
    assert nxt.tolist() == [2, 2, 2]
    for lo, hi in zip(chain.indptr[:-1], chain.indptr[1:]):
        assert np.all(np.diff(chain.cdf[lo:hi]) >= 0.0)
        assert chain.cdf[hi - 1] == 1.0


@pytest.fixture(scope="module", params=["straight", "curved"])
def r8_chain(request):
    """Chain on a dumbbell at R = 8 with its dense reference."""
    grid = mesh.build_grid(geo.make_dumbbell(request.param), (0.0, 0.0),
                           8.0, 0.5)
    pairs = mesh.visibility_pairs(grid)
    kernel = kn.KernelSpec("power", s=0.25, p=2)
    return walker.build_chain(grid, pairs, kernel), _dense_chain(grid, pairs,
                                                                 kernel)


def test_csr_rows_match_dense_reference(r8_chain):
    chain, (P, cdf) = r8_chain
    n = P.shape[0]
    rows = np.repeat(np.arange(n), np.diff(chain.indptr))
    # the stored entries are exactly the dense positive entries, in order
    assert np.array_equal(rows * n + chain.cols, np.flatnonzero(P))
    np.testing.assert_allclose(chain.P, P[rows, chain.cols], rtol=ROW_RTOL,
                               atol=0.0)
    np.testing.assert_allclose(chain.cdf, cdf[rows, chain.cols],
                               rtol=ROW_RTOL, atol=0.0)


def test_advance_matches_dense_reference(r8_chain):
    chain, (_, cdf) = r8_chain
    live = np.flatnonzero(~chain.isolated)
    states = np.random.default_rng(3).choice(live, size=200_000)
    got = walker._advance(chain, states, np.random.default_rng(4))
    want = _dense_advance(cdf, states, np.random.default_rng(4))
    assert np.array_equal(got, want)


def test_bucket_edge_draws_match_dense_reference(r8_chain):
    _assert_edge_draws_match_dense(r8_chain[0])


def test_bucket_edge_draws_on_flat_cdf_runs():
    # explicit zero weights give zero probabilities and flat cdf runs,
    # leading, inner and trailing; rows hold 7 stored entries each
    weights = np.random.default_rng(6).integers(0, 3, size=(8, 8))
    weights = np.triu(weights, 1) + np.triu(weights, 1).T
    weights[:, 7] = weights[7, :] = 0
    weights[6, 7] = weights[7, 6] = 1
    i, j = np.nonzero(~np.eye(8, dtype=bool))
    W = sp.csr_array((weights[i, j].astype(float), (i, j)), shape=(8, 8))
    chain = walker._chain(W, None)
    assert chain.P.size == 56 and not chain.isolated.any()
    rows = np.split(chain.cdf, chain.indptr[1:-1])
    assert rows[7][0] == 0.0 and rows[2][1] == rows[2][0] < rows[2][-1]
    assert np.count_nonzero(chain.P == 0.0) == 18
    _assert_edge_draws_match_dense(chain)


def test_zero_total_rows_with_stored_zeros_stay_isolated():
    # rows 0 and 1 carry weight 1; rows 2 and 3 store only explicit zeros
    i = np.array([0, 1, 2, 3])
    j = np.array([1, 0, 3, 2])
    W = sp.csr_array((np.array([1.0, 1.0, 0.0, 0.0]), (i, j)), shape=(4, 4))
    with np.errstate(all="raise"):
        chain = walker._chain(W, None)
    assert chain.isolated.tolist() == [False, False, True, True]
    assert chain.P.tolist() == [1.0, 1.0, 0.0, 0.0]
    for values in (chain.P, chain.cdf, chain.guide):
        assert np.isfinite(values).all()


#: mean steps and the first 16 hex digits of sha256(steps) of the quick
#: suite's walks (R = 8, 200 paths, seed 0, max_steps 200,000, s = 0.25)
QUICK_WALKS = {"straight-dumbbell": (165.455, "8306aab3294377b0"),
               "curved-dumbbell": (1342.345, "27db1e8c3694ecc6")}


def test_quick_suite_walks_keep_their_steps(r8_chain):
    chain = r8_chain[0]
    stats = walker.mean_crossing_time(chain, n_paths=200, max_steps=200_000,
                                      seed=0)
    digest = hashlib.sha256(stats.steps.tobytes()).hexdigest()[:16]
    assert (stats.mean_steps, digest) == QUICK_WALKS[chain.grid.domain.name]
    assert stats.n_completed == 200


def test_chain_holds_no_dense_array(curved_dumbbell):
    grid = mesh.build_grid(curved_dumbbell, (0.0, 0.0), 8.0, 0.5)
    pairs = mesh.visibility_pairs(grid)
    kernel = kn.KernelSpec("power", s=0.25, p=2)
    nnz = 2 * forms.assemble(grid, pairs, kernel, "vis").n_pairs
    chain = walker.build_chain(grid, pairs, kernel)
    sizes = {name: value.size for name, value in vars(chain).items()
             if isinstance(value, np.ndarray)}
    assert sizes and max(sizes.values()) <= nnz, sizes


def test_two_state_geometric_mean():
    chain = _two_state_chain(q=0.5)
    stats = walker.mean_crossing_time(chain, n_paths=4000, max_steps=10_000,
                                      seed=5)
    assert stats.mean_steps == pytest.approx(2.0, abs=3 * stats.ci95)
    assert stats.n_censored == 0


def test_build_chain_two_visible_cells():
    dom = geo.make_box(3.0, 1.0)
    centers = np.array([[0.5, 0.5], [1.5, 0.5]])
    grid = mesh.Grid(h=1.0, centers=centers,
                     tags=np.zeros(2, dtype=np.int8),
                     ix=np.arange(2), iy=np.zeros(2, dtype=int),
                     domain=dom, x0=(0.0, 0.0), R=4.0)
    pairs = mesh.visibility_pairs(grid)
    chain = walker.build_chain(grid, pairs, kn.KernelSpec("constant"))
    assert np.allclose(_dense_P(chain), [[0.0, 1.0], [1.0, 0.0]])


def test_build_chain_detailed_balance(annulus_grid):
    pairs = mesh.visibility_pairs(annulus_grid)
    kernel = kn.KernelSpec("power", s=0.5, p=2)
    chain = walker.build_chain(annulus_grid, pairs, kernel)
    P = _dense_P(chain)
    assert np.allclose(P.sum(axis=1)[~chain.isolated], 1.0, atol=1e-12)
    # total jump rates sum_j k(r) m_j, from the assembled weights k(r) m_i m_j
    form = forms.assemble(annulus_grid, pairs, kernel, "vis")
    m = np.full(annulus_grid.n_cells, annulus_grid.cell_measure)
    rates = (np.bincount(form.pair_i, form.weight, m.size)
             + np.bincount(form.pair_j, form.weight, m.size)) / m
    flow = m[:, None] * rates[:, None] * P
    assert np.max(np.abs(flow - flow.T)) < 1e-12


def test_build_chain_rejects_all_isolated():
    dom = geo.make_box(9.0, 1.0)
    centers = np.array([[0.5, 0.5], [8.5, 0.5]])
    grid = mesh.Grid(h=1.0, centers=centers,
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
    P = _dense_P(chain)
    assert np.all(P[np.ix_(minus, plus)] == 0.0)
    assert np.all(P[np.ix_(plus, minus)] == 0.0)
    stats = walker.mean_crossing_time(chain, n_paths=300, max_steps=100_000,
                                      seed=2)
    assert stats.direct_cross_jumps == 0
    assert stats.n_completed > 0


def _exact_mean_crossing(chain):
    """Exact mean first-hit step count: (I - Q) t = 1 solved densely over
    the non-target states, averaged over the live start cells deep in the
    minus bell."""
    grid = chain.grid
    rest = np.flatnonzero(grid.tags != TAG_PLUS)
    Q = _dense_P(chain)[np.ix_(rest, rest)]
    t = np.zeros(grid.n_cells)
    t[rest] = np.linalg.solve(np.eye(rest.size) - Q, np.ones(rest.size))
    start = np.flatnonzero((grid.tags == TAG_MINUS)
                           & (grid.centers[:, 0] < -0.5 * grid.R)
                           & ~chain.isolated)
    return float(np.mean(t[start]))


@pytest.mark.parametrize("name, R", [("straight", 8.0), ("curved", 8.0),
                                     ("straight", 16.0), ("curved", 16.0)],
                         ids=["straight", "curved", "straight-R16",
                              "curved-R16"])
def test_crossing_mean_matches_exact_hitting_time(name, R):
    grid = mesh.build_grid(geo.make_dumbbell(name), (0.0, 0.0), R, 0.5)
    chain = walker.build_chain(grid, mesh.visibility_pairs(grid),
                               kn.KernelSpec("power", s=0.25, p=2))
    if name == "curved":
        minus, plus = grid.tags == TAG_MINUS, grid.tags == TAG_PLUS
        assert np.all(_dense_P(chain)[np.ix_(minus, plus)] == 0.0)
    exact = _exact_mean_crossing(chain)
    stats = walker.mean_crossing_time(chain, n_paths=3000,
                                      max_steps=200_000, seed=0)
    assert stats.n_censored == 0
    z = (stats.mean_steps - exact) / (stats.ci95 / 1.96)
    assert abs(z) < 4.0, f"mean {stats.mean_steps}, exact {exact}, z {z}"


@pytest.mark.parametrize("kwargs", [dict(n_paths=0), dict(max_steps=0),
                                    dict(n_paths=-3)],
                         ids=["n_paths=0", "max_steps=0", "n_paths=-3"])
def test_crossing_refuses_bad_path_counts(kwargs):
    (arg,) = kwargs
    with pytest.raises(ValueError, match=arg):
        walker.mean_crossing_time(_two_state_chain(), **kwargs)


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
    off = _dense_P(chain) + np.eye(grid.n_cells)
    assert np.all(off > 0.0)
    assert not chain.isolated.any()
