import heapq

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


# ---------------------------------------------------------------------------
# per-cube reference: one cube and one boundary_distance_many call at a time
# ---------------------------------------------------------------------------

def _ref_corners(lo, hi):
    dim = len(lo)
    return np.asarray([[hi[d] if (mask >> d) & 1 else lo[d]
                        for d in range(dim)] for mask in range(1 << dim)])


def _ref_exact_min_sd(prim, lo, hi, corners):
    """Exact min over the box of the primitive's signed distance, or None."""
    if isinstance(prim, geo.HalfSpace):
        return float(prim.signed_distance(corners).min())
    if isinstance(prim, geo.Ball):
        c = np.asarray(prim.center)
        far = np.sqrt(np.max(np.einsum("ij,ij->i", corners - c, corners - c)))
        return float(prim.radius - far)
    if isinstance(prim, geo.Annulus):
        c = np.asarray(prim.center)
        far = np.sqrt(np.max(np.einsum("ij,ij->i", corners - c, corners - c)))
        near = float(np.hypot(*(np.clip(c, lo, hi) - c)))
        return float(min(prim.r_out - far, near - prim.r_in))
    if isinstance(prim, geo.Box):
        sd = prim.signed_distance(corners)
        return float(sd.min()) if np.all(sd > 0.0) else None
    return None


def _ref_lower_bound(domain, cube, center_delta):
    lipschitz = center_delta - cube.diam / 2.0
    if not isinstance(domain, geo.DomainSpec):
        return lipschitz
    lo, hi = np.asarray(cube.lo), np.asarray(cube.hi)
    corners = _ref_corners(cube.lo, cube.hi)
    exact = -np.inf
    for prim in domain.primitives:
        ex = _ref_exact_min_sd(prim, lo, hi, corners)
        if ex is not None and ex > exact:
            exact = ex
    if domain.clip is not None:
        exact = min(exact, _ref_exact_min_sd(domain.clip, lo, hi, corners))
    return max(lipschitz, exact)


def _ref_decompose(domain, max_level):
    bb_lo, bb_hi = (np.asarray(v, dtype=float) for v in domain.bounding_box())
    dim = bb_lo.shape[0]
    base = float(np.max(bb_hi - bb_lo)) / 4.0
    counts = np.maximum(1, np.ceil((bb_hi - bb_lo) / base - 1e-12).astype(int))
    queue = [(0, anchor) for anchor in np.ndindex(*counts)]
    cubes = []
    while queue:
        level, anchor = queue.pop()
        side = base * 2.0 ** (-level)
        lo = bb_lo + np.asarray(anchor) * side
        cube = wh.WhitneyCube(level=level, anchor=tuple(map(int, anchor)),
                              side=side, lo=tuple(lo), hi=tuple(lo + side))
        center = np.asarray(cube.center)
        delta = float(domain.boundary_distance_many(center[None, :])[0])
        if delta + cube.diam / 2.0 <= 0.0:
            continue
        lower = _ref_lower_bound(domain, cube, delta)
        if lower >= cube.diam and delta <= 4.0 * cube.diam:
            cubes.append(cube)
        elif level < max_level:
            queue.extend((level + 1, tuple(2 * a + c
                                           for a, c in zip(anchor, child)))
                         for child in np.ndindex(*(2,) * dim))
    return sorted(cubes, key=lambda c: (c.level, c.anchor))


def _ref_sandwich(decomp):
    bad = []
    for k, cube in enumerate(decomp.cubes):
        pts = np.vstack([_ref_corners(cube.lo, cube.hi),
                         np.asarray(cube.center)[None, :]])
        dvals = decomp.domain.boundary_distance_many(pts)
        center_delta = float(dvals[-1])
        lower = _ref_lower_bound(decomp.domain, cube, center_delta)
        if not (dvals.min() >= cube.diam - 1e-12
                and lower >= cube.diam - 1e-12
                and center_delta <= 4.0 * cube.diam + 1e-12):
            bad.append(k)
    return bad


def _ref_dijkstra(decomp, start, feasible, limit, budget):
    adj = decomp.adjacency()
    best = {start: decomp.cubes[start].side}
    parent = {start: -1}
    heap = [(best[start], start)]
    expansions = 0
    while heap and expansions < budget:
        cost, node = heapq.heappop(heap)
        if cost > best.get(node, np.inf):
            continue
        expansions += 1
        for nxt in adj[node]:
            ncost = cost + decomp.cubes[nxt].side
            if (ncost <= limit + 1e-12 and ncost < best.get(nxt, np.inf)
                    and feasible(nxt)):
                best[nxt] = ncost
                parent[nxt] = node
                heapq.heappush(heap, (ncost, nxt))
    return best, parent


def _ref_chain(decomp, qi, si, eps, budget=wh.SEARCH_BUDGET):
    """The chain search with per-cube growth predicates (qi != si)."""
    cubes = decomp.cubes
    limit = decomp.long_distance(qi, si) / eps
    tol = 1e-12
    from_q, parent_q = _ref_dijkstra(
        decomp, qi,
        lambda p: cubes[p].side >= eps * decomp.long_distance(qi, p) - tol,
        limit, budget // 2)
    from_s, parent_s = _ref_dijkstra(
        decomp, si,
        lambda p: cubes[p].side >= eps * decomp.long_distance(p, si) - tol,
        limit, budget // 2)
    best_total, junction = np.inf, -1
    for node, cq in from_q.items():
        cs = from_s.get(node)
        if cs is None:
            continue
        total = cq + cs - cubes[node].side
        if total < best_total - tol or (abs(total - best_total) <= tol
                                        and node < junction):
            best_total, junction = total, node
    if junction < 0 or best_total > limit + tol:
        return None
    head = wh._walk_back(parent_q, junction)
    tail = wh._walk_back(parent_s, junction)
    path = head + tail[-2::-1]
    j0 = wh._central_index(decomp, path, eps)
    if j0 is None:
        return None
    chain = wh.Chain(indices=path, epsilon=eps, j0=j0, length=best_total)
    return chain if wh.validate_chain(decomp, chain) else None


def _bits(cubes):
    """(level, anchor, side, lo, hi) per cube, floats as exact hex strings."""
    return [(c.level, c.anchor, float(c.side).hex(),
             tuple(float(v).hex() for v in c.lo),
             tuple(float(v).hex() for v in c.hi)) for c in cubes]


def _oracle_domains():
    straight = geo.make_dumbbell("straight")
    curved = geo.make_dumbbell("curved")
    return [("interval", Interval1D(), 8),
            ("square", geo.make_box(1, 1), 6),
            ("annulus", geo.make_annulus(), 6),
            ("straight", geo.clip_ball(straight, (0.0, 0.0), 8.0), 6),
            ("curved", geo.clip_ball(curved, (0.0, 0.0), 8.0), 5)]


@pytest.mark.parametrize("name,domain,level", _oracle_domains(),
                         ids=[d[0] for d in _oracle_domains()])
def test_decompose_and_sandwich_match_per_cube_reference(name, domain, level):
    decomp = wh.whitney_decompose(domain, max_level=level)
    assert _bits(decomp.cubes) == _bits(_ref_decompose(domain, level))
    assert wh.check_sandwich(decomp) == _ref_sandwich(decomp) == []
    # the arrays the decomposition hands out are those of its cube list
    listed = wh.WhitneyDecomposition(
        domain=domain, cubes=decomp.cubes, base=decomp.base,
        max_level=level, dim=decomp.dim, bbox_lo=decomp.bbox_lo,
        bbox_hi=decomp.bbox_hi)
    for attr in ("centers", "sides", "lows", "highs"):
        assert np.array_equal(getattr(decomp, attr), getattr(listed, attr))


def test_sandwich_flags_injected_cubes_like_reference(annulus):
    decomp = wh.whitney_decompose(annulus, max_level=6)
    # too large for its distance: the cube reaches into the hole
    too_big = wh.WhitneyCube(level=1, anchor=(0, 0), side=0.5,
                             lo=(0.25, -0.25), hi=(0.75, 0.25))
    # centre at the middle radius, 1/3 from the boundary > 4 diam
    too_far = wh.WhitneyCube(level=7, anchor=(0, 0), side=0.01,
                             lo=(0.66, -0.005), hi=(0.67, 0.005))
    cubes = decomp.cubes[:10] + [too_big] + decomp.cubes[10:] + [too_far]
    injected = wh.WhitneyDecomposition(
        domain=annulus, cubes=cubes, base=decomp.base, max_level=7, dim=2,
        bbox_lo=decomp.bbox_lo, bbox_hi=decomp.bbox_hi)
    assert wh.check_sandwich(injected) == _ref_sandwich(injected) \
        == [10, len(cubes) - 1]


def test_chains_match_per_cube_reference(annulus_decomp):
    rng = np.random.default_rng(np.random.SeedSequence([20, 0xC4A]))
    found = 0
    for _ in range(20):
        qi, si = (int(v) for v in
                  rng.integers(0, annulus_decomp.n_cubes, size=2))
        for eps in (0.05, 0.3):
            got = wh.find_admissible_chain(annulus_decomp, qi, si, eps)
            ref = _ref_chain(annulus_decomp, qi, si, eps)
            assert (got is None) == (ref is None)
            if got is not None:
                found += 1
                assert (got.indices, got.j0, got.length) == \
                    (ref.indices, ref.j0, ref.length)
    assert found >= 20


def test_dump_csv_writes_plain_floats(tmp_path, annulus_decomp):
    path = tmp_path / "cubes.csv"
    annulus_decomp.dump_csv(path)
    header, *rows = path.read_text().splitlines()
    assert header == "level,side,lo0,lo1,hi0,hi1"
    assert len(rows) == annulus_decomp.n_cubes
    for row, cube in zip(rows, annulus_decomp.cubes):
        level, *values = row.split(",")
        assert int(level) == cube.level
        assert [float(v) for v in values] == [cube.side, *cube.lo, *cube.hi]


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
    assert type(s5) is float and type(s6) is float
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
