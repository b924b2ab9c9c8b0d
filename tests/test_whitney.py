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


def _ref_lower_bound(domain, lo, hi, side, center_delta):
    lipschitz = center_delta - side * np.sqrt(len(lo)) / 2.0
    if not isinstance(domain, geo.DomainSpec):
        return lipschitz
    corners = _ref_corners(lo, hi)
    exact = -np.inf
    for prim in domain.primitives:
        ex = _ref_exact_min_sd(prim, lo, hi, corners)
        if ex is not None and ex > exact:
            exact = ex
    if domain.clip is not None:
        exact = min(exact, _ref_exact_min_sd(domain.clip, lo, hi, corners))
    return max(lipschitz, exact)


def _decomposition(domain, rows, base, max_level, bbox_lo, bbox_hi):
    """A decomposition from (level, anchor) rows."""
    levels, anchors = (np.asarray(v) for v in zip(*rows))
    return wh.WhitneyDecomposition(
        domain=domain, levels=levels, anchors=anchors, base=base,
        max_level=max_level, bbox_lo=tuple(bbox_lo), bbox_hi=tuple(bbox_hi))


def _rows(decomp):
    """(level, anchor, side, lo, hi) per cube, as plain Python values."""
    return list(zip(decomp.levels.tolist(),
                    map(tuple, decomp.anchors.tolist()),
                    decomp.sides.tolist(), map(tuple, decomp.lows.tolist()),
                    map(tuple, decomp.highs.tolist())))


def _cubes(decomp):
    """(level, anchor) per cube, as plain Python values."""
    return [row[:2] for row in _rows(decomp)]


def _ref_decompose(domain, max_level):
    """Accepted (level, anchor, side, lo, hi) rows in (level, anchor) order."""
    bb_lo, bb_hi = (np.asarray(v, dtype=float) for v in domain.bounding_box())
    dim = bb_lo.shape[0]
    base = float(np.max(bb_hi - bb_lo)) / 4.0
    counts = np.maximum(1, np.ceil((bb_hi - bb_lo) / base - 1e-12).astype(int))
    queue = [(0, anchor) for anchor in np.ndindex(*counts)]
    rows = []
    while queue:
        level, anchor = queue.pop()
        side = base * 2.0 ** (-level)
        diam = side * np.sqrt(dim)
        lo = bb_lo + np.asarray(anchor) * side
        hi = lo + side
        center = (lo + hi) / 2.0
        delta = float(domain.boundary_distance_many(center[None, :])[0])
        if delta + diam / 2.0 <= 0.0:
            continue
        lower = _ref_lower_bound(domain, lo, hi, side, delta)
        if lower >= diam and delta <= 4.0 * diam:
            rows.append((level, tuple(map(int, anchor)), side, tuple(lo),
                         tuple(hi)))
        elif level < max_level:
            queue.extend((level + 1, tuple(2 * a + c
                                           for a, c in zip(anchor, child)))
                         for child in np.ndindex(*(2,) * dim))
    return sorted(rows, key=lambda r: r[:2])


def _ref_sandwich(decomp):
    bad = []
    for k, (side, lo, hi) in enumerate(zip(decomp.sides, decomp.lows,
                                           decomp.highs)):
        diam = side * np.sqrt(len(lo))
        pts = np.vstack([_ref_corners(lo, hi), ((lo + hi) / 2.0)[None, :]])
        dvals = decomp.domain.boundary_distance_many(pts)
        center_delta = float(dvals[-1])
        lower = _ref_lower_bound(decomp.domain, lo, hi, side, center_delta)
        if not (dvals.min() >= diam - 1e-12
                and lower >= diam - 1e-12
                and center_delta <= 4.0 * diam + 1e-12):
            bad.append(k)
    return bad


def _ref_adjacency(decomp):
    """Sorted neighbour lists under closed-cube touching, one cube at a time
    against every cube within reach of the largest side."""
    n = decomp.n_cubes
    centers, sides = decomp.centers, decomp.sides
    order = np.argsort(centers[:, 0], kind="stable")
    cx = centers[order, 0]
    tol = 1e-9 * decomp.base
    max_side = float(sides.max())
    adj = [[] for _ in range(n)]
    for i in order:
        reach = (sides[i] + max_side) / 2.0 + tol
        lo = np.searchsorted(cx, centers[i, 0] - reach)
        hi = np.searchsorted(cx, centers[i, 0] + reach)
        cand = order[lo:hi]
        cand = cand[cand > i]
        half = (sides[i] + sides[cand]) / 2.0 + tol
        gap = np.abs(centers[cand] - centers[i]) - half[:, None]
        for j in cand[np.all(gap <= 0.0, axis=1)]:
            adj[i].append(int(j))
            adj[int(j)].append(int(i))
    return [sorted(x) for x in adj]


def _csr_rows(adj):
    return [adj.indices[a:b].tolist()
            for a, b in zip(adj.indptr[:-1], adj.indptr[1:])]


def _ref_dijkstra(adj, sides, start, feasible, limit):
    """Min side-length-sum tree by a (cost, index) heap over dicts."""
    best = {start: sides[start]}
    parent = {start: -1}
    heap = [(best[start], start)]
    while heap:
        cost, node = heapq.heappop(heap)
        if cost > best.get(node, np.inf):
            continue
        for nxt in adj[node]:
            ncost = cost + sides[nxt]
            if (ncost <= limit + 1e-12 and ncost < best.get(nxt, np.inf)
                    and feasible(nxt)):
                best[nxt] = ncost
                parent[nxt] = node
                heapq.heappush(heap, (ncost, nxt))
    return best, parent


def _ref_walk_back(parent, node):
    path = []
    while node != -1:
        path.append(node)
        node = parent[node]
    path.reverse()
    return path


def _ref_central_index(decomp, path, eps):
    """Smallest valid central position from scalar long distances."""
    k = len(path)
    q, s = path[0], path[-1]
    sides = [float(decomp.sides[i]) for i in path]
    pref = [sides[j] >= eps * decomp.long_distance(q, path[j]) for j in range(k)]
    suff = [sides[j] >= eps * decomp.long_distance(path[j], s) for j in range(k)]
    pref_all = np.cumprod(pref).astype(bool)
    suff_all = np.cumprod(suff[::-1])[::-1].astype(bool)
    for j0 in range(k):
        if pref_all[j0] and suff_all[j0]:
            return j0
    return None


def _ref_validate_chain(decomp, chain):
    """The three admissibility clauses from scalar distances."""
    idx = chain.indices
    for a, b in zip(idx[:-1], idx[1:]):
        if decomp.set_distance(a, b) > 1e-9 * decomp.base:
            return False
    total = sum(float(decomp.sides[i]) for i in idx)
    if total > decomp.long_distance(idx[0], idx[-1]) / chain.epsilon + 1e-12:
        return False
    j0 = chain.j0
    eps = chain.epsilon
    q, s = idx[0], idx[-1]
    for j, c in enumerate(idx):
        side = float(decomp.sides[c])
        if j <= j0 and side < eps * decomp.long_distance(q, c) - 1e-12:
            return False
        if j >= j0 and side < eps * decomp.long_distance(c, s) - 1e-12:
            return False
    return True


def _ref_chain(decomp, adj, qi, si, eps):
    """The chain search with per-cube growth predicates (qi != si) over the
    neighbour lists ``adj``."""
    sides = decomp.sides.tolist()
    limit = decomp.long_distance(qi, si) / eps
    tol = 1e-12
    from_q, parent_q = _ref_dijkstra(
        adj, sides, qi,
        lambda p: sides[p] >= eps * decomp.long_distance(qi, p) - tol, limit)
    from_s, parent_s = _ref_dijkstra(
        adj, sides, si,
        lambda p: sides[p] >= eps * decomp.long_distance(p, si) - tol, limit)
    best_total, junction = np.inf, -1
    for node, cq in from_q.items():
        cs = from_s.get(node)
        if cs is None:
            continue
        total = cq + cs - sides[node]
        if total < best_total - tol or (abs(total - best_total) <= tol
                                        and node < junction):
            best_total, junction = total, node
    if junction < 0 or best_total > limit + tol:
        return None
    head = _ref_walk_back(parent_q, junction)
    tail = _ref_walk_back(parent_s, junction)
    path = head + tail[-2::-1]
    j0 = _ref_central_index(decomp, path, eps)
    if j0 is None:
        return None
    chain = wh.Chain(indices=path, epsilon=eps, j0=j0, length=best_total)
    return chain if _ref_validate_chain(decomp, chain) else None


def _ref_whitney_sum(decomp, a, b, max_sources):
    """The stratified sources and their chain-sum values, one source at a
    time over (n, d) rows of the cube bounds."""
    n = decomp.n_cubes
    sides, lows, highs = decomp.sides, decomp.lows, decomp.highs
    if n > max_sources:
        qs = np.unique(np.linspace(0, n - 1, max_sources).astype(int))
    else:
        qs = np.arange(n)
    powered = sides ** a
    values = []
    for q in qs:
        gaps = np.maximum(0.0, np.maximum(lows[q] - highs, lows - highs[q]))
        dist = np.sqrt(np.einsum("ij,ij->i", gaps, gaps))
        D = sides[q] + dist + sides
        values.append(float(sides[q] ** (b - a)
                            * float(np.sum(powered / D ** b))))
    return qs, values


def _ref_first_max(qs, values):
    sup, arg = 0.0, -1
    for q, val in zip(qs.tolist(), values):
        if val > sup:
            sup, arg = val, q
    return sup, arg


def _bits(rows):
    """(level, anchor, side, lo, hi) rows, floats as exact hex strings."""
    return [(level, anchor, float(side).hex(),
             tuple(float(v).hex() for v in lo),
             tuple(float(v).hex() for v in hi))
            for level, anchor, side, lo, hi in rows]


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
    assert _bits(_rows(decomp)) == _bits(_ref_decompose(domain, level))
    assert np.array_equal(decomp.centers, (decomp.lows + decomp.highs) / 2.0)
    assert wh.check_sandwich(decomp) == _ref_sandwich(decomp) == []


def test_sandwich_flags_injected_cubes_like_reference(annulus):
    decomp = wh.whitney_decompose(annulus, max_level=6)
    # too large for its distance: the cube [-0.5, -0.25] x [-0.25, 0] has
    # its centre in the annulus and its corner (-0.25, 0) in the hole
    too_big = (1, (2, 3))
    # near the middle radius 2/3, about 1/3 from the boundary > 4 diam
    too_far = (7, (426, 256))
    rows = _cubes(decomp)
    rows = rows[:10] + [too_big] + rows[10:] + [too_far]
    injected = _decomposition(annulus, rows, decomp.base, 7, decomp.bbox_lo,
                              decomp.bbox_hi)
    assert wh.check_sandwich(injected) == _ref_sandwich(injected) \
        == [10, len(rows) - 1]


def _mutations(chain):
    """The chain with a middle cube dropped, j0 moved by one, eps doubled."""
    idx, eps, j0, length = (chain.indices, chain.epsilon, chain.j0,
                            chain.length)
    out = [wh.Chain(idx, 2.0 * eps, j0, length)]
    out += [wh.Chain(idx, eps, j, length) for j in (j0 - 1, j0 + 1)
            if 0 <= j < len(idx)]
    if len(idx) > 2:
        mid = len(idx) // 2
        out.append(wh.Chain(idx[:mid] + idx[mid + 1:], eps, min(j0, mid - 1),
                            length))
    return out


@pytest.mark.parametrize("name,domain,level", _oracle_domains()
                         + [("annulus-8", geo.make_annulus(), 8)],
                         ids=[d[0] for d in _oracle_domains()] + ["annulus-8"])
def test_adjacency_matches_per_cube_reference(name, domain, level):
    decomp = wh.whitney_decompose(domain, max_level=level)
    adj = decomp.adjacency()
    assert adj.format == "csr" and adj.has_sorted_indices
    assert (adj != adj.T).nnz == 0
    assert _csr_rows(adj) == _ref_adjacency(decomp)
    assert decomp.adjacency() is adj


def _thin_lens():
    # near-tangent balls: base 0.995, so side sums round in the last bit
    return geo.DomainSpec((geo.Ball((-0.99, 0.0), 1.0),
                           geo.Ball((0.99, 0.0), 1.0)))


def _chain_cases():
    clip = [(name, geo.clip_ball(geo.make_dumbbell(name), (0.0, 0.0), 8.0))
            for name in ("straight", "curved")]
    return ([("annulus", geo.make_annulus(), 20, (0.05, 0.3), 20)]
            + [(name, dom, 20, (0.05, 0.2), 10) for name, dom in clip]
            + [("thin-lens", _thin_lens(), 30, (0.2,), 10)])


def test_chains_match_per_cube_reference():
    for name, domain, n_pairs, epsilons, min_found in _chain_cases():
        decomp = wh.whitney_decompose(domain, max_level=7)
        adj = _ref_adjacency(decomp)
        rng = np.random.default_rng(np.random.SeedSequence([20, 0xC4A]))
        found = 0
        verdicts = set()
        for _ in range(n_pairs):
            qi, si = (int(v) for v in rng.integers(0, decomp.n_cubes, size=2))
            for eps in epsilons:
                got = wh.find_admissible_chain(decomp, qi, si, eps)
                ref = _ref_chain(decomp, adj, qi, si, eps)
                assert (got is None) == (ref is None), (name, qi, si, eps)
                if got is None:
                    continue
                found += 1
                assert (got.indices, got.j0, got.length.hex()) == \
                    (ref.indices, ref.j0, ref.length.hex()), (name, qi, si)
                for chain in [got] + _mutations(got):
                    assert wh._central_index(decomp, chain.indices,
                                             chain.epsilon) == \
                        _ref_central_index(decomp, chain.indices,
                                           chain.epsilon)
                    verdict = wh.validate_chain(decomp, chain)
                    assert verdict is _ref_validate_chain(decomp, chain)
                    verdicts.add(verdict)
        assert found >= min_found, name
        # the mutations reach both verdicts, so the comparison can tell
        # them apart
        assert verdicts == {True, False}, name


def test_dump_csv_writes_plain_floats(tmp_path, annulus_decomp):
    path = tmp_path / "cubes.csv"
    annulus_decomp.dump_csv(path)
    header, *rows = path.read_text().splitlines()
    assert header == "level,side,lo0,lo1,hi0,hi1"
    assert len(rows) == annulus_decomp.n_cubes
    for row, (level, _, side, lo, hi) in zip(rows, _rows(annulus_decomp)):
        got_level, *values = row.split(",")
        assert int(got_level) == level
        assert [float(v) for v in values] == [side, *lo, *hi]


def test_1d_dyadic_construction():
    decomp = wh.whitney_decompose(Interval1D(), max_level=6)
    ivals = sorted(zip(decomp.lows[:, 0].tolist(),
                       decomp.highs[:, 0].tolist()))
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


def _with_ancestor(decomp, k, up):
    """The rows of decomp plus the ancestor ``up`` levels above cube k."""
    level = int(decomp.levels[k]) - up
    anchor = tuple(int(v) // 2 ** up for v in decomp.anchors[k])
    return _cubes(decomp) + [(level, anchor)]


def test_disjoint_interiors_false_branches(unit_square):
    decomp = wh.whitney_decompose(unit_square, max_level=5)
    assert wh.disjoint_interiors(decomp)
    rows = _cubes(decomp)
    k = int(np.flatnonzero(decomp.levels >= 3)[0])
    cases = {"duplicate": rows[:k + 1] + [rows[k]] + rows[k + 1:],
             "parent": _with_ancestor(decomp, k, 1),
             "grandparent": _with_ancestor(decomp, k, 2),
             "ancestor of the last": _with_ancestor(decomp, -1, 3)}
    for name, case in cases.items():
        bad = _decomposition(unit_square, case, decomp.base, 5,
                             decomp.bbox_lo, decomp.bbox_hi)
        assert not wh.disjoint_interiors(bad), name
    # a coarse cube that contains none of the others keeps the verdict
    lone = (0, (7, 7))
    assert wh.disjoint_interiors(_decomposition(
        unit_square, rows + [lone], decomp.base, 5, decomp.bbox_lo,
        decomp.bbox_hi))


def test_long_distance_values(annulus_decomp):
    sides = annulus_decomp.sides
    assert annulus_decomp.long_distance(0, 0) == pytest.approx(2 * sides[0])
    # touching equal cubes: distance 0, so long distance is the two sides
    adj = _csr_rows(annulus_decomp.adjacency())
    i = next(k for k in range(annulus_decomp.n_cubes) if adj[k])
    j = next(j for j in adj[i] if sides[j] == sides[i])
    assert annulus_decomp.long_distance(i, j) == pytest.approx(2 * sides[i])


def test_long_distance_separated_unit_cubes():
    # two unit-side cubes three apart: 1 + 3 + 1 = 5
    decomp = _decomposition(None, [(0, (0, 0)), (0, (4, 0))], 1.0, 0, (0, 0),
                            (5, 1))
    assert decomp.long_distance(0, 1) == pytest.approx(5.0)


def test_validate_chain_length_clause_like_reference():
    # three touching unit cubes a, b, c; a zig-zag a b a b a b c keeps every
    # growth clause at j0 = 5 (long distances 2 there), so only its length
    # 7 against D(a, c) / eps = 3 / eps decides
    decomp = _decomposition(None, [(0, (k, 0)) for k in range(3)], 1.0, 0,
                            (0, 0), (3, 1))
    for eps, ok in ((0.4, True), (0.45, False)):
        chain = wh.Chain([0, 1, 0, 1, 0, 1, 2], eps, 5, 7.0)
        assert wh.validate_chain(decomp, chain) is ok
        assert _ref_validate_chain(decomp, chain) is ok


def test_two_cube_chain_small_epsilon(annulus_decomp):
    adj = _csr_rows(annulus_decomp.adjacency())
    i = next(k for k in range(annulus_decomp.n_cubes) if adj[k])
    sides = annulus_decomp.sides
    j = next(j for j in adj[i] if sides[j] == sides[i])
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
        rev = wh.Chain(indices=chain.indices[::-1], epsilon=chain.epsilon,
                       j0=len(chain.indices) - 1 - chain.j0,
                       length=chain.length)
        assert rev.indices[0] == si and rev.indices[-1] == qi
        assert wh.validate_chain(annulus_decomp, rev)


def test_thin_glue_chain_fails():
    # the lens is too thin for comparably-sized cubes
    decomp = wh.whitney_decompose(_thin_lens(), max_level=7)
    cl = int(np.argmin(decomp.centers[:, 0]))
    cr = int(np.argmax(decomp.centers[:, 0]))
    assert wh.find_admissible_chain(decomp, cl, cr, 0.2) is None


def test_whitney_sum_preconditions(monkeypatch, annulus_decomp):
    with pytest.raises(ValueError):
        wh.verify_whitney_sum(annulus_decomp, 2.0, 2.0)
    with pytest.raises(ValueError):
        wh.verify_whitney_sum(annulus_decomp, 0.5, 3.0)
    monkeypatch.setattr(wh, "MAX_SOURCES", 5)
    sup, arg = wh.verify_whitney_sum(annulus_decomp, 2.0, 3.0)
    assert sup > 0.0 and arg >= 0


def _sum_cases():
    straight = geo.clip_ball(geo.make_dumbbell("straight"), (0.0, 0.0), 8.0)
    curved = geo.clip_ball(geo.make_dumbbell("curved"), (0.0, 0.0), 8.0)
    domains = [("square", geo.make_box(1, 1)), ("annulus", geo.make_annulus()),
               ("straight", straight), ("curved", curved)]
    # 257 sources leave a last block shorter than CHUNK // n at every n here
    cases = [(f"{name}-{level}", dom, level, 257)
             for name, dom in domains for level in (5, 6, 7)]
    return cases + [("square-5-every", geo.make_box(1, 1), 5, "n"),
                    ("interval-8-every", Interval1D(), 8, 4000)]


@pytest.mark.parametrize("name,domain,level,sources", _sum_cases(),
                         ids=[c[0] for c in _sum_cases()])
def test_whitney_sum_matches_per_source_reference(monkeypatch, name, domain,
                                                  level, sources):
    decomp = wh.whitney_decompose(domain, max_level=level)
    n = decomp.n_cubes
    max_sources = n if sources == "n" else sources
    monkeypatch.setattr(wh, "MAX_SOURCES", max_sources)
    rows = max(1, wh.CHUNK // n)
    # b = 2 takes numpy's square for D ** b (a = 1 needs d = 1); at
    # (1.25, 2.9) numpy's array power differs from the scalar
    # side(Q)^(b-a) in the last bit for some sources
    exponents = [(2.0, 3.0), (1.5, 2.0), (1.25, 2.9)]
    if decomp.dim == 1:
        exponents.append((1.0, 2.0))
    for a, b in exponents:
        qs, ref = _ref_whitney_sum(decomp, a, b, max_sources)
        if sources == 257:
            assert len(qs) == 257 < n and len(qs) % rows != 0
        else:
            assert len(qs) == n <= max_sources
        got = wh._whitney_sum_values(decomp, a, b, qs)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in ref]
        sup, arg = wh.verify_whitney_sum(decomp, a, b)
        assert type(sup) is float and type(arg) is int
        ref_sup, ref_arg = _ref_first_max(qs, ref)
        assert (sup.hex(), arg) == (ref_sup.hex(), ref_arg)


def _sum_exponents(decomp):
    return [(2.0, 3.0), (1.5, 2.0), (1.25, 2.9)] + (
        [(1.0, 2.0)] if decomp.dim == 1 else [])


def _sources(decomp, max_sources):
    n = decomp.n_cubes
    if max_sources == "n" or n <= max_sources:
        return np.arange(n)
    return np.unique(np.linspace(0, n - 1, max_sources).astype(int))


@pytest.mark.parametrize("name,domain,level,sources", _sum_cases(),
                         ids=[c[0] for c in _sum_cases()])
def test_whitney_screen_within_its_bound(name, domain, level, sources):
    # the screen's proven bound is 55 float32 roundoffs in 2-D at b = 3,
    # below _SCREEN_ERR / 16 = 64; measured errors are at most 5.  A
    # non-integral b is not screened
    decomp = wh.whitney_decompose(domain, max_level=level)
    qs = _sources(decomp, sources)
    for a, b in _sum_exponents(decomp):
        screen = wh._screen_values(decomp, a, b, qs)
        if b == 2.9:
            assert screen is None
            continue
        exact = wh._whitney_sum_values(decomp, a, b, qs)
        assert screen.dtype == np.float64 and screen.shape == exact.shape
        assert np.all(np.abs(screen - exact) <= wh._SCREEN_ERR / 16 * exact)


def _counting_exact_rows(monkeypatch):
    """Wrap _whitney_sum_values; the list gets len(qs) per call."""
    counts = []
    exact = wh._whitney_sum_values

    def counted(decomp, a, b, qs):
        counts.append(len(qs))
        return exact(decomp, a, b, qs)

    monkeypatch.setattr(wh, "_whitney_sum_values", counted)
    return counts


def test_whitney_screen_leaves_few_exact_rows(monkeypatch, annulus_decomp):
    qs = _sources(annulus_decomp, wh.MAX_SOURCES)
    exact = wh._whitney_sum_values(annulus_decomp, 2.0, 3.0, qs)
    counts = _counting_exact_rows(monkeypatch)
    sup, arg = wh.verify_whitney_sum(annulus_decomp, 2.0, 3.0)
    assert len(qs) == 4000 and len(counts) == 1
    assert 1 <= counts[0] < 0.01 * len(qs)
    best = int(np.argmax(exact))
    assert (sup.hex(), arg) == (float(exact[best]).hex(), int(qs[best]))


def test_whitney_sum_uncertified_range_takes_every_exact_row(monkeypatch):
    # den^40 leaves float32's range, and b = 40 exceeds the bound's margin
    decomp = wh.whitney_decompose(geo.make_annulus(), max_level=5)
    monkeypatch.setattr(wh, "MAX_SOURCES", 257)
    qs, ref = _ref_whitney_sum(decomp, 2.0, 40.0, 257)
    assert wh._screen_values(decomp, 2.0, 40.0, qs) is None
    counts = _counting_exact_rows(monkeypatch)
    sup, arg = wh.verify_whitney_sum(decomp, 2.0, 40.0)
    assert counts == [len(qs)] == [257]
    ref_sup, ref_arg = _ref_first_max(qs, ref)
    assert (sup.hex(), arg) == (ref_sup.hex(), ref_arg)


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
    rep = wh.audit_visible_paths(annulus, annulus_decomp, n_pairs=20, seed=1)
    assert rep.n_pairs == 20
    assert rep.ok
    assert rep.max_path_len <= 8


def test_path_audit_convex_vacuous(unit_square):
    decomp = wh.whitney_decompose(unit_square, max_level=7)
    rep = wh.audit_visible_paths(unit_square, decomp, n_pairs=10, seed=1)
    assert rep.n_pairs == 0      # no non-visible pairs exist
    assert rep.ok


def test_path_audit_straight_dumbbell(straight_dumbbell):
    dom = geo.clip_ball(straight_dumbbell, (0.0, 0.0), 8.0)
    decomp = wh.whitney_decompose(dom, max_level=6)
    rep = wh.audit_visible_paths(dom, decomp, n_pairs=15, seed=3)
    assert rep.ok, f"found {rep.found}/{rep.n_pairs}"
