import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from visform import forms, geometry as geo, kernels as kn, mesh, spectral
from conftest import brute_visibility_pairs, two_cell_grid


@pytest.fixture(scope="module")
def const_kernel():
    return kn.KernelSpec("constant")


@pytest.fixture(scope="module")
def two_cells(const_kernel):
    grid = two_cell_grid()
    pairs = mesh.visibility_pairs(grid)
    return grid, pairs


# ---------------------------------------------------------------------------
# assembly and plain energies
# ---------------------------------------------------------------------------

def test_two_cell_censored_energy(two_cells, const_kernel):
    grid, pairs = two_cells
    form = forms.assemble(grid, pairs, const_kernel, "cen", p=2)
    # centers 0.5/1.5 distance 1, unit measures: 2 * k(1) * |1|^2 = 2
    assert forms.energy(form, [0.0, 1.0]) == pytest.approx(2.0)


def test_two_cell_cubic_energy(two_cells, const_kernel):
    grid, pairs = two_cells
    form = forms.assemble(grid, pairs, const_kernel, "cen", p=3)
    assert forms.energy(form, [0.0, 2.0]) == pytest.approx(16.0)


def test_convex_vis_equals_cen(two_cells, const_kernel):
    grid, pairs = two_cells
    vis = forms.assemble(grid, pairs, const_kernel, "vis", p=2)
    cen = forms.assemble(grid, pairs, const_kernel, "cen", p=2)
    assert np.array_equal(vis.pair_i, cen.pair_i)
    assert np.array_equal(vis.weight, cen.weight)
    assert forms.energy(vis, [0.0, 1.0]) == forms.energy(cen, [0.0, 1.0])


def test_constant_profile_is_zero_energy(two_cells, const_kernel):
    grid, pairs = two_cells
    for mode in ("vis", "cen", "ball"):
        form = forms.assemble(grid, pairs, const_kernel, mode, p=2)
        assert forms.energy(form, [5.0, 5.0]) == 0.0


def test_annulus_vis_strictly_smaller(annulus_grid):
    pairs = mesh.visibility_pairs(annulus_grid)
    kernel = kn.KernelSpec("power", s=0.5, p=2)
    vis = forms.assemble(annulus_grid, pairs, kernel, "vis")
    cen = forms.assemble(annulus_grid, pairs, kernel, "cen")
    assert vis.n_pairs < cen.n_pairs
    rng = np.random.default_rng(2)
    for _ in range(100):
        u = rng.standard_normal(annulus_grid.n_cells)
        assert forms.energy(vis, u) <= forms.energy(cen, u)


def test_ordering_chain_pair_inclusion(annulus_grid):
    pairs = mesh.visibility_pairs(annulus_grid)
    kernel = kn.KernelSpec("power", s=0.5, p=2)
    ops = {m: forms.assemble(annulus_grid, pairs, kernel, m)
           for m in ("ball", "vis", "cen")}
    key = lambda f: set(zip(f.pair_i.tolist(), f.pair_j.tolist()))
    assert key(ops["ball"]) <= key(ops["vis"]) <= key(ops["cen"])


def test_homogeneity_and_translation(annulus_grid):
    pairs = mesh.visibility_pairs(annulus_grid)
    form = forms.assemble(annulus_grid, pairs,
                          kn.KernelSpec("power", s=0.5, p=2), "vis")
    rng = np.random.default_rng(3)
    u = rng.standard_normal(annulus_grid.n_cells)
    for p in (1.0, 2.0, 3.0):
        e = forms.energy(form, u, p)
        assert forms.energy(form, 3.0 * u, p) == pytest.approx(3.0 ** p * e)
        assert forms.energy(form, u + 7.5, p) == pytest.approx(e)


def test_local_form_energy_by_hand(unit_square):
    grid = mesh.build_grid(unit_square, (0.5, 0.5), 1.0, 0.5)
    form = forms.assemble(grid, None, None, "local", p=2)
    # values laid out on the 2x2 lattice: u = x-index
    u = grid.ix - grid.ix.min()
    # two horizontal edges with (du/h)^2 = 4, measure 0.25 each
    assert forms.energy(form, u.astype(float)) == pytest.approx(2.0)
    assert forms.energy(form, np.ones(4)) == 0.0


def _dict_neighbors(grid):
    """Right and upper lattice neighbours from a dict of lattice indices,
    one cell at a time."""
    key = {(int(a), int(b)): k
           for k, (a, b) in enumerate(zip(grid.ix, grid.iy))}
    right = np.full(grid.n_cells, -1, dtype=np.int64)
    up = np.full(grid.n_cells, -1, dtype=np.int64)
    for k in range(grid.n_cells):
        right[k] = key.get((int(grid.ix[k]) + 1, int(grid.iy[k])), -1)
        up[k] = key.get((int(grid.ix[k]), int(grid.iy[k]) + 1), -1)
    return right, up


@pytest.mark.parametrize("domain,x0,R,h", [
    (geo.make_box(1.0, 1.0), (0.5, 0.5), 1.0, 1.0 / 16.0),
    (geo.make_dumbbell("straight"), (0.0, 0.0), 6.0, 0.5),
    (geo.make_dumbbell("curved"), (0.0, 0.0), 5.0, 0.4),
    (geo.make_annulus(), (0.0, 0.0), 1.0, 1.0 / 12.0)])
def test_lattice_neighbors_match_dict_lookup(domain, x0, R, h):
    """The local stencil's neighbours from the lattice-index table are those
    of a dict lookup per cell, holes and edges included."""
    grid = mesh.build_grid(domain, x0, R, h)
    right, up = forms._lattice_neighbors(grid)
    want_right, want_up = _dict_neighbors(grid)
    assert np.array_equal(right, want_right) and np.array_equal(up, want_up)
    assert (right < 0).any() and (right >= 0).any()


def test_ball_mode_requires_distances_and_validates_mode(two_cells, const_kernel):
    grid, pairs = two_cells
    with pytest.raises(ValueError):
        forms.assemble(grid, pairs, const_kernel, "medieval")
    with pytest.raises(ValueError):
        forms.assemble(grid, None, const_kernel, "cen")


# ---------------------------------------------------------------------------
# lazy forms: streamed evaluation
# ---------------------------------------------------------------------------

def test_sparse_matches_dense_indicator(annulus_grid):
    kernel = kn.KernelSpec("power", s=0.5, p=2)
    pairs = mesh.visibility_pairs(annulus_grid)
    u = (annulus_grid.centers[:, 0] > 0.5).astype(float)
    for mode in ("vis", "cen", "ball"):
        dense = forms.energy(forms.assemble(annulus_grid, pairs, kernel, mode), u)
        streamed = forms.energy(forms.lazy_form(annulus_grid, kernel, mode), u)
        assert streamed == pytest.approx(dense, rel=1e-12)


def test_grouped_energy_matches_dense(annulus_grid):
    kernel = kn.KernelSpec("power", s=0.5, p=2)
    pairs = mesh.visibility_pairs(annulus_grid)
    u = np.where(annulus_grid.centers[:, 1] > 0, 1.0,
                 np.where(annulus_grid.centers[:, 0] > 0, -1.0, 0.25))
    for mode in ("vis", "cen", "ball"):
        dense = forms.energy(forms.assemble(annulus_grid, pairs, kernel, mode), u)
        streamed = forms.energy(forms.lazy_form(annulus_grid, kernel, mode), u)
        assert streamed == pytest.approx(dense, rel=1e-12)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="assemble"):
        forms.energy(forms.lazy_form(annulus_grid, kernel, "cen"),
                     rng.standard_normal(annulus_grid.n_cells))


_DOMAINS = {"annulus": geo.make_annulus(),
            "straight": geo.make_dumbbell("straight"),
            "curved": geo.make_dumbbell("curved")}


@st.composite
def small_grids(draw):
    name = draw(st.sampled_from(sorted(_DOMAINS)))
    domain = _DOMAINS[name]
    if name == "annulus":
        x0, R = (0.0, 0.0), 1.0
        h = 1.0 / draw(st.integers(4, 9))
    else:
        x0 = domain.dumbbell.x0
        R = draw(st.floats(2.5, 4.5))
        h = draw(st.sampled_from([0.5, 0.4, 1.0 / 3.0]))
    return mesh.build_grid(domain, x0, R, h)


@settings(max_examples=15, deadline=None)
@given(grid=small_grids(),
       values=st.lists(st.integers(-28, 28).map(lambda k: k / 7.0),
                       min_size=2, max_size=5, unique=True),
       seed=st.integers(0, 2 ** 32 - 1),
       s=st.sampled_from([0.25, 0.5, 0.75]))
def test_lazy_energy_matches_assembled(grid, values, seed, s):
    """energy(lazy_form) equals energy(assemble) on random few-valued
    profiles over random small grids, in every nonlocal mode."""
    kernel = kn.KernelSpec("power", s=s, p=2)
    rng = np.random.default_rng(seed)
    u = np.asarray(values)[rng.integers(0, len(values), grid.n_cells)]
    pairs = brute_visibility_pairs(grid)
    for mode in ("vis", "cen", "ball"):
        dense = forms.energy(forms.assemble(grid, pairs, kernel, mode), u)
        lazy = forms.energy(forms.lazy_form(grid, kernel, mode), u)
        assert lazy == pytest.approx(dense, rel=1e-12, abs=0.0)


def _reflection(grid, axis):
    """Cell permutation of x_axis -> -x_axis about x0: lattice ix -> -ix-1."""
    cells = {(int(a), int(b)): k
             for k, (a, b) in enumerate(zip(grid.ix, grid.iy))}
    lattice = np.stack([grid.ix, grid.iy], axis=1)
    lattice[:, axis] = -lattice[:, axis] - 1
    return np.array([cells[(int(a), int(b))] for a, b in lattice])


@settings(max_examples=12, deadline=None)
@given(R=st.sampled_from([2.5, 3.5, 4.5]),
       h=st.sampled_from([0.5, 0.4, 1.0 / 3.0, 0.25]),
       axis=st.sampled_from([0, 1]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_straight_dumbbell_reflection_invariance(straight_dumbbell, R, h,
                                                 axis, seed):
    """x1 -> -x1 and x2 -> -x2 map the straight dumbbell's visibility masks
    onto each other exactly and keep lazy vis energies."""
    grid = mesh.build_grid(straight_dumbbell, (0.0, 0.0), R, h)
    perm = _reflection(grid, axis)
    pairs = mesh.visibility_pairs(grid)
    vis = np.zeros((grid.n_cells, grid.n_cells), dtype=bool)
    vis[pairs.i, pairs.j] = vis[pairs.j, pairs.i] = pairs.visible
    assert np.array_equal(vis[np.ix_(perm, perm)], vis)
    rng = np.random.default_rng(seed)
    u = rng.choice([-1.0, 0.0, 0.5, 1.0], grid.n_cells)
    form = forms.lazy_form(grid, kn.KernelSpec("power", s=0.25, p=2), "vis")
    assert forms.energy(form, u[perm]) == pytest.approx(
        forms.energy(form, u), rel=1e-12, abs=0.0)


def test_lazy_energy_across_block_boundaries(monkeypatch, annulus_grid):
    """Blocks of several rows, a partial last block and rows longer than a
    block give the assembled energies, and a repeat gives the same bits."""
    kernel = kn.KernelSpec("power", s=0.5, p=2)
    pairs = mesh.visibility_pairs(annulus_grid)
    x = annulus_grid.centers[:, 0]
    u = np.where(x > 0.5, 1.0, 0.0)
    u[:2] = 2.0                       # a group of two: several rows per block
    n_b = int(np.count_nonzero(u == 1.0))
    dense = {mode: forms.energy(forms.assemble(annulus_grid, pairs, kernel,
                                               mode), u)
             for mode in ("vis", "cen", "ball")}
    for block in (1, 7, n_b - 1, n_b + 1):
        monkeypatch.setattr(mesh, "PAIR_BLOCK", block)
        for mode in ("vis", "cen", "ball"):
            form = forms.lazy_form(annulus_grid, kernel, mode)
            cold = forms.energy(form, u)
            warm = forms.energy(form, u)
            assert cold == pytest.approx(dense[mode], rel=1e-12, abs=0.0)
            assert warm == cold


def _brute_energy(grid, kernel, u, p=2.0):
    """A lazy vis energy with every mask from segment_inside_many, in the
    streamed path's groups, blocks and pair order."""
    values, inverse = np.unique(u, return_inverse=True)
    groups = [np.flatnonzero(inverse == g) for g in range(values.size)]
    total = 0.0
    for a in range(values.size):
        for b in range(a + 1, values.size):
            A, B = groups[a], groups[b]
            cB, mB = grid.centers[B], grid.measures[B]
            rows = max(1, mesh.PAIR_BLOCK // B.size)
            part = 0.0
            for lo in range(0, A.size, rows):
                cA = grid.centers[A[lo:lo + rows]]
                dx = cB[None, :, 0] - cA[:, None, 0]
                dy = cB[None, :, 1] - cA[:, None, 1]
                r = np.sqrt(dx * dx + dy * dy).ravel()
                keep = grid.domain.segment_inside_many(
                    np.repeat(cA, B.size, axis=0), np.tile(cB, (len(cA), 1)))
                mass = np.outer(grid.measures[A[lo:lo + rows]], mB).ravel()
                r, mass = r[keep], mass[keep]
                if r.size:
                    mass *= kernel.k(r)
                    part += float(np.sum(mass))
            total += abs(values[a] - values[b]) ** p * part
    return float(2.0 * total)


#: relative tolerance of witness energies against sums over brute-force
#: masks: the largest difference measured over the cases below is 4.0e-16
WITNESS_RTOL = 4e-15


@pytest.mark.parametrize("variant", ["straight", "curved"])
def test_witness_energy_equals_brute_force_masks(monkeypatch, variant):
    """Witness energies with the portal rule match the sums over
    brute-force masks to WITNESS_RTOL at R <= 16, and the energies on a
    second grid built apart from equal inputs are equal (==).  The sums of
    the runs to the bells come from prefix tables and per-source sums, so
    they differ by rounding."""
    portal_calls = []
    original = geo.DomainSpec.portal_runs

    def counted(self, X, bell):
        runs = original(self, X, bell)
        portal_calls.append(runs is not None)
        return runs

    monkeypatch.setattr(geo.DomainSpec, "portal_runs", counted)
    domain = geo.make_dumbbell(variant)
    for R, h in ((4.0, 0.5), (8.0, 0.5), (16.0, 0.5), (10.0, 0.3)):
        grid = mesh.build_grid(domain, (0.0, 0.0), R, h)
        twin = mesh.build_grid(geo.parse_domain(f"{variant}-dumbbell"),
                               (0.0, 0.0), R, h)
        u = spectral.witness_step_function(grid)
        for s in (0.25, 0.75):
            kernel = kn.KernelSpec("power", s=s, p=2)
            lazy = forms.energy(forms.lazy_form(grid, kernel, "vis"), u)
            assert lazy == pytest.approx(_brute_energy(grid, kernel, u),
                                         rel=WITNESS_RTOL, abs=0.0)
            assert forms.energy(forms.lazy_form(twin, kernel, "vis"),
                                spectral.witness_step_function(twin)) == lazy
    assert portal_calls and all(portal_calls)


def _witness_slot_tests(monkeypatch, variant, R, h):
    """Segments that a witness energy sends to the slot test."""
    count = [0]
    original = geo.DomainSpec.segment_inside_many

    def counted(self, X, Y):
        count[0] += len(X)
        return original(self, X, Y)

    grid = mesh.build_grid(geo.make_dumbbell(variant), (0.0, 0.0), R, h)
    form = forms.lazy_form(grid, kn.KernelSpec("power", s=0.25, p=2), "vis")
    with monkeypatch.context() as m:
        m.setattr(geo.DomainSpec, "segment_inside_many", counted)
        forms.energy(form, spectral.witness_step_function(grid))
    return count[0]


def test_witness_slot_test_budget(monkeypatch):
    """Witness energies send few segments to the slot test.  The curved
    R = 18, h = 0.5 energy made 18,476 when every pair between a bell and
    the corridor that crossed a mouth took one; with the tube's chords
    decided at the upper edge's vertex it makes 494.  At h = 0.4, R = 9,
    where the corridor cells on the mouths share the bells' values, the
    straight energy makes 3,044 (the bell-to-bell band runs; the slab's
    cells see each other untested) and the curved one 1,151 (11,497
    before)."""
    assert _witness_slot_tests(monkeypatch, "curved", 18.0, 0.5) <= 1000
    assert _witness_slot_tests(monkeypatch, "straight", 9.0, 0.4) <= 4000
    assert _witness_slot_tests(monkeypatch, "curved", 9.0, 0.4) <= 1500


@pytest.mark.parametrize("variant", ["straight", "curved"])
@pytest.mark.parametrize("h", [0.5, 0.4, 0.3, 0.25])
def test_convex_pieces_take_no_slot_test(monkeypatch, variant, h):
    """Two cells of one bell, or of the straight dumbbell's slab, lie in one
    convex piece of the domain: the slot test calls every such pair
    visible, and a lazy vis energy of a random profile sends none of them
    to it, yet equals the assembled energy."""
    grid = mesh.build_grid(geo.make_dumbbell(variant), (0.0, 0.0), 5.0, h)
    pieces = [geo.TAG_MINUS, geo.TAG_PLUS]
    if variant == "straight":
        pieces.append(geo.TAG_STAR)
    for tag in pieces:
        C = grid.centers[grid.tags == tag]
        i, j = np.triu_indices(C.shape[0], k=1)
        assert i.size and grid.domain.segment_inside_many(C[i], C[j]).all()
    kernel = kn.KernelSpec("power", s=0.25, p=2)
    u = np.random.default_rng(0).choice([0.0, 0.5, 1.0], grid.n_cells)
    dense = forms.energy(forms.assemble(grid, brute_visibility_pairs(grid),
                                        kernel, "vis"), u)
    tested = []
    original = geo.DomainSpec.segment_inside_many

    def recorded(self, X, Y):
        tested.append((self.region_tags(X), self.region_tags(Y)))
        return original(self, X, Y)

    with monkeypatch.context() as m:
        m.setattr(geo.DomainSpec, "segment_inside_many", recorded)
        lazy = forms.energy(forms.lazy_form(grid, kernel, "vis"), u)
    assert lazy == pytest.approx(dense, rel=1e-12, abs=0.0)
    s, t = (np.concatenate(v) for v in zip(*tested))
    assert s.size
    assert not np.any((s == t) & np.isin(s, pieces))


def test_segment_masks_share_calls(monkeypatch, annulus_grid):
    """The segment tests of consecutive blocks share calls of at most
    PAIR_BLOCK segments, a larger block has a call of its own, and each
    block's mask equals a segment test of that block alone."""
    monkeypatch.setattr(mesh, "PAIR_BLOCK", 64)
    cells = np.arange(annulus_grid.n_cells)
    assert cells.size > 120
    jobs = [(0, cells[:10], cells[10:13]), (1, cells[20:24], cells[30:35]),
            (2, cells[40:43], cells[:100]), (3, cells[50:52], cells[60:65]),
            (4, cells[70:79], cells[80:86])]
    blocks = forms._row_blocks(jobs)
    assert [a.size * B.size for _, a, B in blocks] == \
        [30, 20, 100, 100, 100, 10, 54]
    calls = []
    original = geo.DomainSpec.segment_inside_many

    def counted(self, X, Y):
        calls.append(len(X))
        return original(self, X, Y)

    with monkeypatch.context() as m:
        m.setattr(geo.DomainSpec, "segment_inside_many", counted)
        masks = list(forms._segment_masks(annulus_grid, blocks))
    assert calls == [50, 100, 100, 100, 64]
    assert len(masks) == len(blocks)
    assert not np.concatenate(masks).all()
    for (_, a, B), mask in zip(blocks, masks):
        want, _ = _slot_pairs(annulus_grid, a, B)
        assert np.array_equal(mask, want.ravel())


def _slot_pairs(grid, S, B):
    """Mask of the visible pairs S x B and their distances, every pair by a
    slot test."""
    X = np.repeat(grid.centers[S], B.size, axis=0)
    Y = np.tile(grid.centers[B], (S.size, 1))
    d = Y - X
    return (grid.domain.segment_inside_many(X, Y).reshape(S.size, B.size),
            np.hypot(d[:, 0], d[:, 1]).reshape(S.size, B.size))


#: relative tolerance of corridor-to-bell sums against sums over slot-tested
#: pairs: the largest difference measured over the cases below is 8.4e-15
#: per corridor cell and 7.2e-15 per group pair, both on the tube at
#: h = 0.3, whose terms all come from pairs; a centre difference carries
#: the rounding of both centres, which the kernel's power amplifies
CORRIDOR_RTOL = 2e-14


@pytest.mark.parametrize("variant", ["straight", "curved"])
@pytest.mark.parametrize("h", [0.5, 0.4, 0.3, 0.25])
def test_corridor_run_sums_match_slot_tests(monkeypatch, variant, h):
    """Per corridor cell, the weight sum over its visible pairs with either
    bell, from the runs of one call for all corridor cells, matches a slot
    test of every pair to CORRIDOR_RTOL, in one block and in blocks of one
    source.  A cell that sees nothing of a bell gets 0."""
    grid = mesh.build_grid(geo.make_dumbbell(variant), (0.0, 0.0), 9.0, h)
    S = np.flatnonzero(grid.tags == geo.TAG_STAR)
    for s in (0.25, 0.75):
        kernel = kn.KernelSpec("power", s=s, p=2)
        table = forms._offset_table(grid, kernel)
        for tag in (geo.TAG_MINUS, geo.TAG_PLUS):
            B = np.flatnonzero(grid.tags == tag)
            visible, r = _slot_pairs(grid, S, B)
            want = np.sum(np.where(visible, kernel.k(r), 0.0), axis=1) * h ** 4
            assert np.any(want > 0.0)
            bell = forms._bell_columns(grid, B)
            for block in (forms.RUN_BLOCK, B.size):
                monkeypatch.setattr(forms, "RUN_BLOCK", block)
                got = forms._run_sum(grid, kernel, S, B, bell, table, True)
                np.testing.assert_allclose(got, want, rtol=CORRIDOR_RTOL,
                                           atol=0.0)
            monkeypatch.undo()


@pytest.mark.parametrize("variant", ["straight", "curved"])
@pytest.mark.parametrize("h", [0.5, 0.4, 0.3, 0.25])
def test_screened_sums_equal_per_group_pair(monkeypatch, variant, h):
    """The witness profile's group pairs, summed in one call (bell parts by
    runs, corridor parts by the runs of one call, the corridor parts
    against each other in one block), equal (==) each group pair summed
    alone, and match a slot test of every pair to CORRIDOR_RTOL.  Blocks
    of a few rows and pairs match it too.  At h = 0.4 the bells' groups
    take the corridor cells on the mouths."""
    grid = mesh.build_grid(geo.make_dumbbell(variant), (0.0, 0.0), 9.0, h)
    u = spectral.witness_step_function(grid)
    values, inverse = np.unique(u, return_inverse=True)
    groups = [np.flatnonzero(inverse == g) for g in range(values.size)]
    pairs = [(a, b) for a in range(values.size)
             for b in range(a + 1, values.size)]
    for s in (0.25, 0.75):
        kernel = kn.KernelSpec("power", s=s, p=2)
        want = []
        for a, b in pairs:
            visible, r = _slot_pairs(grid, groups[a], groups[b])
            want.append(float(np.sum(kernel.k(r[visible]))) * h ** 4)
        got = forms._cross_weight_sums(grid, kernel, "vis", groups, pairs)
        assert got == pytest.approx(want, rel=CORRIDOR_RTOL, abs=0.0)
        assert got == [forms._cross_weight_sums(grid, kernel, "vis", groups,
                                                [pair])[0] for pair in pairs]
        with monkeypatch.context() as m:
            m.setattr(forms, "RUN_BLOCK", 5)
            m.setattr(mesh, "PAIR_BLOCK", 64)
            got = forms._cross_weight_sums(grid, kernel, "vis", groups, pairs)
        assert got == pytest.approx(want, rel=CORRIDOR_RTOL, abs=0.0)


#: relative tolerance of the bell-to-bell run sums against a pair-by-pair
#: sum: the largest difference measured over the cases below is 2.2e-16
RUN_SUM_RTOL = 1e-15


@pytest.mark.parametrize("variant,R,h", [
    ("straight", 8.0, 0.5), ("straight", 8.0, 0.25), ("straight", 10.0, 0.3),
    ("straight", 9.0, 0.4), ("curved", 9.0, 0.4)])
def test_run_sums_match_brute_force(monkeypatch, variant, R, h):
    """Bell-to-bell sums over the portal rule's runs match a sum over
    segment-tested pairs to RUN_SUM_RTOL, from either bell, in one block
    and in blocks of a few rows; at (9, 0.4) the tube's sum is its
    tangent pairs alone."""
    grid = mesh.build_grid(geo.make_dumbbell(variant), (0.0, 0.0), R, h)
    minus, plus = (np.flatnonzero(grid.tags == tag)
                   for tag in (geo.TAG_MINUS, geo.TAG_PLUS))
    for A, B in ((minus, plus), (plus, minus)):
        X = np.repeat(grid.centers[A], B.size, axis=0)
        Y = np.tile(grid.centers[B], (A.size, 1))
        d = (Y - X)[grid.domain.segment_inside_many(X, Y)]
        r = np.sqrt(np.sum(d * d, axis=1))
        for s in (0.25, 0.75):
            kernel = kn.KernelSpec("power", s=s, p=2)
            want = float(np.sum(kernel.k(r) * grid.h ** 4))
            assert want > 0.0
            with monkeypatch.context() as m:
                for block in (forms.RUN_BLOCK, 3 * B.size // 2):
                    m.setattr(forms, "RUN_BLOCK", block)
                    got = forms._cross_weight_sums(grid, kernel, "vis",
                                                   [A, B], [(0, 1)])[0]
                    assert got == pytest.approx(want, rel=RUN_SUM_RTOL,
                                                abs=0.0)


_BALL_GRIDS = {
    "straight": (geo.make_dumbbell("straight"), (0.0, 0.0), 5.0, 0.25),
    "curved": (geo.make_dumbbell("curved"), (0.0, 0.0), 5.0, 0.25),
    "annulus": (geo.make_annulus(), (0.0, 0.0), 1.0, 1.0 / 24.0),
    "box": (geo.make_box(2.0, 1.0), (1.0, 0.5), 2.0, 1.0 / 24.0)}


@pytest.mark.parametrize("name", sorted(_BALL_GRIDS))
def test_ball_mode_survivors_are_visible(name):
    """Ball mode keeps pairs with r < max(delta_i, delta_j) / 2 and tests no
    segment: each such segment lies in a ball inside D, so the slot test
    calls every one visible."""
    domain, x0, R, h = _BALL_GRIDS[name]
    grid = mesh.build_grid(domain, x0, R, h)
    delta = forms.boundary_distances(grid)
    ii, jj = np.triu_indices(grid.n_cells, k=1)
    d = grid.centers[jj] - grid.centers[ii]
    near = np.hypot(d[:, 0], d[:, 1]) < np.maximum(delta[ii], delta[jj]) / 2
    assert near.sum() > 1000
    assert domain.segment_inside_many(grid.centers[ii[near]],
                                      grid.centers[jj[near]]).all()


# ---------------------------------------------------------------------------
# the counterexample
# ---------------------------------------------------------------------------

def test_counterexample_frozen_values():
    # frozen against the dense-pair oracle (test below re-derives n=4)
    num, den, ratio = forms.counterexample_ratio(4)
    assert num == pytest.approx(0.023828125, rel=1e-12)
    assert den == pytest.approx(0.3433135642479575, rel=1e-9)
    assert ratio == pytest.approx(0.06940630223043033, rel=1e-9)
    num8, den8, ratio8 = forms.counterexample_ratio(8)
    assert num8 == pytest.approx(0.00595703125, rel=1e-12)
    assert den8 == pytest.approx(0.10283311670240652, rel=1e-9)
    # the numerator is exactly self-similar in n: num * n^2 is constant,
    # also at n whose strip line x1 + x2 = 1/n runs through cell centres
    # that rounding would otherwise let in (n = 5 gave 36 cells, not 28)
    assert num * 16 == pytest.approx(num8 * 64, rel=1e-12)
    for n in (3, 5, 6):
        num_n = forms.counterexample_ratio(n)[0]
        assert num_n * n * n == pytest.approx(num * 16, rel=1e-12)


def test_counterexample_matches_dense_oracle():
    # independent brute-force double sum on the n=4 grid
    n = 4
    h = 1.0 / (8 * n)
    grid = mesh.build_grid(geo.make_box(1, 1), (0.5, 0.5), 2.0, h)
    C, m = grid.centers, grid.measures
    u = (C[:, 0] + C[:, 1] < 1.0 / n).astype(float)
    ii, jj = np.triu_indices(grid.n_cells, k=1)
    r2 = np.sum((C[ii] - C[jj]) ** 2, axis=1)
    du2 = (u[ii] - u[jj]) ** 2
    den_oracle = 2.0 * np.sum(1.0 / r2 * m[ii] * m[jj] * du2)
    delta = np.minimum.reduce([C[:, 0], C[:, 1], 1 - C[:, 0], 1 - C[:, 1]])
    near = np.sqrt(r2) < np.maximum(delta[ii], delta[jj]) / 2.0
    num_oracle = 2.0 * np.sum((1.0 / r2 * m[ii] * m[jj] * du2)[near])
    num, den, _ = forms.counterexample_ratio(4)
    assert den == pytest.approx(den_oracle, rel=1e-12)
    assert num == pytest.approx(num_oracle, rel=1e-12)


def test_counterexample_ratio_decreases():
    ratios = [forms.counterexample_ratio(n)[2] for n in (4, 8, 16)]
    assert ratios[0] > ratios[1] > ratios[2]


def test_counterexample_preconditions():
    with pytest.raises(ValueError):
        forms.counterexample_ratio(1)
    with pytest.raises(ValueError):
        forms.counterexample_ratio(4, resolution_factor=4)
    with pytest.raises(ValueError, match="even"):
        forms.counterexample_ratio(3, resolution_factor=9)


# ---------------------------------------------------------------------------
# thread-count independence
# ---------------------------------------------------------------------------

_THREADED_ENERGIES = """
import numpy as np
from visform import forms, geometry as geo, kernels as kn, mesh, spectral
values = list(forms.counterexample_ratio(8))            # streamed ball form
dumbbell = geo.make_dumbbell("straight")
grid = mesh.build_grid(dumbbell, (0.0, 0.0), 6.0, 0.5)
form = forms.assemble(grid, mesh.visibility_pairs(grid),
                      kn.parse_kernel("power:s=0.25,p=2"), "vis")
values.append(forms.energy(form, np.tanh(grid.centers[:, 0])))
box = mesh.build_grid(geo.make_box(1, 1), (0.5, 0.5), 2.0, 1.0 / 128.0)
u = np.cos(3.0 * box.centers[:, 0]) + box.centers[:, 1] / 3.0
local = forms.assemble(box, None, None, "local")
values += [forms.energy(local, u), mesh.cell_mean(box, u),
           spectral.rayleigh_ratio(local, box, u)]
for variant in ("straight", "curved"):                   # matrix-free eigsh
    bells = mesh.build_grid(geo.make_dumbbell(variant), (0.0, 0.0), 16.0, 0.5)
    values.append(spectral.poincare_constant_l2(forms.lazy_form(
        bells, kn.parse_kernel("power:s=0.25,p=2"), "vis")))
print(repr(values))
"""


def test_energies_independent_of_blas_threads():
    # BLAS may split a long dot product between threads, which changes its
    # rounding; each sum here has over 10,000 terms, and ARPACK's Lanczos
    # steps call BLAS too
    src = str(Path(forms.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _THREADED_ENERGIES],
                             env=env, capture_output=True, text=True,
                             timeout=600, check=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
