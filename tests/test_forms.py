import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from visform import forms, geometry as geo, kernels as kn, mesh, spectral
from conftest import two_cell_grid


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
    pairs = mesh.visibility_pairs(grid)
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


@pytest.mark.parametrize("variant", ["straight", "curved"])
def test_witness_energy_equals_brute_force_masks(monkeypatch, variant):
    """Witness energies with the portal rule equal (==) the sums over
    brute-force masks, block for block, at R <= 16, and the energies on a
    second grid built apart from equal inputs."""
    portal_calls = []
    original = geo.DomainSpec.portal_pairs

    def counted(self, X, bell):
        pairs = original(self, X, bell)
        portal_calls.append(pairs is not None)
        return pairs

    monkeypatch.setattr(geo.DomainSpec, "portal_pairs", counted)
    domain = geo.make_dumbbell(variant)
    for R, h in ((4.0, 0.5), (8.0, 0.5), (16.0, 0.5), (10.0, 0.3)):
        grid = mesh.build_grid(domain, (0.0, 0.0), R, h)
        twin = mesh.build_grid(geo.parse_domain(f"{variant}-dumbbell"),
                               (0.0, 0.0), R, h)
        u = spectral.witness_step_function(grid)
        for s in (0.25, 0.75):
            kernel = kn.KernelSpec("power", s=s, p=2)
            lazy = forms.energy(forms.lazy_form(grid, kernel, "vis"), u)
            assert lazy == _brute_energy(grid, kernel, u)
            assert forms.energy(forms.lazy_form(twin, kernel, "vis"),
                                spectral.witness_step_function(twin)) == lazy
    assert portal_calls and all(portal_calls)


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
