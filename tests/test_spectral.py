import dataclasses

import numpy as np
import pytest
import scipy.linalg

from visform import forms, geometry as geo, kernels as kn, mesh, spectral
from conftest import brute_visibility_pairs, two_cell_grid


def _dense_quadratic(form):
    """Dense A = 2 (D - W) from an assembled form's pair list, the oracle
    for the matrix-free operator of ``spectral.quadratic_matrix``."""
    n = form.grid.n_cells
    i, j, c = form.pair_i, form.pair_j, 2.0 * form.weight
    A = np.bincount(i * n + j, -c, n * n).reshape(n, n)
    A += A.T
    # one bincount in pair order sums the diagonal as np.add.at would
    A.flat[::n + 1] += np.bincount(np.concatenate((i, j)),
                                   np.concatenate((c, c)), n)
    return A


@pytest.fixture(scope="module")
def two_cell_form():
    grid = two_cell_grid()
    pairs = mesh.visibility_pairs(grid)
    form = forms.assemble(grid, pairs, kn.KernelSpec("constant"), "cen", p=2)
    return grid, form


# ---------------------------------------------------------------------------
# the p = 2 constant
# ---------------------------------------------------------------------------

def test_neumann_square_benchmark():
    grid = mesh.build_grid(geo.make_box(1, 1), (0.5, 0.5), 1.0, 1.0 / 32.0)
    form = forms.assemble(grid, None, None, "local", p=2)
    cp = spectral.poincare_constant_l2(form, grid)
    assert cp == pytest.approx(1.0 / np.pi ** 2, rel=0.05)


def test_disconnected_graph_reports_inf():
    # two cells two lattice steps apart: the local stencil has no edge
    grid = dataclasses.replace(two_cell_grid(distance=2.0),
                               ix=np.array([0, 2]))
    form = forms.assemble(grid, None, None, "local", p=2)
    assert spectral.poincare_constant_l2(form, grid) == np.inf


def test_ball_mode_rejected(annulus_grid):
    pairs = mesh.visibility_pairs(annulus_grid)
    form = forms.assemble(annulus_grid, pairs,
                          kn.KernelSpec("power", s=0.5, p=2), "ball")
    with pytest.raises(ValueError):
        spectral.poincare_constant_l2(form, annulus_grid)


#: the refusal names the forms that have a p = 2 constant
ACCEPTED = "lazy vis form on a make_dumbbell grid"


def test_quadratic_matrix_refuses_lazy_form(annulus_grid):
    form = forms.lazy_form(annulus_grid, kn.KernelSpec("constant"), "cen")
    with pytest.raises(ValueError, match=ACCEPTED):
        spectral.quadratic_matrix(form)


def test_constant_refuses_assembled_vis_and_lazy_cen(straight_dumbbell):
    # the dumbbell grid has a matrix-free operator, but only for a lazy vis
    # form: an assembled form has no eigen path, nor has any cen form
    grid = mesh.build_grid(straight_dumbbell, (0.0, 0.0), 4.0, 0.5)
    kernel = kn.KernelSpec("power", s=0.25, p=2)
    assembled = forms.assemble(grid, mesh.visibility_pairs(grid), kernel,
                               "vis")
    for form in (assembled, forms.lazy_form(grid, kernel, "cen")):
        with pytest.raises(ValueError, match=ACCEPTED):
            spectral.poincare_constant_l2(form)


def test_quadratic_matrix_refuses_lazy_vis_form_off_dumbbells(annulus_grid):
    form = forms.lazy_form(annulus_grid, kn.KernelSpec("constant"), "vis")
    with pytest.raises(ValueError, match="make_dumbbell"):
        spectral.quadratic_matrix(form)


def test_vis_operator_refuses_vanishing_kernel(straight_dumbbell):
    grid = mesh.build_grid(straight_dumbbell, (0.0, 0.0), 4.0, 0.5)
    form = forms.lazy_form(grid, kn.KernelSpec("truncated", rho=1.0), "vis")
    with pytest.raises(ValueError, match="vanishes"):
        spectral.quadratic_matrix(form)


# ---------------------------------------------------------------------------
# the matrix-free vis operator against the dense pair-list matrix
# ---------------------------------------------------------------------------

#: (R, h) of the operator checks; the ids keep the names the cases had
#: when a third field, the cell subsample count (always 1), was part of them
OPERATOR_GRIDS = [(8.0, 0.5), (16.0, 0.5), (9.0, 0.4), (10.0, 0.3)]


@pytest.mark.parametrize("variant", ["straight", "curved"])
@pytest.mark.parametrize("R, h", OPERATOR_GRIDS,
                         ids=[f"{R}-{h}-1" for R, h in OPERATOR_GRIDS])
def test_vis_operator_matches_dense(variant, R, h):
    grid = mesh.build_grid(geo.make_dumbbell(variant), (0.0, 0.0), R, h)
    if h == 0.4:
        # corridor cells centred on the mouths x1 = +-1
        star = grid.centers[grid.tags == geo.TAG_STAR, 0]
        assert np.any(np.abs(star) == 1.0)
    kernel = kn.KernelSpec("power", s=0.25, p=2)
    A, connected = spectral.quadratic_matrix(
        forms.lazy_form(grid, kernel, "vis"))
    assert isinstance(A, spectral.VisOperator) and connected
    pairs = brute_visibility_pairs(grid)
    # the stored entries are the visible pairs outside the bells' cliques
    ti, tj = grid.tags[pairs.i], grid.tags[pairs.j]
    sparse = pairs.visible & ~((ti == tj) & np.isin(ti, (geo.TAG_MINUS,
                                                          geo.TAG_PLUS)))
    stored = A._sparse.tocoo()
    upper = stored.row < stored.col
    n = grid.n_cells
    assert np.array_equal(
        np.sort(stored.row[upper].astype(np.int64) * n + stored.col[upper]),
        pairs.i[sparse].astype(np.int64) * n + pairs.j[sparse])
    assert 2 * upper.sum() == stored.nnz
    dense = _dense_quadratic(forms.assemble(grid, pairs, kernel, "vis"))
    x = np.random.default_rng(7).standard_normal((grid.n_cells, 3))
    want = dense @ x
    got = np.column_stack([A @ col for col in x.T])
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.abs(got[:, 0] - want[:, 0]).max() \
        <= 1e-13 * np.abs(want[:, 0]).max()


def test_vis_operator_slot_test_budget(monkeypatch):
    """The vis operator takes its visible pairs by the streamed energies'
    part-pair rule and sends few segments to the slot test: at R = 16,
    h = 0.5, 3,798 on the straight dumbbell (the band runs of the portal
    rule) and 472 on the curved one (the 120 unordered pairs of the 16
    corridor cells, and the tube chords that its upper edge's vertex
    leaves open).  A slot test of every pair with a corridor cell, and the
    portal rule between the bells alone, made 50,886 and 47,672, and the
    corridor cells tested as a full square 608 on the curved one."""
    count = [0]
    original = geo.DomainSpec.segment_inside_many

    def counted(self, X, Y):
        count[0] += len(X)
        return original(self, X, Y)

    kernel = kn.KernelSpec("power", s=0.25, p=2)
    for variant, budget in (("straight", 5000), ("curved", 500)):
        grid = mesh.build_grid(geo.make_dumbbell(variant), (0.0, 0.0),
                               16.0, 0.5)
        count[0] = 0
        with monkeypatch.context() as m:
            m.setattr(geo.DomainSpec, "segment_inside_many", counted)
            spectral.VisOperator(grid, kernel)
        assert count[0] <= budget, variant


@pytest.mark.parametrize("variant", ["straight", "curved"])
def test_matrix_free_constant_against_eigh(variant):
    grid = mesh.build_grid(geo.make_dumbbell(variant), (0.0, 0.0), 8.0, 0.5)
    kernel = kn.KernelSpec("power", s=0.25, p=2)
    cp = spectral.poincare_constant_l2(forms.lazy_form(grid, kernel, "vis"))
    dense = _dense_quadratic(
        forms.assemble(grid, mesh.visibility_pairs(grid), kernel, "vis"))
    w = scipy.linalg.eigh(dense, np.diag(grid.measures), eigvals_only=True)
    assert cp == pytest.approx(1.0 / w[1], rel=1e-10)


# ---------------------------------------------------------------------------
# witness profile and Rayleigh quotients
# ---------------------------------------------------------------------------

def test_witness_profile_values(straight_dumbbell):
    grid = mesh.build_grid(straight_dumbbell, (0.0, 0.0), 8.0, 0.5)
    u = spectral.witness_step_function(grid)
    assert np.all(np.abs(u) <= 1.0)
    assert np.all(u[grid.tags == geo.TAG_MINUS] == -1.0)
    assert np.all(u[grid.tags == geo.TAG_PLUS] == 1.0)
    star = grid.tags == geo.TAG_STAR
    assert np.array_equal(u[star], grid.centers[star, 0])
    # odd symmetry makes the mean nearly zero
    assert abs(mesh.cell_mean(grid, u)) < 1e-9


def test_witness_mass_grows_like_area(straight_dumbbell):
    vals = {}
    for R in (8.0, 16.0):
        grid = mesh.build_grid(straight_dumbbell, (0.0, 0.0), R, 0.5)
        u = spectral.witness_step_function(grid)
        ubar = mesh.cell_mean(grid, u)
        vals[R] = float(np.dot(grid.measures, np.abs(u - ubar) ** 2))
    assert 3.5 <= vals[16.0] / vals[8.0] <= 4.5


def test_witness_needs_tags(annulus_grid):
    with pytest.raises(ValueError):
        spectral.witness_step_function(annulus_grid)


def test_rayleigh_two_cell(two_cell_form):
    grid, form = two_cell_form
    # (0.25 + 0.25) / 2
    assert spectral.rayleigh_ratio(form, grid, [0.0, 1.0]) == pytest.approx(0.25)


def test_rayleigh_bounded_by_constant(straight_dumbbell):
    grid = mesh.build_grid(straight_dumbbell, (0.0, 0.0), 6.0, 0.5)
    kernel = kn.KernelSpec("power", s=0.5, p=2)
    cp = spectral.poincare_constant_l2(forms.lazy_form(grid, kernel, "vis"))
    form = forms.assemble(grid, mesh.visibility_pairs(grid), kernel, "vis")
    rng = np.random.default_rng(4)
    for _ in range(50):
        u = rng.standard_normal(grid.n_cells)
        assert spectral.rayleigh_ratio(form, grid, u) <= cp * (1 + 1e-8)


def test_rayleigh_rejects_constant(two_cell_form):
    grid, form = two_cell_form
    with pytest.raises(ValueError, match="constant"):
        spectral.rayleigh_ratio(form, grid, [3.0, 3.0])


# ---------------------------------------------------------------------------
# power-law fitting and the experiment driver
# ---------------------------------------------------------------------------

def test_fit_power_law_exact():
    assert spectral.fit_power_law([(2, 4), (4, 16), (8, 64)])[0] \
        == pytest.approx(2.0)
    assert spectral.fit_power_law([(2, 8), (4, 64), (8, 512)])[0] \
        == pytest.approx(3.0)
    fit, se = spectral.fit_power_law(
        [(8, 8 ** 1.5), (16, 16 ** 1.5), (32, 32 ** 1.5)])
    assert fit == pytest.approx(1.5) and se == pytest.approx(0.0, abs=1e-12)


def test_fit_power_law_preconditions():
    with pytest.raises(ValueError):
        spectral.fit_power_law([(2, 4), (4, 16)])
    with pytest.raises(ValueError):
        spectral.fit_power_law([(2, 4), (4, -16), (8, 64)])


def test_predicted_exponent_table(straight_dumbbell, curved_dumbbell):
    k_small = kn.KernelSpec("power", s=0.25, p=2)
    k_big = kn.KernelSpec("power", s=0.75, p=2)
    assert spectral.predicted_exponent(straight_dumbbell, k_small, 2) \
        == (1.5, False)
    assert spectral.predicted_exponent(curved_dumbbell, k_small, 2) \
        == (2.0, False)
    assert spectral.predicted_exponent(straight_dumbbell, k_big, 2) \
        == (2.0, False)
    assert spectral.predicted_exponent(straight_dumbbell, None, 1) \
        == (2.0, False)
    assert spectral.predicted_exponent(straight_dumbbell, None, 2) \
        == (2.0, True)
    with pytest.raises(ValueError):
        spectral.predicted_exponent(straight_dumbbell, k_big, 2.9)
    with pytest.raises(ValueError):
        spectral.predicted_exponent(straight_dumbbell, None, 3)


def test_scaling_experiment_guards(straight_dumbbell):
    kernel = kn.KernelSpec("power", s=0.25, p=2)
    with pytest.raises(ValueError):
        spectral.scaling_experiment(straight_dumbbell, kernel, 2.0, [8, 16])
    with pytest.raises(ValueError):
        spectral.scaling_experiment(straight_dumbbell, kernel, 2.0,
                                    [16, 8, 4], method="witness")
    with pytest.raises(ValueError):
        spectral.scaling_experiment(straight_dumbbell, kernel, 2.0,
                                    [4, 8, 16], h=0.75)
    with pytest.raises(ValueError):
        spectral.scaling_experiment(straight_dumbbell, kernel, 2.0,
                                    [4, 8, 16], method="quantum")


def test_scaling_experiment_small_local(straight_dumbbell):
    rep = spectral.scaling_experiment(straight_dumbbell, None, 1.0,
                                      [4, 8, 16], method="witness", h=0.5)
    assert rep.predicted == 2.0
    assert len(rep.samples) == 3
    assert rep.tolerance == 0.3
    assert 1.5 < rep.fitted < 2.5


def test_witness_sweep_reaches_R128(straight_dumbbell):
    """The straight s = 0.25 witness sweep out to R = 128 (203,860 cells)
    stays in criterion 5's band [1.35, 1.65] (predicted 1.5)."""
    kernel = kn.KernelSpec("power", s=0.25, p=2)
    rep = spectral.scaling_experiment(straight_dumbbell, kernel, 2.0,
                                      [16, 32, 64, 128], method="witness")
    assert rep.n_cells[-1] == 203_860
    assert 1.35 <= rep.fitted <= 1.65
    # recorded when the point was first reached, fit 1.4558
    assert rep.samples[-1][1] == pytest.approx(157.2050356879103, rel=1e-12)


def test_scaling_experiment_local_eigen(straight_dumbbell):
    # the local stencil needs no pair list, so the sweep reaches R = 64
    # (50,460 cells), past the size refusal of mesh.visibility_pairs
    rep = spectral.scaling_experiment(straight_dumbbell, None, 2.0,
                                      [8, 16, 32, 64], method="eigen", h=0.5)
    assert rep.predicted == 2.0 and rep.log_correction
    assert rep.n_cells[-1] > 20_000
    assert rep.verdict


def test_eigen_sweep_reaches_R32(straight_dumbbell):
    """The exact constant at R = 32 (12,396 cells), past the 6000 cells
    that the dense matrix allowed, dominates the witness at every R."""
    kernel = kn.KernelSpec("power", s=0.25, p=2)
    eig = spectral.scaling_experiment(straight_dumbbell, kernel, 2.0,
                                      [8, 16, 32], method="eigen")
    wit = spectral.scaling_experiment(straight_dumbbell, kernel, 2.0,
                                      [8, 16, 32], method="witness")
    assert eig.n_cells == wit.n_cells and eig.n_cells[-1] == 12_396
    assert all(e >= w for (_, e), (_, w) in zip(eig.samples, wit.samples))
    # recorded when the point was first reached
    assert eig.samples[-1][1] == pytest.approx(24.61959653698274, rel=1e-9)


#: the quick suite's scaling-eigen-small-R samples at R = 4, 8, 16
#: (straight dumbbell, power:s=0.25,p=2, h = 0.5, seed 0), the same bits at
#: 1 and 2 BLAS threads
QUICK_EIGEN = (1.2857294845119311, 3.5293275483175255, 9.355788745437676)


def test_quick_suite_eigen_points_keep_their_bits():
    # the call cli.run_scaling_nonlocal makes for the quick suite
    rep = spectral.scaling_experiment(
        geo.parse_domain("straight-dumbbell"),
        kn.parse_kernel("power:s=0.25,p=2"), 2.0, [4.0, 8.0, 16.0],
        method="eigen", h=0.5, seed=0)
    assert tuple(value for _, value in rep.samples) == QUICK_EIGEN


def test_eigen_sweep_builds_no_pair_list(monkeypatch, straight_dumbbell):
    def refuse(grid):
        raise AssertionError("the eigen sweep built a pair list")

    monkeypatch.setattr(mesh, "visibility_pairs", refuse)
    kernel = kn.KernelSpec("power", s=0.25, p=2)
    rep = spectral.scaling_experiment(straight_dumbbell, kernel, 2.0,
                                      [4, 8, 16], method="eigen")
    # the dense shift-invert path's values, from the full pair list
    dense = (1.2857294845118987, 3.529327548317244, 9.355788745435664)
    for (_, value), ref in zip(rep.samples, dense):
        assert value == pytest.approx(ref, rel=3e-12)
