"""Poincare constants and their scaling in the clip radius.

For p = 2 the best constant is the reciprocal of the smallest nonzero
eigenvalue of the generalized problem  A u = lambda M u,  with A the
energy quadratic form and M = h^2 I the cell-measure matrix; it is
computed by Lanczos (``scipy.sparse.linalg.eigsh``) on the whitened
operator A / h^2.  Two forms have an eigen path: a lazy vis
form on a dumbbell grid gets a matrix-free A (FFT convolution inside the
bells, sparse entries for the other visible pairs), and a local form its
sparse stencil, solved by shift-invert.  For general p the step-profile
witness gives a certified lower bound via its Rayleigh quotient, from a
streamed lazy energy.  The witness path uses numpy alone: scipy is
imported inside the functions of the eigen path, on their first call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import forms, geometry, mesh
from .geometry import TAG_MINUS, TAG_OTHER, TAG_PLUS, TAG_STAR

# ---------------------------------------------------------------------------
# quadratic form operators
# ---------------------------------------------------------------------------

#: the forms that have a p = 2 constant, named in every refusal
_EIGEN_FORMS = ("the p = 2 constant is computed for a lazy vis form on a "
                "make_dumbbell grid, with a kernel positive on the bell "
                "lattice, or for a local form")


class VisOperator:
    """Matrix-free A = 2 (D - W) of a lazy vis form on a dumbbell grid.

    W_ij = k(r_ij) m_i m_j over the visible pairs and D holds W's row
    sums, so u.A.u = energy(form, u, p=2).  Each bell clipped to the ball
    is convex, so every pair inside one bell is visible, and on the
    lattice that part of W x is a convolution of m x with the table
    k(h |offset|) (zero at offset 0).  Both bells are convolved in one
    batched ``numpy.fft`` call on a zero-padded (2 nx, 2 ny) lattice, with
    the table's spectrum taken once.  The other visible pairs are sparse
    entries: bell-to-bell pairs and pairs that touch a corridor cell, each
    decided once by the part-pair rule (``forms._visible_pairs``).
    ``connected`` tells whether the pair graph is connected.  It is a
    plain operator with a ``shape`` and ``A @ x`` for x of shape (n,);
    ``poincare_constant_l2`` wraps it in a scipy ``LinearOperator`` for
    ``eigsh``.
    """

    def __init__(self, grid, kernel):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        n = grid.n_cells
        self.shape = (n, n)
        self._m = m = grid.cell_measure
        bells = [np.flatnonzero(grid.tags == tag)
                 for tag in (TAG_MINUS, TAG_PLUS)]
        if not all(cells.size for cells in bells):
            raise ValueError("the vis operator needs cells in both bells")
        # each bell in a lattice box of nx by ny cells, padded to twice that
        lx = [grid.ix[c] - grid.ix[c].min() for c in bells]
        ly = [grid.iy[c] - grid.iy[c].min() for c in bells]
        nx = 1 + max(x.max() for x in lx)
        ny = 1 + max(y.max() for y in ly)
        self._buf = np.zeros((2, 2 * nx, 2 * ny))
        self._cells = np.concatenate(bells)
        self._pos = np.concatenate([b * self._buf[0].size + x * 2 * ny + y
                                    for b, x, y in zip((0, 1), lx, ly)])
        # k(h |offset|) on the offsets 0..nx, 0..ny, laid out circularly
        ox, oy = np.ogrid[:nx + 1, :ny + 1]
        r = grid.h * np.sqrt(ox * ox + oy * oy)
        r[0, 0] = 1.0
        quad = kernel.k(r)
        quad[0, 0] = 0.0
        if np.any(quad.ravel()[1:] <= 0.0):
            raise ValueError(f"kernel {kernel.label()} vanishes on the bell "
                             f"lattice; {_EIGEN_FORMS}")
        kx, ky = np.arange(2 * nx), np.arange(2 * ny)
        table = quad[np.minimum(kx, 2 * nx - kx)[:, None],
                     np.minimum(ky, 2 * ny - ky)]
        # the table is even, so its spectrum is real
        self._spec = np.fft.rfft2(table).real

        # sparse entries, each unordered pair once: bell to bell, the other
        # cells against the bells, and the other cells among themselves
        rest = np.flatnonzero(~np.isin(grid.tags, (TAG_MINUS, TAG_PLUS)))
        i, j = (np.concatenate(v) for v in zip(
            forms._visible_pairs(grid, *bells),
            forms._visible_pairs(grid, rest, self._cells),
            forms._visible_pairs(grid, rest, rest)))
        d = grid.centers[j] - grid.centers[i]
        w = kernel.k(np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]))
        w *= m * m
        pos = w > 0.0             # truncated profiles zero out far pairs
        i, j, w = i[pos], j[pos], w[pos]
        self._sparse = csr_matrix(
            (np.concatenate((w, w)), (np.concatenate((i, j)),
                                      np.concatenate((j, i)))), shape=(n, n))
        self._diag = np.asarray(self._sparse.sum(axis=1)).ravel()
        self._diag[self._cells] += m * self._convolve(
            np.full(self._cells.size, m))

        # a bell is a clique of positive weights: link it to its first cell
        li = np.concatenate([i] + bells)
        lj = np.concatenate([j] + [np.full(c.size, c[0]) for c in bells])
        graph = csr_matrix((np.ones(li.size), (li, lj)), shape=(n, n))
        self.connected = connected_components(graph, directed=False)[0] == 1

    def _convolve(self, v):
        """The table convolved with v on the bell cells (v in their order)."""
        self._buf.flat[self._pos] = v
        out = np.fft.irfft2(np.fft.rfft2(self._buf) * self._spec,
                            s=self._buf.shape[1:])
        return out.reshape(-1)[self._pos]

    def __matmul__(self, x):
        """A x for x of shape (n,)."""
        x = np.asarray(x, dtype=np.float64)
        wx = self._sparse @ x
        wx[self._cells] += self._m * self._convolve(self._m * x[self._cells])
        return 2.0 * (self._diag * x - wx)


def quadratic_matrix(form):
    """Symmetric A with u.A.u = energy(form, u, p=2), plus connectivity.

    A lazy vis form on a ``make_dumbbell`` grid gives the matrix-free
    ``VisOperator`` and a local form the CSR matrix of its stencil; any
    other form is refused.
    """
    grid = form.grid
    prims = grid.domain.primitives
    if (form.mode == "vis" and form.pair_i is None
            and grid.domain.dumbbell is not None
            and prims[0].convex and prims[2].convex):
        A = VisOperator(grid, form.kernel)
        return A, A.connected
    if form.mode != "local":
        kind = "a lazy" if form.pair_i is None else "an assembled"
        raise ValueError(f"{_EIGEN_FORMS}; got {kind} {form.mode} form")
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    n = grid.n_cells
    has = [np.flatnonzero(nbr >= 0) for nbr in (form.nbr_right, form.nbr_up)]
    i = np.concatenate(has)
    j = np.concatenate([form.nbr_right[has[0]], form.nbr_up[has[1]]])
    c = np.ones(i.size)
    # +1 on both ends' diagonal, -1 off it, duplicates summed
    A = sp.coo_matrix((np.concatenate((c, c, -c, -c)),
                       (np.concatenate((i, j, i, j)),
                        np.concatenate((i, j, j, i)))), shape=(n, n)).tocsr()
    ncomp = connected_components(sp.csr_matrix(
        (np.ones(A.nnz), A.indices, A.indptr), shape=(n, n)),
        directed=False)[0]
    return A, ncomp == 1


def poincare_constant_l2(form, grid=None, seed=0):
    """Best L2 Poincare constant 1/lambda_1 of the generalized problem.

    lambda_1 is the smallest eigenvalue of  E(u, v) = lambda <u, v>_m  on
    the mean-zero subspace, for a lazy vis form on a ``make_dumbbell``
    grid or a local form (``quadratic_matrix`` refuses any other).  A
    disconnected pair graph has lambda_1 = 0 and the constant is reported
    as inf.  ``seed`` fixes the Lanczos start vector, so repeated calls
    return the same bits.
    """
    from scipy.sparse.linalg import LinearOperator, eigsh

    grid = form.grid if grid is None else grid
    A, connected = quadratic_matrix(form)
    if not connected:
        return float("inf")
    # M = h^2 I, so A u = lambda M u has the eigenvalues of A over h^2,
    # with lambda_0 = 0 on the constants
    n = grid.n_cells
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x51E5]))
    v0 = rng.standard_normal(n)
    if form.mode == "local":
        # shift-invert about a point just below 0: the two eigenvalues
        # nearest it are lambda_0 = 0 and lambda_1, and the shifted matrix
        # is positive definite
        sigma = -1e-6 * float(A.diagonal().max())
        lam = eigsh(A, k=2, sigma=sigma, which="LM",
                    return_eigenvectors=False, v0=v0)
    else:
        op = LinearOperator((n, n), dtype=np.float64,
                            matvec=lambda v: A @ v.reshape(-1))
        lam = eigsh(op, k=2, which="SA", return_eigenvectors=False, v0=v0)
    lam = float(lam.max()) / grid.cell_measure
    if lam <= 0.0:
        return float("inf")
    return 1.0 / lam


# ---------------------------------------------------------------------------
# witness profile and Rayleigh quotients
# ---------------------------------------------------------------------------

def witness_step_function(grid):
    """-1 on the left bell, x1 on the corridor remainder, +1 on the right."""
    if grid.domain.dumbbell is None or np.all(grid.tags == TAG_OTHER):
        raise ValueError("witness profile needs dumbbell region tags")
    if np.any(grid.tags == TAG_OTHER):
        raise ValueError("grid has untagged cells; witness profile undefined")
    u = np.empty(grid.n_cells)
    u[grid.tags == TAG_MINUS] = -1.0
    u[grid.tags == TAG_PLUS] = 1.0
    star = grid.tags == TAG_STAR
    u[star] = np.clip(grid.centers[star, 0], -1.0, 1.0)
    return u


def rayleigh_ratio(form, grid, u, p=2.0):
    """|u - mean|_p^p over the energy: a lower bound for the best constant."""
    u = np.asarray(u, dtype=float)
    den = forms.energy(form, u, p)
    if den <= 0.0:
        raise ValueError("zero energy: u is constant on every pair-connected "
                         "component, the Rayleigh quotient is undefined")
    ubar = mesh.cell_mean(grid, u)
    # thread-count independent sum, as in forms.energy
    num = float(np.sum(grid.cell_measure * np.abs(u - ubar) ** p))
    return num / den


def fit_power_law(samples):
    """Least-squares exponent of value ~ R^a on log-log axes.

    Returns (exponent, stderr); needs at least three positive samples.
    """
    samples = [(float(R), float(v)) for R, v in samples]
    if len(samples) < 3:
        raise ValueError("need at least 3 samples to fit a power law")
    R = np.array([s[0] for s in samples])
    v = np.array([s[1] for s in samples])
    if np.any(v <= 0) or np.any(R <= 0):
        raise ValueError("power-law fit needs positive samples")
    x = np.log(R)
    y = np.log(v)
    xm = x - x.mean()
    slope = float(np.dot(xm, y) / np.dot(xm, xm))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (slope * x + intercept)
    dof = len(samples) - 2
    if dof > 0:
        stderr = float(np.sqrt((resid @ resid) / dof / np.dot(xm, xm)))
    else:
        stderr = 0.0
    return slope, stderr


# ---------------------------------------------------------------------------
# scaling experiments
# ---------------------------------------------------------------------------

@dataclass
class ScalingReport:
    samples: list                  # (R, value)
    fitted: float
    stderr: float
    predicted: float
    tolerance: float
    verdict: bool
    method: str
    metadata: dict = field(default_factory=dict)
    n_cells: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    log_correction: bool = False

    def summary_lines(self):
        lines = [f"method={self.method}",
                 f"fitted={self.fitted!r}",
                 f"stderr={self.stderr!r}",
                 f"predicted={self.predicted!r}",
                 f"tolerance={self.tolerance!r}",
                 f"verdict={'pass' if self.verdict else 'fail'}",
                 f"log_correction={self.log_correction}"]
        for key in sorted(self.metadata):
            lines.append(f"{key}={self.metadata[key]}")
        return lines


def corridor_radius(domain):
    """Half-width of the dumbbell corridor (slab half-height or tube radius)."""
    if domain.dumbbell is None:
        raise ValueError("domain has no dumbbell metadata")
    prim = domain.primitives[1]
    if isinstance(prim, geometry.Box):
        return prim.hi[1]
    if isinstance(prim, geometry.ParabolicTube):
        return prim.radius
    raise ValueError(f"unrecognized corridor primitive {type(prim).__name__}")


def predicted_exponent(domain, kernel, p, d=2):
    """Rate table for the Poincare constant in R.

    Local forms scale like R^d for p < d and R^p (log R)^(p-1) at p = d.
    Nonlocal power-profile forms scale like R^d, improving to
    R^(d-1+sp) when the domain has a convex sub-corridor and s < 1/p.
    Returns (exponent, log_correction_flag).
    """
    if kernel is None:                   # local gradient form
        if not 1 <= p <= d:
            raise ValueError("local rate table needs 1 <= p <= d")
        if p == d:
            return float(p), True
        return float(d), False
    if kernel.family != "power":
        raise ValueError("the rate table is stated for the power profile")
    s = kernel.s
    if not (1 <= p < d / s):
        raise ValueError(f"hypothesis 1 <= p < d/s violated: p={p}, d/s={d/s:g}")
    has_tilde = domain.dumbbell is not None and domain.primitives[1].convex
    if has_tilde and s < 1.0 / p:
        return float(d - 1 + s * p), False
    return float(d), False


def check_scaling(domain, kernel, p, R_list, h, method):
    """Refuse a run that ``scaling_experiment`` cannot do; returns
    ``predicted_exponent``'s (exponent, log_correction_flag)."""
    if method not in ("witness", "eigen"):
        raise ValueError(f"unknown method {method!r}")
    if method == "eigen" and p != 2:
        raise ValueError(f"the eigen method needs p = 2, got p = {p:g}")
    if len(R_list) < 3:
        raise ValueError("need at least 3 radii to fit an exponent")
    if any(a > b for a, b in zip(R_list, R_list[1:])):
        raise ValueError("R_list must be ascending")
    if domain.dumbbell is None:
        raise ValueError("scaling experiments run on dumbbell domains, "
                         f"got {domain.name!r}")
    r_corr = corridor_radius(domain)
    if h > r_corr / 2.0:
        raise ValueError(f"h={h} too coarse for corridor radius {r_corr}: "
                         "need h <= radius/2 (four cells across)")
    return predicted_exponent(domain, kernel, p)


def scaling_experiment(domain, kernel, p, R_list, method="witness", h=0.5,
                       seed=0):
    """Sweep the clip radius, measure the Poincare-constant proxy, fit.

    ``kernel=None`` selects the local gradient form.  Nonlocal forms are
    lazy vis forms, so no sweep builds a pair list: the witness method
    evaluates the step profile's Rayleigh quotient (streamed energies), and
    the eigen method computes the exact p=2 constant with the matrix-free
    ``VisOperator``.  The cell size stays fixed across the sweep so one
    discrete operator family is compared at all radii.
    """
    R_list = [float(R) for R in R_list]
    predicted, log_corr = check_scaling(domain, kernel, p, R_list, h, method)

    x0 = domain.dumbbell.x0
    samples = []
    n_cells = []
    seconds = []
    for R in R_list:
        t0 = time.perf_counter()
        grid = mesh.build_grid(domain, x0, R, h)
        if kernel is None:
            form = forms.assemble(grid, None, None, "local", p)
        else:
            form = forms.lazy_form(grid, kernel, "vis", p)
        if method == "witness":
            value = rayleigh_ratio(form, grid, witness_step_function(grid), p)
        else:
            value = poincare_constant_l2(form, grid, seed=seed)
        samples.append((R, value))
        n_cells.append(grid.n_cells)
        seconds.append(time.perf_counter() - t0)

    fit_samples = samples
    if log_corr:
        fit_samples = [(R, v / np.log(R) ** (p - 1)) for R, v in samples]
    fitted, stderr = fit_power_law(fit_samples)
    tolerance = 0.15 if len(R_list) >= 4 else 0.3
    report = ScalingReport(
        samples=samples, fitted=fitted, stderr=stderr, predicted=predicted,
        tolerance=tolerance, verdict=abs(fitted - predicted) <= tolerance,
        method=method, n_cells=n_cells, seconds=seconds,
        log_correction=log_corr,
        metadata={"domain": domain.name,
                  "kernel": "local" if kernel is None else kernel.label(),
                  "p": p, "h": h,
                  "s": "" if kernel is None else getattr(kernel, "s", "")})
    return report
