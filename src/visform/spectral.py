"""Poincare constants and their scaling in the clip radius.

For p = 2 the best constant is the reciprocal of the smallest nonzero
eigenvalue of the generalized problem  A u = lambda M u,  with A the
energy quadratic form and M the diagonal cell-measure matrix; it is
computed by shift-invert Lanczos (``scipy.sparse.linalg.eigsh``) on the
whitened operator M^-1/2 A M^-1/2.  For general p the step-profile
witness gives a certified lower bound via its Rayleigh quotient, which
is the instrument of choice at large radii (its energy is streamed from a
lazy form, the eigensolver needs an assembled pair list).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import eigsh

from . import forms, geometry, mesh
from .geometry import TAG_MINUS, TAG_OTHER, TAG_PLUS, TAG_STAR

#: materialized operators beyond this many cells exhaust memory
MAX_EIGEN_CELLS = 6000


# ---------------------------------------------------------------------------
# quadratic form matrices
# ---------------------------------------------------------------------------

def quadratic_matrix(form):
    """Symmetric A with u.A.u = energy(form, u, p=2), plus connectivity."""
    grid = form.grid
    n = grid.n_cells
    if form.mode == "local":
        h = grid.h
        rows, cols, vals = [], [], []
        for nbr in (form.nbr_right, form.nbr_up):
            has = np.nonzero(nbr >= 0)[0]
            c = grid.measures[has] / h ** 2
            rows.extend([has, nbr[has], has, nbr[has]])
            cols.extend([has, nbr[has], nbr[has], has])
            vals.extend([c, c, -c, -c])
        A = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n)).tocsr()
        ncomp = connected_components(sp.csr_matrix(
            (np.ones(A.nnz), A.indices, A.indptr), shape=(n, n)),
            directed=False)[0]
        return A, ncomp == 1
    if form.pair_i is None:
        raise ValueError("the eigen path needs a pair list: build the form "
                         "with forms.assemble and a PairSet, not lazy_form")
    if n > MAX_EIGEN_CELLS:
        raise ValueError(f"{n} cells exceeds the eigensolver limit "
                         f"{MAX_EIGEN_CELLS}")
    i, j, c = form.pair_i, form.pair_j, 2.0 * form.weight
    A = np.bincount(i * n + j, -c, n * n).reshape(n, n)
    A += A.T
    # one bincount in pair order sums the diagonal as np.add.at would
    A.flat[::n + 1] += np.bincount(np.concatenate((i, j)),
                                   np.concatenate((c, c)), n)
    adj = sp.coo_matrix((np.ones(form.n_pairs), (i, j)), shape=(n, n))
    ncomp = connected_components(adj.tocsr(), directed=False)[0]
    return A, ncomp == 1


def poincare_constant_l2(form, grid=None, seed=0):
    """Best L2 Poincare constant 1/lambda_1 of the generalized problem.

    lambda_1 is the smallest eigenvalue of  E(u, v) = lambda <u, v>_m  on
    the measure-weighted mean-zero subspace.  A disconnected pair graph
    has lambda_1 = 0 and the constant is reported as inf.  ``seed`` fixes
    the Lanczos start vector, so repeated calls return the same bits.
    """
    if form.mode not in ("vis", "cen", "local"):
        raise ValueError("Poincare constant is computed for vis, cen or "
                         "local forms")
    grid = form.grid if grid is None else grid
    if np.any(grid.measures <= 0):
        raise ValueError("grid measures must be positive")
    A, connected = quadratic_matrix(form)
    if not connected:
        return float("inf")
    # whiten: M^-1/2 A M^-1/2 has the eigenvalues of A u = lambda M u, with
    # lambda_0 = 0 on sqrt(m); the dense matrix is scaled in place
    inv_sqm = 1.0 / np.sqrt(grid.measures)
    if isinstance(A, np.ndarray):
        A *= inv_sqm[:, None]
        A *= inv_sqm
    else:
        A = sp.diags(inv_sqm) @ A @ sp.diags(inv_sqm)
    # shift-invert about a point just below 0: the two eigenvalues nearest
    # it are lambda_0 = 0 and lambda_1, and the shifted matrix is positive
    # definite
    sigma = -1e-6 * float(A.diagonal().max())
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x51E5]))
    lam = eigsh(A, k=2, sigma=sigma, which="LM", return_eigenvectors=False,
                v0=rng.standard_normal(grid.n_cells))
    lam = float(lam.max())
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
    num = float(np.sum(grid.measures * np.abs(u - ubar) ** p))
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
    prim = domain.primitives[domain.dumbbell.corridor_ids[0]]
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
    has_tilde = (domain.dumbbell is not None
                 and domain.dumbbell.gamma_tilde_id is not None)
    if has_tilde and s < 1.0 / p:
        return float(d - 1 + s * p), False
    return float(d), False


def scaling_experiment(domain, kernel, p, R_list, method="witness", h=0.5,
                       seed=0, subsamples=1):
    """Sweep the clip radius, measure the Poincare-constant proxy, fit.

    ``kernel=None`` selects the local gradient form.  The witness method
    evaluates the step profile's Rayleigh quotient (streamed energies, no
    pair list); the eigen method computes the exact p=2 constant and is
    limited to small radii.  The cell size stays fixed across the sweep so
    one discrete operator family is compared at all radii.
    """
    R_list = [float(R) for R in R_list]
    if len(R_list) < 3:
        raise ValueError("need at least 3 radii to fit an exponent")
    if sorted(R_list) != R_list:
        raise ValueError("R_list must be ascending")
    if domain.dumbbell is None:
        raise ValueError("scaling experiments run on dumbbell domains")
    r_corr = corridor_radius(domain)
    if h > r_corr / 2.0:
        raise ValueError(f"h={h} too coarse for corridor radius {r_corr}: "
                         "need h <= radius/2 (four cells across)")
    if method not in ("witness", "eigen"):
        raise ValueError(f"unknown method {method!r}")
    if method == "eigen" and p != 2:
        raise ValueError("the eigen method computes the p = 2 constant")
    predicted, log_corr = predicted_exponent(domain, kernel, p)

    x0 = domain.dumbbell.x0
    samples = []
    n_cells = []
    seconds = []
    for R in R_list:
        t0 = time.perf_counter()
        grid = mesh.build_grid(domain, x0, R, h, subsamples=subsamples)
        if kernel is None:
            form = forms.assemble(grid, None, None, "local", p)
        elif method == "witness":
            form = forms.lazy_form(grid, kernel, "vis", p)
        else:
            form = forms.assemble(grid, mesh.visibility_pairs(grid), kernel,
                                  "vis", p)
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
