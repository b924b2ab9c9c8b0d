"""Discrete-time jump chain on the grid induced by the visibility kernel.

The chain's rows are the CSR rows of the assembled vis form
(``forms.assemble``): state i jumps to a visible j with probability
w_ij / sum_j w_ij, w_ij = k(r) m_i m_j, so m_i cancels and the embedded
chain is reversible with respect to measure * rate.  No (N, N) array is
kept: a row stores its probabilities, their running sums and its target
states, and a step bisects the running sums.  Crossing statistics between
the two bells of a dumbbell are Monte Carlo over seeded, batch-advanced
paths; step counts, not holding times, are the observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import forms, mesh
from .geometry import TAG_MINUS, TAG_PLUS

#: a run whose censored fraction exceeds this fails loudly
MAX_CENSORED_FRACTION = 0.05


@dataclass(frozen=True)
class ChainModel:
    """CSR rows: state s jumps through entries indptr[s]:indptr[s+1]."""
    P: np.ndarray                # (nnz,) jump probabilities, columns sorted
    cdf: np.ndarray              # (nnz,) running sums of P, 1.0 at row ends
    cols: np.ndarray             # (nnz,) target state of each entry
    indptr: np.ndarray           # (N + 1,)
    grid: mesh.Grid | None
    isolated: np.ndarray         # (N,) bool, the empty rows


def build_chain(grid, pairs, kernel):
    """Row-normalized visible-jump chain; isolated states are flagged."""
    form = forms.assemble(grid, pairs, kernel, "vis")
    n = grid.n_cells
    # the (data, (i, j)) constructor sums duplicates, which sorts each
    # row's columns
    W = sp.csr_array((np.concatenate([form.weight, form.weight]),
                      (np.concatenate([form.pair_i, form.pair_j]),
                       np.concatenate([form.pair_j, form.pair_i]))),
                     shape=(n, n))
    return _chain(W, grid)


def _chain(W, grid):
    """The chain of the symmetric CSR weights W (sorted columns)."""
    totals = W.sum(axis=1)
    isolated = totals == 0.0
    if isolated.all():
        raise ValueError("every state is isolated; the chain cannot move")
    P = W.data / np.repeat(totals, np.diff(W.indptr))
    cdf = np.empty_like(P)
    for lo, hi in zip(W.indptr[:-1], W.indptr[1:]):
        np.cumsum(P[lo:hi], out=cdf[lo:hi])
    # a draw above a row's rounded total lands on the row's last entry
    cdf[W.indptr[1:][~isolated] - 1] = 1.0
    return ChainModel(P=P, cdf=cdf, cols=W.indices, indptr=W.indptr,
                      grid=grid, isolated=isolated)


def _advance(chain, states, rng):
    """One synchronous step for a batch of states (vectorized bisection)."""
    u = rng.random(states.shape[0])
    lo = chain.indptr[states]
    hi = chain.indptr[states + 1]
    # invariant: cdf < u before lo, cdf[hi - 1] >= u; a row of L entries
    # closes to lo == hi in L.bit_length() halvings
    for _ in range(int((hi - lo).max()).bit_length()):
        mid = (lo + hi) // 2
        go_right = chain.cdf[mid] < u
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(go_right, hi, mid)
    return chain.cols[lo]


@dataclass
class CrossingStats:
    mean_steps: float
    ci95: float
    n_completed: int
    n_censored: int
    direct_cross_jumps: int      # observed bell-to-bell transitions
    steps: np.ndarray = field(repr=False, default=None)


def mean_crossing_time(chain, n_paths=1000, max_steps=1_000_000, seed=0):
    """Expected first-hit step count from the minus bell to the plus bell.

    Paths start from the measure-weighted distribution on live minus-bell
    cells deep in the bell (x1 below -R/2) and stop on any plus-bell cell.
    Censored paths (max_steps) are excluded from the mean and reported;
    more than MAX_CENSORED_FRACTION of them fails.
    """
    grid = chain.grid
    if grid is None or grid.domain.dumbbell is None:
        raise ValueError("crossing times need a dumbbell-tagged grid")
    minus = grid.tags == TAG_MINUS
    plus = grid.tags == TAG_PLUS
    source = np.flatnonzero(minus & (grid.centers[:, 0] < -0.5 * grid.R)
                            & ~chain.isolated)
    if source.size == 0:
        raise ValueError("no live source cells deep in the bell")
    if not plus.any():
        raise ValueError("no target cells")

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x3A1C]))
    weights = grid.measures[source]
    cur = rng.choice(source, size=n_paths, p=weights / weights.sum())
    active = np.arange(n_paths)
    steps = np.zeros(n_paths, dtype=np.int64)
    direct = 0
    taken = 0                           # the paths move in lockstep
    while active.size:
        nxt = _advance(chain, cur, rng)
        direct += int(np.sum(minus[cur] & plus[nxt]))
        taken += 1
        hit = plus[nxt]
        steps[active[hit]] = taken
        if taken >= max_steps:
            steps[active[~hit]] = -1
            break
        active, cur = active[~hit], nxt[~hit]
    censored = int(np.sum(steps < 0))
    completed = steps[steps >= 0]
    if completed.size == 0:
        raise RuntimeError("no path completed within the step budget")
    frac = censored / n_paths
    if frac > MAX_CENSORED_FRACTION:
        raise RuntimeError(
            f"{100*frac:.1f}% of paths were censored at max_steps={max_steps}; "
            "raise the budget or shrink the domain")
    mean = float(completed.mean())
    ci = 1.96 * float(completed.std(ddof=1)) / float(np.sqrt(completed.size)) \
        if completed.size > 1 else 0.0
    return CrossingStats(mean_steps=mean, ci95=ci,
                         n_completed=int(completed.size), n_censored=censored,
                         direct_cross_jumps=direct, steps=completed)


def dump_paths_csv(path, stats):
    with open(path, "w") as fh:
        fh.write("path,steps,censored\n")
        k = 0
        for s in stats.steps:
            fh.write(f"{k},{int(s)},0\n")
            k += 1
        for _ in range(stats.n_censored):
            fh.write(f"{k},-1,1\n")
            k += 1
