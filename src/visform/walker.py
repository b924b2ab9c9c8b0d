"""Discrete-time jump chain on the grid induced by the visibility kernel.

The chain's rows are the CSR rows of the assembled vis form
(``forms.assemble``): state i jumps to a visible j with probability
w_ij / sum_j w_ij, w_ij = k(r) m_i m_j, so m_i cancels and the embedded
chain is reversible with respect to measure * rate.  No (N, N) array is
kept: a row stores its probabilities, their running sums and its target
states, plus one guide bucket per entry (Chen & Asau 1974; Devroye 1986,
III.2.4), and a step compares the draw with the running sums only inside
the bracket of its bucket, every path's bracket in one array pass.
Crossing statistics between the two bells of a dumbbell are Monte Carlo
over seeded, batch-advanced paths; step counts, not holding times, are
the observable.  scipy is imported by ``build_chain``, on its first
call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import forms, mesh
from .geometry import TAG_MINUS, TAG_PLUS

#: a run whose censored fraction exceeds this fails loudly
MAX_CENSORED_FRACTION = 0.05


@dataclass(frozen=True)
class ChainModel:
    """CSR rows: state s jumps through entries indptr[s]:indptr[s+1].

    A row of L entries has L guide buckets; entry k falls in bucket
    min(floor(cdf_k L), L - 1), and a draw u in bucket floor(u L).  The
    first entry with cdf >= u then lies between the first entry of u's
    bucket and the first entry past it, both inclusive.
    """
    P: np.ndarray                # (nnz,) jump probabilities, columns sorted
    cdf: np.ndarray              # (nnz,) running sums of P, 1.0 at row ends
    cols: np.ndarray             # (nnz,) target state of each entry
    indptr: np.ndarray           # (N + 1,)
    guide: np.ndarray            # (nnz,) first entry past each bucket
    grid: mesh.Grid | None
    isolated: np.ndarray         # (N,) bool, the empty rows


def build_chain(grid, pairs, kernel):
    """Row-normalized visible-jump chain; isolated states are flagged."""
    from scipy.sparse import csr_array

    form = forms.assemble(grid, pairs, kernel, "vis")
    n = grid.n_cells
    # the (data, (i, j)) constructor sums duplicates, which sorts each
    # row's columns
    W = csr_array((np.concatenate([form.weight, form.weight]),
                   (np.concatenate([form.pair_i, form.pair_j]),
                    np.concatenate([form.pair_j, form.pair_i]))),
                  shape=(n, n))
    del form                            # the guide build reuses its memory
    return _chain(W, grid)


def _chain(W, grid):
    """The chain of the symmetric CSR weights W (sorted columns); W's rows
    are normalized in place and its data becomes the chain's P."""
    totals = W.sum(axis=1)
    isolated = totals == 0.0
    if isolated.all():
        raise ValueError("every state is isolated; the chain cannot move")
    lengths = np.diff(W.indptr)
    P = W.data
    # an isolated row's stored zeros stay P = 0 (divided by 1, not 0)
    P /= np.repeat(np.where(isolated, 1.0, totals), lengths)
    cdf = np.empty_like(P)
    for lo, hi in zip(W.indptr[:-1], W.indptr[1:]):
        np.cumsum(P[lo:hi], out=cdf[lo:hi])
    # a draw above a row's rounded total lands on the row's last entry
    cdf[W.indptr[1:][~isolated] - 1] = 1.0
    # entry k of row s goes to slot indptr[s] + min(floor(cdf_k L), L - 1);
    # counting the entries per slot and summing gives, per slot, the first
    # entry of a later bucket (the row's end for its last bucket).  Two
    # (nnz,) integer arrays at a time: the float products are cast as made
    row_len = np.repeat(lengths, lengths)
    slot = np.empty(P.size, dtype=np.int64)
    np.multiply(cdf, row_len, out=slot, casting="unsafe")
    row_len -= 1
    np.minimum(slot, row_len, out=slot)
    del row_len
    slot += np.repeat(W.indptr[:-1], lengths)
    guide = np.bincount(slot, minlength=P.size)
    del slot
    np.cumsum(guide, out=guide)
    return ChainModel(P=P, cdf=cdf, cols=W.indices, indptr=W.indptr,
                      guide=guide, grid=grid, isolated=isolated)


def _advance(chain, states, rng):
    """One synchronous step for a batch of states: a guide-bucket lookup,
    then one comparison pass over every bucket's bracket."""
    u = rng.random(states.shape[0])
    start = chain.indptr[states]
    # u and cdf take the same monotone map to buckets, so the first entry
    # with cdf >= u lies in [first entry of u's bucket, first entry past
    # it]; floor(u L) <= L - 1 for u < 1
    slot = start + (u * (chain.indptr[states + 1] - start)).astype(np.int64)
    lo = np.where(slot > start, chain.guide[slot - 1], start)
    width = chain.guide[slot] - lo
    # the entries of a row with cdf < u are a prefix of it (cdf is a running
    # sum, and the row's last entry, 1.0, is not below u), so the first
    # entry with cdf >= u is lo plus the bracket's entries below u, counted
    # over all brackets [lo, lo + width) laid end to end
    owner = np.repeat(np.arange(lo.size), width)
    entry = np.arange(owner.size) + np.repeat(lo - np.cumsum(width) + width,
                                              width)
    below = chain.cdf[entry] < u[owner]
    return chain.cols[lo + np.bincount(owner[below], minlength=lo.size)]


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

    Paths start from the uniform distribution on live minus-bell
    cells deep in the bell (x1 below -R/2) and stop on any plus-bell cell.
    Censored paths (max_steps) are excluded from the mean and reported;
    more than MAX_CENSORED_FRACTION of them fails.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps}")
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
    # cells weigh h^2 each; passing p= keeps rng.choice's stream of draws
    cur = rng.choice(source, size=n_paths,
                     p=np.full(source.size, 1.0 / source.size))
    active = np.arange(n_paths)
    steps = np.zeros(n_paths, dtype=np.int64)
    direct = 0
    taken = 0                           # the paths move in lockstep
    while active.size:
        nxt = _advance(chain, cur, rng)
        taken += 1
        hit = plus[nxt]
        if hit.any():
            direct += int(np.count_nonzero(minus[cur[hit]]))
            steps[active[hit]] = taken
            active, nxt = active[~hit], nxt[~hit]
        cur = nxt
        if taken >= max_steps:
            steps[active] = -1
            break
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
