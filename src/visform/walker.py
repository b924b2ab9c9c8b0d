"""Discrete-time jump chain on the grid induced by the visibility kernel.

Transition probabilities go as kernel weight times target-cell measure
over the visible pairs, so the embedded chain is reversible with respect
to  measure * rate.  Crossing statistics between the two bells of a
dumbbell are Monte Carlo over seeded, batch-advanced paths; step counts,
not holding times, are the observable (per-state total rates are kept as
metadata).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import mesh
from .geometry import TAG_MINUS, TAG_PLUS

#: a run whose censored fraction exceeds this fails loudly
MAX_CENSORED_FRACTION = 0.05


@dataclass
class ChainModel:
    P: np.ndarray                # (N, N) row-stochastic (zero rows isolated)
    rates: np.ndarray            # (N,) total unnormalized jump rate
    grid: mesh.Grid | None
    isolated: np.ndarray         # (N,) bool
    _cdf: np.ndarray = None

    @property
    def n_states(self):
        return self.P.shape[0]

    def cdf(self):
        if self._cdf is None:
            self._cdf = np.cumsum(self.P, axis=1)
            # a draw above a row's rounded total must land on the row's last
            # reachable state, not on state N-1: the row reads 1.0 from its
            # last positive entry on, and stays monotone for the bisection
            for row, p in zip(self._cdf, self.P):
                reach = np.flatnonzero(p)
                row[reach[-1] if reach.size else -1:] = 1.0
        return self._cdf


def build_chain(grid, pairs, kernel):
    """Row-normalized visible-jump chain; isolated states are flagged."""
    n = grid.n_cells
    W = np.zeros((n, n))
    keep = pairs.visible
    i = pairs.i[keep]
    j = pairs.j[keep]
    k = kernel.k(pairs.r[keep])
    W[i, j] = k * grid.measures[j]
    W[j, i] = k * grid.measures[i]
    rates = W.sum(axis=1)
    isolated = rates == 0.0
    if isolated.all():
        raise ValueError("every state is isolated; the chain cannot move")
    P = np.zeros_like(W)
    live = ~isolated
    P[live] = W[live] / rates[live, None]
    return ChainModel(P=P, rates=rates, grid=grid, isolated=isolated)


def _advance(chain, states, rng):
    """One synchronous step for a batch of states (vectorized bisection)."""
    cdf = chain.cdf()
    n = chain.n_states
    u = rng.random(states.shape[0])
    lo = np.zeros(states.shape[0], dtype=np.int64)
    hi = np.full(states.shape[0], n, dtype=np.int64)
    # invariant: cdf[s, lo-1] < u <= cdf[s, hi-1]
    steps = int(np.ceil(np.log2(max(2, n)))) + 1
    for _ in range(steps):
        mid = (lo + hi) // 2
        v = cdf[states, np.minimum(mid, n - 1)]
        go_right = v < u
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(go_right, hi, mid)
    return np.minimum(lo, n - 1)


@dataclass
class CrossingStats:
    mean_steps: float
    ci95: float
    n_paths: int
    n_completed: int
    n_censored: int
    direct_cross_jumps: int      # observed bell-to-bell transitions
    steps: np.ndarray = field(repr=False, default=None)


def mean_crossing_time(chain, n_paths=1000, max_steps=1_000_000, seed=0,
                       source_tag=TAG_MINUS, target_tag=TAG_PLUS,
                       deep_fraction=0.5):
    """Expected first-hit step count from one bell to the other.

    Paths start from the measure-weighted distribution on source-tagged
    cells deep in the bell (x1 below -deep_fraction * R) and stop on any
    target-tagged cell.  Censored paths (max_steps) are excluded from the
    mean and reported; more than MAX_CENSORED_FRACTION of them fails.
    """
    grid = chain.grid
    if grid is None or grid.domain.dumbbell is None:
        raise ValueError("crossing times need a dumbbell-tagged grid")
    tags = grid.tags
    source = np.nonzero((tags == source_tag)
                        & (grid.centers[:, 0] < -deep_fraction * grid.R)
                        & ~chain.isolated)[0]
    target_mask = tags == target_tag
    if source.size == 0:
        raise ValueError("no live source cells deep in the bell")
    if not target_mask.any():
        raise ValueError("no target cells")

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x3A1C]))
    weights = grid.measures[source]
    states = rng.choice(source, size=n_paths, p=weights / weights.sum())
    steps = np.zeros(n_paths, dtype=np.int64)
    done = target_mask[states]          # start-in-target costs zero steps
    active = np.nonzero(~done)[0]
    cur = states[active]
    taken = np.zeros(active.size, dtype=np.int64)
    direct = 0
    src_mask = tags == source_tag
    while active.size:
        nxt = _advance(chain, cur, rng)
        direct += int(np.sum(src_mask[cur] & target_mask[nxt]))
        taken += 1
        hit = target_mask[nxt]
        timeout = taken >= max_steps
        finish = hit | timeout
        if finish.any():
            idx = active[finish]
            steps[idx] = np.where(hit[finish], taken[finish], -1)
            keepm = ~finish
            active = active[keepm]
            cur = nxt[keepm]
            taken = taken[keepm]
        else:
            cur = nxt
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
    return CrossingStats(mean_steps=mean, ci95=ci, n_paths=n_paths,
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
