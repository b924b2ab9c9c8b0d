"""Acceptance suite: every quantitative exit criterion, one test each.

Each test prints a single machine-readable pass/fail line.  Criterion 1
is split: the ratio of ball-restricted to censored energy of the strip
{x1 + x2 < 1/n} decreases, and it follows the 1/log n law with its
constant term.  The strip is decided on the lattice: with cells of side
h = 1/(8n), the centre sums are (i + j + 1) h, and a cell is in the strip
when its centre sum is strictly below 1/n = 8h, so cells centred on the
line stay out and the strip holds the same 28 cells at every n.  Then

* n^2 num is the same at every n: the ball-restricted energy only sees
  pairs within half a boundary distance, a self-similar set;
* n^2 den = c1 ln n + c2 + O(1/n) with c1 = pi |A_h| n^2 = pi 28/64:
  every strip cell sees r^-2 over the rest of the quarter plane, whose
  angle pi/2 integrates to (pi/2) ln n between r ~ 1/n and r ~ 1, doubled
  for ordered pairs.

The constant c2 is about 2.8 c1, so ratio(4)/ratio(32) is about 1.56; the
[2, 4] band that once stood here holds only for a pure C/ln n, which
neither the paper nor forms.counterexample_ratio promises.  The law is
tighter than that band, and must not be loosened.
"""

import time

import numpy as np
import pytest

from visform import (cli, forms, geometry as geo, kernels as kn, mesh,
                     spectral, walker, whitney)


def report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


@pytest.fixture(scope="module")
def straight():
    return geo.make_dumbbell("straight")


@pytest.fixture(scope="module")
def curved():
    return geo.make_dumbbell("curved")


@pytest.fixture(scope="module")
def kernel_s025():
    return kn.KernelSpec("power", s=0.25, p=2)


# -- criterion 1: counterexample decay --------------------------------------

#: criterion 1's cells have side h = 1/(RESOLUTION n)
RESOLUTION = 8


def counterexample_law_failures(rows, resolution_factor=RESOLUTION):
    """Where rows (n, num, den, ratio), by increasing n, break the law.

    Returns [] when (i) n^2 num agrees across n to a relative 1e-12 and
    (ii) between consecutive n the slope of n^2 den against ln n is
    c1 (1 +- 1/n) for the smaller n, with c1 = pi |A_h| n^2 taken from the
    strip's cell count, not fitted.
    """
    f = resolution_factor
    # lattice cells (i, j) whose centre sum (i + j + 1) h is below 1/n = f h
    cells = sum(1 for i in range(f) for j in range(f) if i + j + 1 < f)
    c1 = np.pi * cells / f ** 2
    failures = []
    n0, num0 = rows[0][0], rows[0][1]
    for n, num, _, _ in rows[1:]:
        if abs(n * n * num / (n0 * n0 * num0) - 1.0) > 1e-12:
            failures.append(f"n^2*num({n})={n * n * num!r} "
                            f"!= n^2*num({n0})={n0 * n0 * num0!r}")
    for (a, _, den_a, _), (b, _, den_b, _) in zip(rows, rows[1:]):
        slope = (b * b * den_b - a * a * den_a) / np.log(b / a)
        if abs(slope / c1 - 1.0) > 1.0 / a:
            failures.append(f"slope({a}->{b})/c1={slope / c1:.4f} "
                            f"outside 1+-1/{a}")
    return failures


@pytest.fixture(scope="module")
def counterexample_rows():
    t0 = time.perf_counter()
    rows = [(n, *forms.counterexample_ratio(n, RESOLUTION))
            for n in (4, 8, 16, 32)]
    elapsed = time.perf_counter() - t0
    return rows, elapsed


def test_criterion_01_counterexample_decreasing(counterexample_rows):
    rows, elapsed = counterexample_rows
    ratios = [r[3] for r in rows]
    ok = all(a > b for a, b in zip(ratios, ratios[1:])) and elapsed < 60.0
    detail = " ".join(f"ratio({n})={r:.5f}" for n, _, _, r in rows)
    assert report(1, "counterexample-decay", ok,
                  f"{detail} runtime={elapsed:.1f}s")


def test_criterion_01_counterexample_span_band(counterexample_rows):
    rows, _ = counterexample_rows
    n0, num0 = rows[0][:2]
    span = rows[0][3] / rows[-1][3]
    failures = counterexample_law_failures(rows)
    scaled = " ".join(f"n^2*den({n})={n * n * den:.4f}"
                      for n, _, den, _ in rows)
    report(1, "counterexample-1/log-n-law", not failures,
           f"ratio(4)/ratio(32)={span:.4f} n^2*num={n0 * n0 * num0!r} "
           f"{scaled} (n^2*den = c1*ln(n) + c2 + O(1/n), "
           f"c1=pi*28/64, c2~2.8*c1; strip: centre sum < 1/n) "
           + "; ".join(failures))
    assert not failures, failures


def test_criterion_01_law_rejects_other_laws():
    # negative controls: exact law rows pass, and each kind of slip fails
    c1 = np.pi * 28 / 64
    ns = (4, 8, 16, 32)

    def rows(num, den):
        return [(n, num(n) / n ** 2, den(n) / n ** 2, num(n) / den(n))
                for n in ns]

    def law(n):
        return c1 * np.log(n) + 2.8 * c1

    assert counterexample_law_failures(rows(lambda n: 0.38125, law)) == []
    bad = {
        "slope 1.2 c1": rows(lambda n: 0.38125,
                             lambda n: 1.2 * c1 * np.log(n) + 2.8 * c1),
        "log term in the ball energy": rows(
            lambda n: 0.38125 * (1 + 0.1 * np.log(n)), law),
        "power-law decay": rows(lambda n: 0.38125,
                                lambda n: 0.38125 / 0.0694 * (n / 4) ** 0.25),
        "factor-2 slip in the weights": rows(lambda n: 0.38125,
                                             lambda n: 2 * law(n)),
        "36-cell strip": rows(lambda n: 0.55625,
                              lambda n: law(n) * 36 / 28),
    }
    for name, r in bad.items():
        assert counterexample_law_failures(r), name


# -- criterion 2: convexity identity ----------------------------------------

def test_criterion_02_convex_identity():
    grid = mesh.build_grid(geo.make_box(1, 1), (0.5, 0.5), 1.0, 1.0 / 16.0)
    pairs = mesh.visibility_pairs(grid)
    kernel = kn.KernelSpec("power", s=0.5, p=2)
    vis = forms.assemble(grid, pairs, kernel, "vis")
    cen = forms.assemble(grid, pairs, kernel, "cen")
    same_pairs = (np.array_equal(vis.pair_i, cen.pair_i)
                  and np.array_equal(vis.pair_j, cen.pair_j)
                  and np.array_equal(vis.weight, cen.weight))
    rng = np.random.default_rng(np.random.SeedSequence([0, 0xACC2]))
    equal = all(forms.energy(vis, u) == forms.energy(cen, u)
                for u in rng.standard_normal((100, grid.n_cells)))
    ok = same_pairs and equal
    assert report(2, "convex-identity", ok,
                  f"pairs={vis.n_pairs} exact-equal-on-100-u={equal}")


# -- criterion 3: ordering chain ---------------------------------------------

def test_criterion_03_ordering_chain(straight, curved):
    domains = [("annulus", geo.make_annulus(), (0.0, 0.0), 1.0, 1.0 / 8.0),
               ("straight", straight, (0.0, 0.0), 4.0, 0.5),
               ("curved", curved, (0.0, 0.0), 4.0, 0.5)]
    kernel = kn.KernelSpec("power", s=0.5, p=2)
    rng = np.random.default_rng(np.random.SeedSequence([0, 0xACC3]))
    ok = True
    counts = []
    for name, dom, x0, R, h in domains:
        grid = mesh.build_grid(dom, x0, R, h)
        pairs = mesh.visibility_pairs(grid)
        ops = {m: forms.assemble(grid, pairs, kernel, m)
               for m in ("ball", "vis", "cen")}
        key = lambda f: set(zip(f.pair_i.tolist(), f.pair_j.tolist()))
        inc = key(ops["ball"]) <= key(ops["vis"]) <= key(ops["cen"])
        ineq = True
        for u in rng.standard_normal((100, grid.n_cells)):
            e = {m: forms.energy(ops[m], u) for m in ops}
            ineq &= e["ball"] <= e["vis"] <= e["cen"]
        ok &= inc and ineq
        counts.append(f"{name}:{ops['ball'].n_pairs}<="
                      f"{ops['vis'].n_pairs}<={ops['cen'].n_pairs}")
    assert report(3, "ordering-chain", ok, " ".join(counts))


# -- criterion 4: comparability on the annulus -------------------------------

def test_criterion_04_comparability():
    dom = geo.make_annulus()
    kernel = kn.KernelSpec("power", s=0.5, p=2)
    rng = np.random.default_rng(np.random.SeedSequence([0, 0xACC4]))
    maxima = []
    for h in (1.0 / 8.0, 1.0 / 16.0):
        grid = mesh.build_grid(dom, (0.0, 0.0), 1.0, h)
        pairs = mesh.visibility_pairs(grid)
        vis = forms.assemble(grid, pairs, kernel, "vis")
        cen = forms.assemble(grid, pairs, kernel, "cen")
        worst = max(forms.energy(cen, u) / forms.energy(vis, u)
                    for u in rng.standard_normal((200, grid.n_cells)))
        maxima.append(worst)
    drift = max(maxima) / min(maxima)
    ok = max(maxima) < 50.0 and drift < 2.0
    assert report(4, "comparability", ok,
                  f"max(h)={maxima[0]:.3f} max(h/2)={maxima[1]:.3f} "
                  f"drift={drift:.3f}")


# -- criteria 5-7: scaling laws ----------------------------------------------

def test_criterion_05_nonlocal_scaling_subcorridor(straight, kernel_s025):
    t0 = time.perf_counter()
    rep = spectral.scaling_experiment(straight, kernel_s025, 2.0,
                                      [8, 16, 32, 64], method="witness")
    elapsed = time.perf_counter() - t0
    ok = 1.35 <= rep.fitted <= 1.65 and elapsed < 600.0
    assert report(5, "nonlocal-scaling-straight-s0.25", ok,
                  f"fitted={rep.fitted:.4f} (predicted 1.5) "
                  f"runtime={elapsed:.0f}s")


def test_criterion_06_nonlocal_scaling_diffusive(straight, curved,
                                                 kernel_s025):
    rep_curved = spectral.scaling_experiment(curved, kernel_s025, 2.0,
                                             [8, 16, 32, 64],
                                             method="witness")
    rep_s075 = spectral.scaling_experiment(
        straight, kn.KernelSpec("power", s=0.75, p=2), 2.0,
        [8, 16, 32, 64], method="witness")
    ok_c = 1.85 <= rep_curved.fitted <= 2.15
    ok_s = 1.85 <= rep_s075.fitted <= 2.15
    assert report(6, "nonlocal-scaling-diffusive", ok_c and ok_s,
                  f"curved={rep_curved.fitted:.4f} "
                  f"straight-s0.75={rep_s075.fitted:.4f} (predicted 2)")


def test_criterion_07_local_scaling(straight):
    rep = spectral.scaling_experiment(straight, None, 1.0, [8, 16, 32],
                                      method="witness")
    ok = 1.7 <= rep.fitted <= 2.3
    assert report(7, "local-scaling-p1", ok,
                  f"fitted={rep.fitted:.4f} (predicted 2)")


# -- criterion 8: eigen consistency ------------------------------------------

def test_criterion_08_eigen_consistency(straight, kernel_s025):
    eig = spectral.scaling_experiment(straight, kernel_s025, 2.0, [4, 8, 16],
                                      method="eigen")
    wit = spectral.scaling_experiment(straight, kernel_s025, 2.0, [4, 8, 16],
                                      method="witness")
    dominates = all(e >= w for (_, e), (_, w) in zip(eig.samples, wit.samples))
    gap = abs(eig.fitted - wit.fitted)
    ok = dominates and gap <= 0.4
    assert report(8, "eigen-consistency", ok,
                  f"C_P>=witness:{dominates} "
                  f"fit-gap={gap:.3f} (eigen={eig.fitted:.3f}, "
                  f"witness={wit.fitted:.3f})")


# -- criterion 9: Neumann benchmark ------------------------------------------

def test_criterion_09_neumann_benchmark():
    grid = mesh.build_grid(geo.make_box(1, 1), (0.5, 0.5), 1.0, 1.0 / 64.0)
    form = forms.assemble(grid, None, None, "local", p=2)
    cp = spectral.poincare_constant_l2(form, grid)
    target = 1.0 / np.pi ** 2
    ok = abs(cp - target) <= 0.05 * target
    assert report(9, "neumann-square", ok,
                  f"C_P={cp:.6f} vs 1/pi^2={target:.6f} "
                  f"relerr={abs(cp - target) / target:.2%}")


# -- criterion 10: Whitney suite ---------------------------------------------

def test_criterion_10_whitney_suite(straight, curved):
    domains = [("square", geo.make_box(1, 1)),
               ("annulus", geo.make_annulus()),
               ("straight", geo.clip_ball(straight, (0.0, 0.0), 8.0)),
               ("curved", geo.clip_ball(curved, (0.0, 0.0), 8.0))]
    ok = True
    details = []
    annulus_decomp = None
    for name, dom in domains:
        decomp = whitney.whitney_decompose(dom, max_level=8)
        residual, measure = whitney.coverage_residual(decomp)
        bad = whitney.check_sandwich(decomp)
        disjoint = whitney.disjoint_interiors(decomp)
        sup8, _ = whitney.verify_whitney_sum(decomp, 2.0, 3.0)
        finer = whitney.whitney_decompose(dom, max_level=9)
        sup9, _ = whitney.verify_whitney_sum(finer, 2.0, 3.0)
        drift = max(sup8, sup9) / min(sup8, sup9)
        dom_ok = (residual < 0.02 * measure and not bad and disjoint
                  and drift < 2.0)
        ok &= dom_ok
        details.append(f"{name}:res={100 * residual / measure:.2f}%"
                       f",drift={drift:.2f}")
        if name == "annulus":
            annulus_decomp = decomp
    rng = np.random.default_rng(np.random.SeedSequence([0, 0xACC10]))
    found = 0
    for _ in range(100):
        qi, si = (int(v) for v in
                  rng.integers(0, annulus_decomp.n_cubes, size=2))
        chain = whitney.find_admissible_chain(annulus_decomp, qi, si, 0.05)
        if chain is not None and whitney.validate_chain(annulus_decomp, chain):
            found += 1
    ok &= found == 100
    assert report(10, "whitney-suite", ok,
                  " ".join(details) + f" chains={found}/100")


# -- criterion 11: walker structure ------------------------------------------

def test_criterion_11_walker_structure(straight, curved, kernel_s025):
    stats = {}
    for name, dom in (("straight", straight), ("curved", curved)):
        grid = mesh.build_grid(dom, (0.0, 0.0), 16.0, 0.5)
        pairs = mesh.visibility_pairs(grid)
        chain = walker.build_chain(grid, pairs, kernel_s025)
        stats[name] = walker.mean_crossing_time(
            chain, n_paths=1000, max_steps=200_000, seed=7)
        if name == "curved":
            big = walker.mean_crossing_time(
                chain, n_paths=10_000, max_steps=200_000, seed=11)
    s, c = stats["straight"], stats["curved"]
    no_direct = big.direct_cross_jumps == 0
    ordered = c.mean_steps >= s.mean_steps
    separated = (c.mean_steps - c.ci95) > (s.mean_steps + s.ci95)
    ok = no_direct and ordered and separated
    assert report(11, "walker-structure", ok,
                  f"direct-cross(1e4 paths)={big.direct_cross_jumps} "
                  f"straight={s.mean_steps:.0f}+-{s.ci95:.0f} "
                  f"curved={c.mean_steps:.0f}+-{c.ci95:.0f}")


# -- criterion 12: determinism ------------------------------------------------

def test_criterion_12_reproduce_all_determinism(tmp_path):
    outputs = []
    codes = []
    for sub in ("run1", "run2"):
        out = tmp_path / sub
        codes.append(cli.reproduce_all(str(out), seed=0, quick=True))
        blobs = {}
        for f in sorted(out.rglob("*")):
            if f.is_file() and f.name != "timings.log":
                blobs[str(f.relative_to(out))] = f.read_bytes()
        outputs.append(blobs)
    identical = outputs[0] == outputs[1]
    # every writer emits plain numbers, never the reprs of numpy scalars
    numpy_reprs = sorted(name for name, blob in outputs[0].items()
                         if b"np.float64(" in blob or b"np.int64(" in blob)
    ok = (identical and not numpy_reprs and codes[0] == codes[1]
          and codes[0] in (0, 2))
    assert report(12, "reproduce-all-determinism", ok,
                  f"files={len(outputs[0])} byte-identical={identical} "
                  f"numpy-reprs={numpy_reprs} exit-codes={codes}")
