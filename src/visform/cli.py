"""Experiment runner: one subcommand per experiment, deterministic outputs.

Every experiment writes its own directory under ``--outdir``:

* ``samples.csv``   the quantitative rows (schema per experiment),
* ``summary.txt``   machine-readable key=value lines incl. the verdict,
* ``config.txt``    the normalized configuration that produced the run:
  the name, the experiment's own fields, ``seed`` and ``outdir``,
* ``plot.gp``       a gnuplot script over samples.csv,
* ``timings.log``   wall-clock per step (excluded from determinism checks).

``COMMANDS`` holds each experiment's fields and defaults, the only schema:
the subcommands, ``run --config`` and the ``reproduce-all`` suite all start
from it, and a key an experiment does not have is refused.

Exit code 0 means every quantitative check passed, 2 means at least one
failed, 1 means the run errored.  Identical configurations reproduce the
CSV/summary bytes exactly; all randomness flows from the seed through
named substreams.
"""

from __future__ import annotations

import argparse
import configparser
import io
import sys
import time
import types
from pathlib import Path

import numpy as np

from . import forms, geometry, kernels, mesh, spectral, walker, whitney

#: each experiment's own fields and their defaults, the one schema: they
#: are its subcommand's flags and its config file's keys; a key left out
#: takes its default, and a given one is parsed to the default's type
COMMANDS = {
    "counterexample": dict(n_list=(4, 8, 16, 32), resolution_factor=8),
    "scaling-nonlocal": dict(domain="straight-dumbbell",
                             kernel="power:s=0.25,p=2",
                             R=(8.0, 16.0, 32.0, 64.0), method="witness",
                             h=0.5),
    "scaling-local": dict(domain="straight-dumbbell", p=1.0,
                          R=(8.0, 16.0, 32.0), method="witness", h=0.5),
    "comparability": dict(domain="annulus:0.3333333333333333,1",
                          kernel="power:s=0.5,p=2", h=0.125, n_random=200),
    "whitney-audit": dict(domain="annulus:0.3333333333333333,1",
                          epsilon=0.05, max_level=8, pairs=100, clip_R=8.0,
                          path_audit=False),
    "walk": dict(domain="curved-dumbbell", kernel="power:s=0.25,p=2",
                 R=(16.0,), paths=1000, max_steps=200_000, h=0.5),
    "check-domain": dict(domain="straight-dumbbell", R=(8.0, 16.0, 32.0),
                         samples=40_000),
}
#: the fields of every experiment besides its own; ``counterexample`` draws
#: nothing from the seed
COMMON = dict(outdir="out", seed=0)

#: fixed quantitative bands of the aggregate checks; the counterexample's
#: n^2-scaled numerator must agree across n to this relative tolerance
COUNTEREXAMPLE_NUM_RTOL = 1e-12
COMPARABILITY_MAX = 50.0
COMPARABILITY_DRIFT = 2.0
WHITNEY_RESIDUAL_FRACTION = 0.02
WHITNEY_SUP_DRIFT = 2.0


class ExperimentConfig(types.SimpleNamespace):
    """Experiment ``name`` with the fields ``COMMANDS[name] | COMMON``, each
    at its default unless given; a key outside them is refused."""

    def __init__(self, name, **values):
        if name not in COMMANDS:
            raise ValueError(f"unknown experiment {name!r}")
        fields = COMMANDS[name] | COMMON
        for key in values:
            if key not in fields:
                raise ValueError(f"unknown config key {key!r} for {name}")
        super().__init__(name=name, **fields | values)

    def validate(self):
        """Refuse values the experiment cannot run with; a field is
        checked only on the experiments that have it."""
        has = vars(self)
        for key in ("h", "clip_R", "epsilon", "pairs", "paths", "max_steps",
                    "n_random", "samples"):
            if key in has and not has[key] > 0:
                raise ValueError(f"{key} must be positive, got {has[key]}")
        if "R" in has and not all(R > 0 for R in self.R):
            raise ValueError(f"radii must be positive, got {self.R}")
        if "max_level" in has and self.max_level < 0:
            raise ValueError(f"max_level must be >= 0, got {self.max_level}")
        if self.name == "counterexample":
            if any(a >= b for a, b in zip(self.n_list, self.n_list[1:])):
                raise ValueError(f"n_list must be strictly increasing, "
                                 f"got {self.n_list}")
            forms.check_counterexample(self.n_list, self.resolution_factor)
            return self
        domain = geometry.parse_domain(self.domain)
        kernel = kernels.parse_kernel(self.kernel) if "kernel" in has else None
        if self.name == "comparability":
            domain.bounding_box()            # the grid spans the domain's box
        # every radius R clips a ball about the dumbbell's centre
        if "R" in has and domain.dumbbell is None:
            raise ValueError(f"{self.name} needs a dumbbell domain, got "
                             f"{self.domain!r}")
        if self.name == "walk" and len(self.R) != 1:
            raise ValueError(f"walk takes one radius, got {self.R}")
        if "method" in has:                  # the scaling experiments
            if self.method not in ("witness", "eigen"):
                raise ValueError(f"unknown method {self.method!r}")
            p = self.p if kernel is None else kernel.p
            if self.method == "eigen" and p != 2:
                raise ValueError("the eigen method needs p = 2")
            spectral.predicted_exponent(domain, kernel, p)
            spectral.check_sweep(domain, self.R, self.h)
        return self


def _parse_bool(s):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[s.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {s!r}") from None


def _parse(default, text):
    """``text`` as a value of ``default``'s type; a tuple's items take the
    type of its first item."""
    if isinstance(default, bool):
        return _parse_bool(text)
    if isinstance(default, tuple):
        return tuple(type(default[0])(v) for v in text.split(","))
    return type(default)(text)


def _config(name, raw):
    """Experiment ``name`` with each ``{field: text}`` of ``raw`` parsed like
    the field's default; the constructor refuses a key ``name`` lacks."""
    defaults = vars(ExperimentConfig(name))
    values = {}
    for key, text in raw.items():
        try:
            values[key] = _parse(defaults.get(key, text), text)
        except ValueError as exc:
            raise ValueError(f"bad {key}: {exc}") from None
    return ExperimentConfig(name, **values).validate()


def parse_config(text, overrides=()):
    """Config from an ``[experiment]`` file, then ``KEY=VALUE`` overrides."""
    cp = configparser.ConfigParser()
    cp.optionxform = str           # keys are case-sensitive (R vs r)
    cp.read_string(text)
    if "experiment" not in cp:
        raise ValueError("config needs an [experiment] section")
    raw = dict(cp["experiment"])
    for item in overrides:
        key, _, val = item.partition("=")
        if not val:
            raise ValueError(f"override needs KEY=VALUE, got {item!r}")
        raw[key] = val
    if "name" not in raw:
        raise ValueError("config is missing the experiment name")
    return _config(raw.pop("name"), raw)


def _number_text(v):
    """``{v:g}`` for a float it reads back as, else the exact ``repr``."""
    if isinstance(v, int) or float(f"{v:g}") != v:
        return repr(v)
    return f"{v:g}"


def config_to_text(cfg):
    """Canonical serialization; parse . serialize is the identity on it."""
    lines = ["[experiment]", f"name = {cfg.name}"]
    for key in sorted(vars(cfg)):
        if key == "name":
            continue
        val = getattr(cfg, key)
        if isinstance(val, tuple):
            val = ",".join(map(_number_text, val))
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

class RunDir:
    def __init__(self, root, name):
        self.path = Path(root) / name
        self.path.mkdir(parents=True, exist_ok=True)
        self._timings = []

    def write(self, fname, text):
        (self.path / fname).write_text(text)

    def csv(self, fname, header, rows):
        buf = io.StringIO()
        buf.write(",".join(header) + "\n")
        for row in rows:
            buf.write(",".join(
                repr(float(v)) if isinstance(v, float) else str(v)
                for v in row) + "\n")
        self.write(fname, buf.getvalue())

    def time(self, label, seconds):
        self._timings.append(f"{label} {seconds:.3f}s")

    def finish_timings(self):
        if self._timings:
            self.write("timings.log", "\n".join(self._timings) + "\n")

    def plot(self, xlabel, ylabel, using="1:2", logscale=True, fname="plot.gp"):
        lines = ["set datafile separator ','",
                 f"set xlabel '{xlabel}'", f"set ylabel '{ylabel}'"]
        if logscale:
            lines.append("set logscale xy")
        lines.append(f"plot 'samples.csv' using {using} with linespoints "
                     f"title '{ylabel}'")
        self.write(fname, "\n".join(lines) + "\n")


def _summary(rundir, pairs_list):
    rundir.write("summary.txt",
                 "\n".join(f"{k}={v}" for k, v in pairs_list) + "\n")


def _domain_for(cfg):
    dom = geometry.parse_domain(cfg.domain)
    if dom.dumbbell is not None:
        dom = geometry.clip_ball(dom, dom.dumbbell.x0, cfg.clip_R)
    return dom


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def run_counterexample(cfg, rundir):
    rows = []
    for n in cfg.n_list:
        t0 = time.perf_counter()
        num, den, ratio = forms.counterexample_ratio(n, cfg.resolution_factor)
        rundir.time(f"n={n}", time.perf_counter() - t0)
        rows.append((n, num, den, ratio))
    rundir.csv("samples.csv", ("n", "numerator", "denominator", "ratio"), rows)
    rundir.plot("n", "ratio", using="1:4")
    ratios = [r[3] for r in rows]
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    span = ratios[0] / ratios[-1]
    # the 1/log n law (see forms.counterexample_ratio): n^2 num is the same
    # at every n, and n^2 den rises against ln n with slope c1 up to O(1/n)
    scaled = [(n, n * n * num, n * n * den) for n, num, den, _ in rows]
    num0 = scaled[0][1]
    self_similar = all(abs(s_num - num0) <= COUNTEREXAMPLE_NUM_RTOL * num0
                       for _, s_num, _ in scaled)
    c1 = forms.counterexample_log_coefficient(cfg.resolution_factor)
    log_slope = all(
        abs((db - da) / np.log(b / a) / c1 - 1.0) <= 1.0 / a
        for (a, _, da), (b, _, db) in zip(scaled, scaled[1:]))
    checks = [("strictly_decreasing", decreasing),
              ("numerator_self_similar", self_similar),
              ("denominator_log_slope", log_slope)]
    ok = all(v for _, v in checks)
    _summary(rundir, [("experiment", cfg.name),
                      ("ratio_span", repr(span)),
                      *[(k, "pass" if v else "fail") for k, v in checks],
                      ("verdict", "pass" if ok else "fail")])
    return ok


def _run_scaling(cfg, rundir, kernel):
    dom = geometry.parse_domain(cfg.domain)
    p = cfg.p if kernel is None else kernel.p
    rep = spectral.scaling_experiment(dom, kernel, p, list(cfg.R),
                                      method=cfg.method, h=cfg.h,
                                      seed=cfg.seed)
    rows = [(R, n, v, cfg.method)
            for (R, v), n in zip(rep.samples, rep.n_cells)]
    rundir.csv("samples.csv", ("R", "N_cells", "value", "method"), rows)
    for (R, _), sec in zip(rep.samples, rep.seconds):
        rundir.time(f"R={R:g}", sec)
    rundir.plot("R", "value", using="1:3")
    _summary(rundir, [("experiment", cfg.name),
                      *[(k, v) for line in rep.summary_lines()
                        for k, v in [line.split("=", 1)]]])
    return rep.verdict


def run_scaling_nonlocal(cfg, rundir):
    return _run_scaling(cfg, rundir, kernels.parse_kernel(cfg.kernel))


def run_scaling_local(cfg, rundir):
    return _run_scaling(cfg, rundir, None)


def run_comparability(cfg, rundir):
    dom = geometry.parse_domain(cfg.domain)
    kernel = kernels.parse_kernel(cfg.kernel)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xA11D]))
    rows = []
    maxima = []
    for h in (cfg.h, cfg.h / 2.0):
        t0 = time.perf_counter()
        lo, hi = dom.bounding_box()
        x0 = tuple((lo + hi) / 2.0)
        R = float(np.max(hi - lo))
        grid = mesh.build_grid(dom, x0, R, h)
        pairset = mesh.visibility_pairs(grid)
        vis = forms.assemble(grid, pairset, kernel, "vis", kernel.p)
        cen = forms.assemble(grid, pairset, kernel, "cen", kernel.p)
        worst = 0.0
        for _ in range(cfg.n_random):
            u = rng.standard_normal(grid.n_cells)
            ev = forms.energy(vis, u)
            ec = forms.energy(cen, u)
            worst = max(worst, ec / ev)
        maxima.append(worst)
        rows.append((h, grid.n_cells, worst))
        rundir.time(f"h={h:g}", time.perf_counter() - t0)
    rundir.csv("samples.csv", ("h", "N_cells", "max_cen_over_vis"), rows)
    rundir.plot("h", "max ratio", using="1:3", logscale=False)
    drift = max(maxima) / min(maxima)
    ok = (max(maxima) < COMPARABILITY_MAX) and (drift < COMPARABILITY_DRIFT)
    _summary(rundir, [("experiment", cfg.name),
                      ("max_ratio_coarse", repr(float(maxima[0]))),
                      ("max_ratio_fine", repr(float(maxima[1]))),
                      ("drift", repr(float(drift))),
                      ("verdict", "pass" if ok else "fail")])
    return ok


def run_whitney_audit(cfg, rundir):
    dom = _domain_for(cfg)
    t0 = time.perf_counter()
    decomp = whitney.whitney_decompose(dom, max_level=cfg.max_level)
    rundir.time("decompose", time.perf_counter() - t0)
    decomp.dump_csv(rundir.path / "cubes.csv")

    residual, measure = whitney.coverage_residual(decomp)
    bad = whitney.check_sandwich(decomp)
    disjoint = whitney.disjoint_interiors(decomp)

    t0 = time.perf_counter()
    finer = whitney.whitney_decompose(dom, max_level=cfg.max_level + 1)
    rundir.time("decompose-finer", time.perf_counter() - t0)

    t0 = time.perf_counter()
    sup_here, _ = whitney.verify_whitney_sum(decomp, a=2.0, b=3.0)
    sup_finer, _ = whitney.verify_whitney_sum(finer, a=2.0, b=3.0)
    rundir.time("whitney-sum", time.perf_counter() - t0)
    sup_drift = max(sup_here, sup_finer) / min(sup_here, sup_finer)

    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xC4A]))
    n = decomp.n_cubes
    found = 0
    chain_rows = []
    t0 = time.perf_counter()
    for _ in range(cfg.pairs):
        qi, si = (int(v) for v in rng.integers(0, n, size=2))
        chain = whitney.find_admissible_chain(decomp, qi, si, cfg.epsilon)
        if chain is not None:
            found += 1
            chain_rows.append((qi, si, len(chain.indices), chain.j0,
                               chain.length))
        else:
            chain_rows.append((qi, si, -1, -1, -1.0))
    rundir.time("chains", time.perf_counter() - t0)
    rundir.csv("chains.csv", ("q", "s", "size", "central", "length"),
               chain_rows)
    rundir.csv("samples.csv", ("max_level", "n_cubes", "residual", "measure",
                               "sup_ratio"),
               [(cfg.max_level, n, residual, measure, sup_here),
                (cfg.max_level + 1, finer.n_cubes, -1.0, measure, sup_finer)])
    rundir.plot("max_level", "sup ratio", using="1:5", logscale=False)

    # the 2% residual band is pinned at audit depth 8; the uncovered sliver
    # width scales with the finest cube side, so the band scales accordingly
    residual_band = WHITNEY_RESIDUAL_FRACTION * 2.0 ** (8 - cfg.max_level)
    checks = [("residual_small", residual < residual_band * measure),
              ("sandwich_exact", not bad),
              ("disjoint", disjoint),
              ("sup_stable", sup_drift < WHITNEY_SUP_DRIFT),
              ("chains_found", found == cfg.pairs)]
    lines = [("experiment", cfg.name), ("n_cubes", n),
             ("residual_fraction", repr(float(residual / measure))),
             ("residual_band", repr(float(residual_band))),
             ("sup_ratio", repr(float(sup_here))),
             ("sup_drift", repr(float(sup_drift))),
             ("chains_found", f"{found}/{cfg.pairs}")]
    if cfg.path_audit:
        t0 = time.perf_counter()
        rep = whitney.audit_visible_paths(dom, seed=cfg.seed, decomp=decomp)
        rundir.time("path-audit", time.perf_counter() - t0)
        checks.append(("path_audit", rep.ok))
        lines.append(("path_audit_paths",
                      f"{rep.found}/{rep.n_pairs} max_len={rep.max_path_len}"))
    ok = all(v for _, v in checks)
    _summary(rundir, lines +
             [(k, "pass" if v else "fail") for k, v in checks] +
             [("verdict", "pass" if ok else "fail")])
    return ok


def run_walk(cfg, rundir):
    dom = geometry.parse_domain(cfg.domain)
    kernel = kernels.parse_kernel(cfg.kernel)
    t0 = time.perf_counter()
    grid = mesh.build_grid(dom, dom.dumbbell.x0, cfg.R[0], cfg.h)
    pairset = mesh.visibility_pairs(grid)
    chain = walker.build_chain(grid, pairset, kernel)
    stats = walker.mean_crossing_time(chain, n_paths=cfg.paths,
                                      max_steps=cfg.max_steps, seed=cfg.seed)
    rundir.time("walk", time.perf_counter() - t0)
    walker.dump_paths_csv(rundir.path / "samples.csv", stats)
    rundir.plot("path", "steps", using="1:2", logscale=False)
    _summary(rundir, [("experiment", cfg.name),
                      ("mean_steps", repr(stats.mean_steps)),
                      ("ci95", repr(stats.ci95)),
                      ("completed", stats.n_completed),
                      ("censored", stats.n_censored),
                      ("direct_cross_jumps", stats.direct_cross_jumps),
                      ("verdict", "pass")])
    return True


def run_check_domain(cfg, rundir):
    dom = geometry.parse_domain(cfg.domain)
    rep = geometry.audit_dumbbell_structure(dom, R_list=cfg.R,
                                     n_samples=cfg.samples, seed=cfg.seed)
    rows = [(R, rep.bell_ratios[R][0], rep.bell_ratios[R][1],
             *(rep.tilde_ratios.get(R, (-1.0, -1.0))))
            for R in sorted(rep.bell_ratios)]
    rundir.csv("samples.csv", ("R", "bell_minus", "bell_plus",
                               "tilde_minus", "tilde_plus"), rows)
    rundir.plot("R", "bell ratio", using="1:2", logscale=False)
    _summary(rundir, [("experiment", cfg.name)]
             + [tuple(line.split("=", 1)) for line in rep.summary_lines()]
             + [("verdict", "pass" if rep.ok else "fail")])
    return rep.ok


_RUNNERS = {
    "counterexample": run_counterexample,
    "scaling-nonlocal": run_scaling_nonlocal,
    "scaling-local": run_scaling_local,
    "comparability": run_comparability,
    "whitney-audit": run_whitney_audit,
    "walk": run_walk,
    "check-domain": run_check_domain,
}


def run(cfg, subdir=None):
    """Execute one experiment; returns the process exit code."""
    cfg.validate()
    rundir = RunDir(cfg.outdir, subdir or cfg.name)
    # the echoed config describes the experiment, not where it landed, so
    # identical runs into different trees stay byte-identical
    echo = ExperimentConfig(**vars(cfg) | {"outdir": "."})
    rundir.write("config.txt", config_to_text(echo))
    try:
        ok = _RUNNERS[cfg.name](cfg, rundir)
    except (ValueError, RuntimeError) as exc:
        rundir.write("error.txt", f"{type(exc).__name__}: {exc}\n")
        rundir.finish_timings()
        print(f"error [{cfg.name}]: {exc}", file=sys.stderr)
        return 1
    rundir.finish_timings()
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# the aggregate reproduction suite
# ---------------------------------------------------------------------------

def suite_configs(outdir, seed=0, quick=False):
    """The experiment set behind ``reproduce-all``.

    Each entry names its run directory and experiment, what it changes from
    the subcommand's defaults, and what ``quick`` changes on top of that.
    """
    R_small = dict(R=(4.0, 8.0, 16.0))
    walk_small = dict(R=(8.0,), paths=200)
    suite = [
        ("counterexample", "counterexample", {}, dict(n_list=(4, 8, 16))),
        ("scaling-straight-s025", "scaling-nonlocal", {}, R_small),
        ("scaling-curved-s025", "scaling-nonlocal",
         dict(domain="curved-dumbbell"), R_small),
        ("scaling-straight-s075", "scaling-nonlocal",
         dict(kernel="power:s=0.75,p=2"), R_small),
        ("scaling-eigen-small-R", "scaling-nonlocal",
         dict(R_small, method="eigen"), {}),
        ("scaling-local-p1", "scaling-local", {}, R_small),
        ("comparability-annulus", "comparability", {}, dict(n_random=50)),
        ("whitney-annulus", "whitney-audit", {}, dict(max_level=6, pairs=20)),
        ("check-straight", "check-domain", {}, dict(samples=10_000)),
        ("check-curved", "check-domain", dict(domain="curved-dumbbell"),
         dict(samples=10_000)),
        ("walk-straight", "walk", dict(domain="straight-dumbbell"),
         walk_small),
        ("walk-curved", "walk", {}, walk_small),
    ]
    return [(subdir, ExperimentConfig(
                name, **changes | (small if quick else {}),
                outdir=outdir, seed=seed))
            for subdir, name, changes, small in suite]


def reproduce_all(outdir, seed=0, quick=False):
    """Run the whole suite in order; nonzero exit iff any experiment fails."""
    results = [(subdir, run(cfg, subdir=subdir))
               for subdir, cfg in suite_configs(outdir, seed=seed, quick=quick)]
    for subdir, code in results:
        print(f"[{'pass' if code == 0 else 'FAIL' if code == 2 else 'ERROR'}] "
              f"{subdir}")
    agg = Path(outdir) / "summary.txt"
    agg.write_text("".join(
        f"{name}={'pass' if code == 0 else 'fail' if code == 2 else 'error'}\n"
        for name, code in results))
    if any(code == 1 for _, code in results):
        return 1
    return 0 if all(code == 0 for _, code in results) else 2


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

#: flags that are not ``--`` plus the field name with ``-`` for ``_``
_FLAG_NAMES = {"n_list": "--n", "resolution_factor": "--factor"}


def build_parser():
    """One subparser per ``COMMANDS`` entry; its flags hold raw text, and
    ``main`` parses them like config values."""
    ap = argparse.ArgumentParser(
        prog="visform",
        description="visibility-constrained nonlocal form experiments")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, defaults in COMMANDS.items():
        sp = sub.add_parser(name)
        for field in [*defaults, *COMMON]:
            flag = _FLAG_NAMES.get(field, "--" + field.replace("_", "-"))
            if isinstance(defaults.get(field), bool):
                sp.add_argument(flag, dest=field, action="store_const",
                                const="true", default=argparse.SUPPRESS)
            else:
                sp.add_argument(flag, dest=field, default=argparse.SUPPRESS)

    sp = sub.add_parser("reproduce-all")
    sp.add_argument("--quick", action="store_true")
    sp.add_argument("--outdir", default="out")
    sp.add_argument("--seed", default="0")

    sp = sub.add_parser("run")
    sp.add_argument("--config", required=True)
    sp.add_argument("--set", action="append", default=[],
                    metavar="KEY=VALUE", help="override a config value")
    return ap


def main(argv=None):
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    try:
        if command == "reproduce-all":
            return reproduce_all(args["outdir"], seed=int(args["seed"]),
                                 quick=args["quick"])
        if command == "run":
            return run(parse_config(Path(args["config"]).read_text(),
                                    args["set"]))
        return run(_config(command, args))
    except (ValueError, OSError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
