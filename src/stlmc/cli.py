"""Batch command-line front end.

Subcommands: ``sample`` (run the full sampler and write samples.csv,
estimates.json and a summary), ``compare`` (tempering vs plain Langevin
at a matched gradient budget), ``estimate-z`` (normalizer estimation
only), ``analyze`` (discretized-generator spectra across the ladder) and
``verify`` (seeded property suites). Exit codes: 0 success, 1 property
or runtime failure, 2 usage or configuration error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .chain_analysis import discretize_langevin_generator, z_ratio_bound_check
from .diagnostics import (
    Histogram,
    bin_mass_points,
    default_box,
    exact_bin_masses,
    log_partition_quadrature,
    mode_occupancy,
    tv_distance,
)
from .errors import (
    BoundViolationError,
    ConfigError,
    NonFiniteGradientError,
    RetriesExhaustedError,
    _coerce,
)
from .langevin_kernel import run_macro_step
from .mixture_target import GaussianMixture, PerturbedTarget
from .partition_estimator import run_main_algorithm
from .tempering_chain import RunParams, make_ladder, run_stlmc
from .verification import run_suites

# the run options RunParams gives no default, and the CLI's own option
_RUN_DEFAULTS = {"eta": 0.1, "T": 0.5, "t": 300, "workers": 1}
_RUN_KEYS = {f.name for f in dataclasses.fields(RunParams)} | {"workers"}
_TARGET_KEYS = {f.name for f in dataclasses.fields(GaussianMixture)} | {"perturbation"}
_PERTURBATION_KEYS = {f.name for f in dataclasses.fields(PerturbedTarget)} - {"base"}
_CONFIG_KEYS = {"target", "run", "n_samples", "mode_radius", "output_dir"}
# the most points the TV step's exact bin masses may take (2D, 100 bins: 1.56 M)
_TV_POINTS = 2**24


def _load_target(path):
    """The config mapping and the target it specifies."""
    if path is None:
        raise ConfigError("a --config file with a target section is required")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if "target" not in _section(cfg, "config", _CONFIG_KEYS):
        raise ConfigError("config must be a JSON object with a 'target' section")
    return cfg, _target(cfg["target"])


def _section(value, name, keys):
    """``value``, refused unless it is a JSON object with no key outside ``keys``."""
    if not isinstance(value, dict):
        raise ConfigError(f"the {name} section must be a JSON object (got {value!r})")
    unknown = set(value) - keys
    if unknown:
        raise ConfigError(f"unknown {name} keys {sorted(unknown)}")
    return value


def _target(section):
    """The target a config's ``target`` section specifies.

    A field that does not convert to floats raises a ValueError naming it.
    """
    section = _section(section, "target", _TARGET_KEYS)

    # named, as _coerce's message names the converter: "must be floats"
    def floats(value):
        return np.asarray(value, dtype=float)

    try:
        weights, means, sigma2 = section["weights"], section["means"], section["sigma2"]
    except KeyError as exc:
        raise ConfigError(f"target config missing field {exc.args[0]!r}") from None
    mix = GaussianMixture(
        weights=_coerce("target.weights", floats, weights),
        means=_coerce("target.means", floats, means),
        sigma2=_coerce("target.sigma2", float, sigma2),
    )
    pert = section.get("perturbation")
    if pert is None:
        return mix
    pert = _section(pert, "perturbation", _PERTURBATION_KEYS)
    if "amplitude" not in pert:
        raise ConfigError("perturbation config requires an 'amplitude' field")
    return PerturbedTarget(
        mix,
        amplitude=_coerce("perturbation.amplitude", float, pert["amplitude"]),
        scale=_coerce("perturbation.scale", float, pert.get("scale", 1.0)),
    )


def _merge_run_params(cfg, args, require_seed):
    """``(params, workers)`` from the config's run section and the flags; flags win."""
    run = dict(_RUN_DEFAULTS, **_section(cfg.get("run", {}), "run", _RUN_KEYS))
    for key in _RUN_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            run[key] = flag
    if require_seed and run.get("seed") is None:
        raise ConfigError("a seed is required (give --seed or set run.seed)")
    workers = _coerce("workers", int, run.pop("workers"))
    if workers < 1:
        raise ConfigError("workers must be at least 1")
    return RunParams(**run), workers


def _out_path(args, cfg):
    """The output directory, refused when it cannot be made; made by the caller.

    A command makes it only once its computation has succeeded, so a
    failed run leaves nothing behind.
    """
    out = args.out or cfg.get("output_dir") or "."
    if not isinstance(out, str):
        raise ConfigError(f"output_dir must be a string (got {out!r})")
    existing = os.path.abspath(out)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"cannot use output directory {out}: {existing} is not a directory")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise ConfigError(f"cannot use output directory {out}: {existing} is not writable")
    return out


def _mode_radius(args, cfg, target):
    r = args.mode_radius if args.mode_radius is not None else cfg.get("mode_radius")
    if r is None:
        return 3.0 * math.sqrt(target.sigma2)
    r = _coerce("mode_radius", float, r)
    if not (r > 0 and math.isfinite(r)):
        raise ConfigError(f"mode_radius must be a finite positive number (got {r!r})")
    return r


def _write_csv(out, kind, columns, table, int_columns):
    """Write a float table as ``out/<kind>.csv`` under a versioned comment.

    The first ``int_columns`` columns hold exact integers and are written
    as such; the rest take 17 significant digits, which read back to the
    same floats.
    """
    fmt = ["%d"] * int_columns + ["%.17g"] * (len(columns) - int_columns)
    np.savetxt(os.path.join(out, f"{kind}.csv"), table, fmt=fmt, delimiter=",",
               header=f"# stlmc {kind} v1\n" + ",".join(columns), comments="")


def _write_estimates(out, betas, log_zhat, params):
    """Write ``out/estimates.json``: the ladder, its estimates and the run options."""
    payload = {
        "format": "stlmc-estimates-v1",
        "betas": [float(b) for b in betas],
        "log_zhat": [float(v) for v in log_zhat],
        "seed": params.seed,
        "params": {k: getattr(params, k)
                   for k in ("eta", "T", "t", "m", "max_retries", "proposal_mode")},
    }
    with open(os.path.join(out, "estimates.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _report(out, name, lines):
    """Write a command's report lines to ``out/name`` and to stdout."""
    text = "\n".join(lines) + "\n"
    with open(os.path.join(out, name), "w") as fh:
        fh.write(text)
    sys.stdout.write(text)


def _occupancy_lines(stats, L):
    occ = stats["occupancy"]
    lines = []
    if occ.sum() > 0:
        frac = occ / occ.sum()
        lines.append("level occupancy (final stage, every step from the level-1 start):")
        lines.append("  " + " ".join(f"{v:.4f}" for v in frac))
    prop = stats["proposals"]
    acc = stats["accepts"]
    pairs = [
        f"  {i + 1}->{j + 1}: {acc[i, j]}/{prop[i, j]} ({acc[i, j] / prop[i, j]:.3f})"
        for i in range(L) for j in range(L) if prop[i, j] > 0
    ]
    if pairs:
        lines.append("level-move acceptance (final stage):")
        lines.extend(pairs)
    return lines


def _measure(target, samples, radius, bins):
    """Mode fractions, the unassigned share and the TV distance of samples.

    The TV distance is against the ``exact_bin_masses`` of ``bins`` bins
    per axis on the default box, and None for d > 2.
    """
    frac, rest = mode_occupancy(samples, target.means, radius)
    tv = None
    if target.d <= 2:
        lo, hi = default_box(target)
        hist = Histogram.from_samples(samples, lo, hi, bins=bins)
        tv = tv_distance(hist, exact_bin_masses(target, hist))
    return frac, rest, tv


def _main_run(args, with_samples):
    """The part of sample, compare and estimate-z before their reports.

    Reads the config, target, run parameters, output path and, ``with_samples``,
    the sample count, histogram bins and mode radius, refusing bins whose
    TV step would take more than ``_TV_POINTS`` points, and checks the step
    size; then runs the main algorithm. Returns ``(target, params, workers,
    out, radius, result)``, with radius None without samples; the caller
    makes ``out`` once its own computation has succeeded.
    """
    cfg, target = _load_target(args.config)
    params, workers = _merge_run_params(cfg, args, require_seed=True)
    n_samples, radius = 0, None
    if with_samples:
        n_samples = args.n_samples if args.n_samples is not None else cfg.get("n_samples", 2000)
        n_samples = _coerce("n_samples", int, n_samples)
        if n_samples < 1:
            raise ConfigError(f"n_samples must be positive for {args.command}")
        bins = _coerce("bins", int, args.bins)
        if bins < 1:
            raise ConfigError(f"bins must be a positive integer (got {args.bins!r})")
        points = bin_mass_points(target, *default_box(target), bins) if target.d <= 2 else 0
        if points > _TV_POINTS:
            raise ConfigError(f"bins={bins} would evaluate the TV step's exact masses at "
                              f"{points} points, more than {_TV_POINTS}")
        radius = _mode_radius(args, cfg, target)
    out = _out_path(args, cfg)
    result = run_main_algorithm(target, params, n_samples=n_samples, workers=workers)
    return target, params, workers, out, radius, result


def cmd_sample(args) -> int:
    target, params, workers, out, radius, result = _main_run(args, with_samples=True)
    lines = [
        "# stlmc sample summary v1",
        f"target: d={target.d} modes={target.n} "
        f"sigma2={target.sigma2:.6g} D={target.D:.6g}",
        f"ladder: L={len(result.betas)} proposal_mode={params.proposal_mode}",
        "betas: " + " ".join(f"{b:.6f}" for b in result.betas),
        "log_zhat: " + " ".join(f"{v:.6f}" for v in result.log_zhat),
        f"run: eta={params.eta} T={params.T} t={params.t} "
        f"m={params.stage_samples(len(result.betas))} "
        f"seed={params.seed} workers={workers}",
        f"samples: {result.samples.shape[0]}",
        f"gradient evaluations: {result.stats['grad_evals']}",
    ]
    lines += _occupancy_lines(result.stats["phases"][-1], len(result.betas))
    frac, rest, tv = _measure(target, result.samples, radius, args.bins)
    lines.append(f"mode fractions (radius {radius:.3g}): "
                 + " ".join(f"{v:.4f}" for v in frac) + f"  unassigned {rest:.4f}")
    lines.append("TV distance: skipped (d > 2)" if tv is None
                 else f"TV distance vs quadrature density ({args.bins} bins): {tv:.4f}")
    if args.trace:
        rng = np.random.default_rng(np.random.SeedSequence(params.seed, spawn_key=(1_000_000,)))
        _, trace = run_stlmc(target, result.betas, result.log_zhat, params, rng)

    os.makedirs(out, exist_ok=True)
    xs = [f"x_{j + 1}" for j in range(target.d)]
    _write_csv(out, "samples", ["sample"] + xs,
               np.column_stack([np.arange(len(result.samples)), result.samples]), 1)
    _write_estimates(out, result.betas, result.log_zhat, params)
    _report(out, "summary.txt", lines)
    if args.trace:
        _write_csv(out, "trace", ["step", "level", "move_type", "accepted"] + xs, trace, 4)
    return 0


def cmd_compare(args) -> int:
    target, params, _, out, radius, result = _main_run(args, with_samples=True)
    n_chains = result.samples.shape[0]
    budget = result.stats["grad_evals"]
    # plain level-1.0 chains from the first mode burning the same gradient count
    steps = max(1, budget // n_chains)
    rng = np.random.default_rng(np.random.SeedSequence(params.seed, spawn_key=(2_000_000,)))
    start = np.tile(target.means[0], (n_chains, 1))
    plain = run_macro_step(target, start, rng, params.eta, steps)

    lines = ["# stlmc compare v1"]
    for method, samples, grad_evals in (("tempering", result.samples, budget),
                                        ("plain-langevin", plain, steps * n_chains)):
        frac, rest, tv = _measure(target, samples, radius, args.bins)
        desc = ("mode fractions " + "/".join(f"{v:.4f}" for v in frac)
                + f" unassigned {rest:.4f}")
        if tv is not None:
            desc += f" tv {tv:.4f}"
        lines.append(f"{method:<15} {desc} grad_evals {grad_evals}")
    os.makedirs(out, exist_ok=True)
    _report(out, "compare.txt", lines)
    return 0


def cmd_estimate_z(args) -> int:
    target, params, _, out, _, result = _main_run(args, with_samples=False)
    lines = ["# stlmc estimate-z report v1",
             f"L={len(result.betas)} seed={params.seed}"]
    betas, log_zhat = result.betas, result.log_zhat
    cols = [""] * len(betas)
    tail = "quadrature comparison skipped (d > 2)"
    if target.d <= 2:
        log_z = log_partition_quadrature(target, betas)
        truth = log_z - log_z[0]
        dev = log_zhat - truth
        cols = [f" quadrature={q:+.6f} deviation={e:+.6f}" for q, e in zip(truth, dev)]
        tail = f"max |deviation| = {np.abs(dev).max():.6f}"
    lines += [f"level {lvl}: beta={b:.6f} log_zhat={lz:+.6f}{col}"
              for lvl, (b, lz, col) in enumerate(zip(betas, log_zhat, cols), 1)]
    lines.append(tail)
    os.makedirs(out, exist_ok=True)
    _write_estimates(out, betas, log_zhat, params)
    _report(out, "estimate_z.txt", lines)
    return 0


def cmd_analyze(args) -> int:
    cfg, target = _load_target(args.config)
    if target.d > 2:
        raise ConfigError("analyze discretizes the generator on a grid and supports d <= 2 only")
    # configs are shared between commands, so the whole run section is checked
    params, _ = _merge_run_params(cfg, args, require_seed=False)
    out = _out_path(args, cfg)
    betas = make_ladder(target, params.c1, params.c2)
    cells = args.cells if args.cells is not None else (400 if target.d == 1 else 40)
    n_modes = target.n
    sigma = math.sqrt(target.sigma2)

    lines = ["# stlmc analyze report v1",
             f"grid: {cells} cells per axis, d={target.d}",
             f"eigenvalues of minus the generator, lambda_1..lambda_{n_modes + 2}:"]
    dens = []
    shared_R = target.D + 6.0 * sigma / math.sqrt(betas[0])
    for b in betas:
        gen = discretize_langevin_generator(target, float(b), shared_R, cells)
        ev = gen.eigenvalues(n_modes + 2)
        lines.append(f"  beta={b:.6f}: " + " ".join(f"{v:.6e}" for v in ev))
        dens.append(gen.weights)
    lines.append("adjacent-level overlap (whole-space affinity):")
    for i in range(1, len(betas)):
        aff = float(np.minimum(dens[i - 1], dens[i]).sum())
        lines.append(f"  {i}->{i + 1}: {aff:.4f}")
    if isinstance(target, GaussianMixture) and len(betas) > 1:
        lines.append("adjacent-level partition-ratio margins:")
        ratios, lowers = z_ratio_bound_check(target, betas[:-1], betas[1:])
        for i, (ratio, lower) in enumerate(zip(ratios, lowers), 1):
            lines.append(f"  {i}->{i + 1}: ratio={ratio:.4f} lower={lower:.4e} "
                         f"margin={ratio / lower:.1f}x")
    os.makedirs(out, exist_ok=True)
    _report(out, "analyze.txt", lines)
    return 0


def cmd_verify(args) -> int:
    # an unknown suite name is a ValueError, which main reports with exit 2
    results = run_suites(args.suite or ["all"])
    failed = 0
    for suite, checks in results.items():
        for check in checks:
            status = "PASS" if check.ok else "FAIL"
            failed += 0 if check.ok else 1
            sys.stdout.write(f"[{status}] {suite}: {check.name} - {check.detail}\n")
    total = sum(len(c) for c in results.values())
    sys.stdout.write(f"{total - failed}/{total} checks passed\n")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stlmc",
        description="Simulated tempering Langevin Monte Carlo sampler and chain analysis tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--config", help="JSON config file with target and run sections")
        p.add_argument("--out", help="output directory (default: config output_dir or '.')")

    def add_scales(p):
        p.add_argument("--c1", type=float, help="first-level temperature scale")
        p.add_argument("--c2", type=float, help="temperature spacing scale")

    def add_run(p):
        add_io(p)
        p.add_argument("--seed", type=int, help="RNG seed (required)")
        p.add_argument("--eta", type=float, help="Langevin step size")
        p.add_argument("--T", type=float, dest="T", help="time interval per macro step")
        p.add_argument("--t", type=int, dest="t", help="tempering steps per chain")
        p.add_argument("--m", type=int, help="samples per estimation stage (default 10 L^2)")
        p.add_argument("--max-retries", type=int, dest="max_retries",
                       help="rounds per stage, and of --trace attempts, before failing")
        add_scales(p)
        p.add_argument("--proposal-mode", dest="proposal_mode", help="neighbor or uniform")
        p.add_argument("--workers", type=int, help="parallel replica workers")

    def add_sampling(p):
        add_run(p)
        p.add_argument("--n-samples", type=int, dest="n_samples")
        p.add_argument("--bins", type=int, default=100, help="histogram bins per axis")
        p.add_argument("--mode-radius", type=float, dest="mode_radius",
                       help="radius for mode-occupancy reporting")

    p = sub.add_parser("sample", help="run the sampler and write samples + estimates")
    add_sampling(p)
    p.add_argument("--trace", action="store_true",
                   help="also write a single-chain trace.csv")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("compare", help="tempering vs plain Langevin at matched budget")
    add_sampling(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("estimate-z", help="estimate normalizers only")
    add_run(p)
    p.set_defaults(func=cmd_estimate_z)

    p = sub.add_parser("analyze", help="spectral report across the ladder")
    add_io(p)
    add_scales(p)
    p.add_argument("--cells", type=int, help="grid cells per axis")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run seeded property suites")
    p.add_argument("--suite", action="append",
                   help="suite name (repeatable); default all")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (BoundViolationError, RetriesExhaustedError, NonFiniteGradientError) as exc:
        sys.stderr.write(f"failure: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
