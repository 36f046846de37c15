"""One benchmark workload, run in its own process by run.py.

The process sets up (imports, then the generated inputs of the first
operation), then runs the workload's operation in a closed loop with
one client until the time is up, gating each operation's outputs
against an oracle written here from the config alone. With --trace 1
every operation runs twice on the same inputs, first plain and then
under the tracer, so that the tracing overhead is a ratio of identical
work. It prints one JSON line for run.py.

    python3 bench/workload.py --workload desk --seed 1 --seconds 20 \\
        --trace 0 --workdir DIR [--setup-only]
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.special import logsumexp  # noqa: E402

import stlmc  # noqa: E402
from stlmc import chain_analysis, cli  # noqa: E402

if not Path(stlmc.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: imported stlmc from {stlmc.__file__}, not from {SRC}")

# ---------------------------------------------------------------------------
# Workload definitions (see DESIGN.md). Targets, ladders and step parameters
# are full size; m is reduced so that one operation takes seconds.

DESK = {"weights": [0.5, 0.5], "means": [[-3.0], [3.0]], "sigma2": 1.0}
WIDE = {
    "weights": [0.125] * 8,
    "means": [[2.0 * s if j == k else 0.0 for j in range(10)]
              for k in range(4) for s in (-1.0, 1.0)],
    "sigma2": 1.0,
}
PERTURBED = dict(DESK, perturbation={"amplitude": 0.2, "scale": 1.0})
QUAD = {"weights": [0.25] * 4,
        "means": [[-2.0, -2.0], [-2.0, 2.0], [2.0, -2.0], [2.0, 2.0]], "sigma2": 1.0}

SAMPLERS = {
    "desk": {"target": DESK, "levels": 15, "flags": ["--trace"],
             "run": {"eta": 0.1, "T": 0.5, "t": 300, "m": 50, "workers": 1}},
    "wide": {"target": WIDE, "levels": 11, "flags": [],
             "run": {"eta": 0.1, "T": 0.5, "t": 100, "m": 200, "c2": 4.0, "workers": 1}},
    "perturbed-2w": {"target": PERTURBED, "levels": 15, "flags": [],
                     "run": {"eta": 0.1, "T": 0.5, "t": 300, "m": 50, "workers": 2}},
}
N_SAMPLES = 2000
ANALYSIS = {"target": QUAD, "levels": 13, "run": {"c2": 2.0}, "cheeger_n": 18}
WORKLOADS = (*SAMPLERS, "analysis")
# An analysis operation outlasts a whole run, and a single one is too much at
# the mercy of the machine's speed swings, so a plain run always times two.
MIN_OPS = {"analysis": 2}

# ---------------------------------------------------------------------------
# Oracle: exact densities from the config, independent of stlmc.

_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)


def energy(target, x):
    """f(x) for (N, d) points: mixture energy plus the optional perturbation."""
    w = np.asarray(target["weights"])
    mu = np.asarray(target["means"])
    sq = ((x[:, None, :] - mu[None, :, :]) ** 2).sum(axis=2)
    f = -logsumexp(np.log(w) - sq / (2.0 * target["sigma2"]), axis=1)
    pert = target.get("perturbation")
    if pert:
        f = f + pert["amplitude"] * np.prod(np.sin(x / pert["scale"]), axis=1)
    return f


def integrate(g, edges):
    """Integral of g over each [edges[i], edges[i + 1]], 20-point Gauss-Legendre."""
    lo, hi = edges[:-1, None], edges[1:, None]
    half = (hi - lo) / 2.0
    x = lo + half * (_GL_X[None, :] + 1.0)
    return (g(x.ravel()).reshape(x.shape) * _GL_W).sum(axis=1) * half[:, 0]


def reach(target):
    return float(np.linalg.norm(np.asarray(target["means"]), axis=1).max())


def log_z(target, beta):
    """log of the integral of exp(-beta f) for a d = 1 target."""
    half = reach(target) + 12.0 * math.sqrt(target["sigma2"] / beta)
    edges = np.linspace(-half, half, 2001)
    return math.log(integrate(lambda u: np.exp(-beta * energy(target, u[:, None])),
                              edges).sum())


def tv_1d(points, target, bins=100):
    """TV between a histogram of 1-d points and the target's exact bin masses.

    The box is [-D - 6 sigma, D + 6 sigma]; mass outside it on either
    side is one extra bin.
    """
    half = reach(target) + 6.0 * math.sqrt(target["sigma2"])
    edges = np.linspace(-half, half, bins + 1)
    exact = integrate(lambda u: np.exp(-energy(target, u[:, None])), edges)
    exact = exact / math.exp(log_z(target, 1.0))
    counts, _ = np.histogram(points, bins=edges)
    emp = counts / len(points)
    return float(0.5 * (np.abs(emp - exact).sum() + abs(exact.sum() - emp.sum())))


def nearest_mean_fractions(samples, target):
    mu = np.asarray(target["means"])
    nearest = np.argmin(((samples[:, None, :] - mu[None, :, :]) ** 2).sum(axis=2), axis=1)
    return np.bincount(nearest, minlength=mu.shape[0]) / samples.shape[0]


# ---------------------------------------------------------------------------
# Gates. Each returns (passed, tv) and never loosens the acceptance bounds.

def read_samples(out):
    return np.loadtxt(out / "samples.csv", delimiter=",", skiprows=2, ndmin=2)[:, 1:]


def gate_desk(out, spec):
    samples = read_samples(out)
    est = json.loads((out / "estimates.json").read_text())
    target = spec["target"]
    tv = tv_1d(samples[:, 0], target)
    lz1 = log_z(target, est["betas"][0])
    zerr = max(abs(lz - (log_z(target, b) - lz1))
               for b, lz in zip(est["betas"], est["log_zhat"]))
    frac = nearest_mean_fractions(samples, target)
    ok = (len(est["betas"]) == spec["levels"] and samples.shape == (N_SAMPLES, 1)
          and tv <= 0.1 and zerr <= 1.0 and bool(np.all(np.abs(frac - 0.5) <= 0.05)))
    return ok, tv


def gate_wide(out, spec):
    samples = read_samples(out)
    est = json.loads((out / "estimates.json").read_text())
    target = spec["target"]
    frac = nearest_mean_fractions(samples, target)
    # every mode-bearing axis has the marginal 1/8 N(-2, 1) + 3/4 N(0, 1) + 1/8 N(2, 1)
    marginal = {"weights": [0.125, 0.75, 0.125], "means": [[-2.0], [0.0], [2.0]],
                "sigma2": target["sigma2"]}
    tv = max(tv_1d(samples[:, axis], marginal) for axis in range(4))
    ok = (len(est["betas"]) == spec["levels"] and samples.shape == (N_SAMPLES, 10)
          and bool(np.all(np.abs(frac - 0.125) <= 0.05)) and tv <= 0.1)
    return ok, tv


def gate_perturbed(out, spec):
    samples = read_samples(out)
    est = json.loads((out / "estimates.json").read_text())
    tv = tv_1d(samples[:, 0], spec["target"])
    ok = len(est["betas"]) == spec["levels"] and samples.shape == (N_SAMPLES, 1) and tv <= 0.15
    return ok, tv


GATES = {"desk": gate_desk, "wide": gate_wide, "perturbed-2w": gate_perturbed}


def gate_analysis(out, chain, h):
    lines = (out / "analyze.txt").read_text().splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith("eigenvalues")) + 1
    spectra = []
    for line in lines[start:]:
        if not line.strip().startswith("beta="):
            break
        spectra.append([float(v) for v in line.split(":", 1)[1].split()])
    spectra_ok = len(spectra) == ANALYSIS["levels"] and all(
        abs(ev[0]) <= 1e-8 and all(a <= b for a, b in zip(ev, ev[1:])) for ev in spectra)
    gap = chain_analysis.spectral_gap(chain)
    return spectra_ok and gap / 2.0 - 1e-12 <= h <= math.sqrt(2.0 * gap) + 1e-12


# ---------------------------------------------------------------------------
# Operations

class Op:
    """Generated inputs of one operation and the outputs of its runs."""

    def __init__(self, workload, seed, index, workdir):
        self.workload = workload
        self.seed = seed + 1000 * index
        self.dir = workdir / f"op{index}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config = self.dir / "config.json"
        if workload == "analysis":
            cfg = {"target": ANALYSIS["target"], "run": ANALYSIS["run"]}
            rng = np.random.default_rng(self.seed)
            self.chain = chain_analysis.random_reversible_chain(ANALYSIS["cheeger_n"], rng)
        else:
            spec = SAMPLERS[workload]
            cfg = {"target": spec["target"], "run": dict(spec["run"], seed=self.seed),
                   "n_samples": N_SAMPLES}
        self.config.write_text(json.dumps(cfg))

    def run(self, tag):
        """Run once into its own output directory; return (wall_s, work, ok, tv)."""
        out = self.dir / tag
        if self.workload == "analysis":
            argv = ["analyze", "--config", str(self.config), "--out", str(out)]
        else:
            argv = (["sample", "--config", str(self.config), "--out", str(out)]
                    + SAMPLERS[self.workload]["flags"])
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
                h = (chain_analysis.cheeger_constant(self.chain)
                     if self.workload == "analysis" else None)
            wall = time.perf_counter() - start
            if code != 0:
                return wall, 0, False, 0.0
            if self.workload == "analysis":
                return wall, 1, bool(gate_analysis(out, self.chain, h)), 0.0
            text = (out / "summary.txt").read_text()
            grad_evals = int(text.split("gradient evaluations:", 1)[1].split()[0])
            ok, tv = GATES[self.workload](out, SAMPLERS[self.workload])
            return wall, grad_evals, bool(ok), tv
        except Exception:
            # one failed operation is counted, the loop goes on
            traceback.print_exc()
            return time.perf_counter() - start, 0, False, 0.0


def peak_rss_mib():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def plain_loop(args, first, ready):
    """Closed loop, one client: start another operation while one fits in time."""
    deadline = ready + args.seconds
    walls, rates, tvs, failed = [], [], [], 0
    op = first
    while True:
        wall, work, ok, tv = op.run("plain")
        walls.append(wall)
        tvs.append(tv)
        if ok:
            rates.append(work / wall)
        else:
            failed += 1
        if (len(walls) >= MIN_OPS.get(args.workload, 1)
                and time.monotonic() + statistics.median(walls) > deadline):
            break
        op = Op(args.workload, args.seed, len(walls), args.workdir)
    return {
        "attempted": len(walls), "failed": failed, "wall_s": walls, "tv": tvs,
        "metrics": {"wall_s": statistics.median(walls),
                    "work_per_s": statistics.median(rates) if rates else 0.0,
                    "peak_rss_mb": peak_rss_mib()},
    }


def traced_loop(args, first, ready):
    """Pairs of plain and traced runs on the same inputs, then per-layer metrics."""
    from tracer import Tracer

    child_dir = args.workdir / "children"
    child_dir.mkdir()
    tracer = Tracer(str(child_dir))
    deadline = ready + args.seconds
    overheads, tvs, pair_walls = [], [], []
    attempted = failed = subsets = 0
    checks = []
    op = first
    while True:
        plain = op.run("plain")
        t = tracer.totals
        before = (t["engine.f_and_grad.rows"], t["engine.chains"],
                  t["partition_estimator.chains"])
        tracer.install()
        try:
            traced = op.run("traced")
        finally:
            tracer.uninstall()
        tracer.merge_children()
        ok = traced[2]
        if op.workload in SAMPLERS:
            # exact self-checks: the rows the engine passed to f_and_grad are the
            # summary's gradient evaluations, and the engine ran the estimator's chains
            rows = t["engine.f_and_grad.rows"] - before[0]
            chains = t["engine.chains"] - before[1]
            expected = t["partition_estimator.chains"] - before[2]
            checks.append({"engine_rows": rows, "grad_evals": traced[1],
                           "engine_chains": chains, "estimator_chains": expected})
            ok = ok and rows == traced[1] and chains == expected
        else:
            subsets += 2 ** ANALYSIS["cheeger_n"] - 2
        attempted += 2
        failed += (not plain[2]) + (not ok)
        overheads.append(traced[0] / plain[0])
        tvs.append(traced[3])
        pair_walls.append(plain[0] + traced[0])
        if time.monotonic() + statistics.median(pair_walls) > deadline:
            break
        op = Op(args.workload, args.seed, len(pair_walls), args.workdir)
    metrics = layer_metrics(tracer, len(pair_walls), subsets)
    metrics["diagnostics.tv"] = statistics.median(tvs)
    metrics["trace.overhead"] = statistics.median(overheads)
    spans = {str(tracer.root_pid): tracer.spans, **tracer.child_spans}
    (args.workdir / "spans.json").write_text(json.dumps(spans))
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "checks": checks, "untraced": sorted(tracer.missing)}


def layer_metrics(tracer, n_ops, subsets):
    """Per-module metrics per operation, from the tracer's totals."""
    t = tracer.totals

    def per(key):
        return t[key] / n_ops

    def ratio(num, den):
        return t[num] / t[den] if t[den] else 0.0

    stages = tracer.stage_s
    cheeger_busy = t["chain_analysis.cheeger_constant.busy_s"]
    return {
        "mixture_target.f_and_grad.calls": per("mixture_target.f_and_grad.calls"),
        "mixture_target.f_and_grad.rows": per("mixture_target.f_and_grad.rows"),
        "mixture_target.f_and_grad.busy_s": per("mixture_target.f_and_grad.busy_s"),
        "mixture_target.f_and_grad.rows_per_s": ratio("mixture_target.f_and_grad.rows",
                                                      "mixture_target.f_and_grad.busy_s"),
        "mixture_target.f.calls": per("mixture_target.f.calls"),
        "mixture_target.f.rows": per("mixture_target.f.rows"),
        "mixture_target.f.busy_s": per("mixture_target.f.busy_s"),
        "tempering_chain.run_tempering_batch.calls":
            per("tempering_chain.run_tempering_batch.calls"),
        "tempering_chain.run_tempering_batch.chains": per("engine.chains"),
        "tempering_chain.run_tempering_batch.busy_s":
            per("tempering_chain.run_tempering_batch.busy_s"),
        "tempering_chain.run_tempering_batch.self_s":
            per("tempering_chain.run_tempering_batch.self_s"),
        "tempering_chain.batch_rows": ratio("engine.f_and_grad.rows",
                                            "engine.f_and_grad.calls"),
        "tempering_chain.swap_accept": ratio("engine.swap_accepts", "engine.swap_proposals"),
        "tempering_chain.swap_accepts": per("engine.swap_accepts"),
        "tempering_chain.swap_proposals": per("engine.swap_proposals"),
        "tempering_chain.top_yield": ratio("engine.top_ends", "engine.chains"),
        "tempering_chain.run_stlmc.busy_s": per("tempering_chain.run_stlmc.busy_s"),
        "langevin_kernel.run_macro_step.calls": per("langevin_kernel.run_macro_step.calls"),
        "langevin_kernel.run_macro_step.busy_s": per("langevin_kernel.run_macro_step.busy_s"),
        "partition_estimator.run_main_algorithm.busy_s":
            per("partition_estimator.run_main_algorithm.busy_s"),
        "partition_estimator.stages": per("partition_estimator.stages"),
        "partition_estimator.stage_s.p50": statistics.median(stages) if stages else 0.0,
        "partition_estimator.stage_s.max": max(stages, default=0.0),
        "partition_estimator.final_stage_s": per("partition_estimator.final_stage_s"),
        "partition_estimator.grad_evals": per("partition_estimator.grad_evals"),
        "partition_estimator.chains": per("partition_estimator.chains"),
        "partition_estimator.endpoint_use": ratio("partition_estimator.endpoints",
                                                  "partition_estimator.chains"),
        "partition_estimator.estimate_next_z.busy_s":
            per("partition_estimator.estimate_next_z.busy_s"),
        "partition_estimator.log_partition_quadrature.calls":
            per("partition_estimator.log_partition_quadrature.calls"),
        "partition_estimator.log_partition_quadrature.busy_s":
            per("partition_estimator.log_partition_quadrature.busy_s"),
        "chain_analysis.discretize_langevin_generator.busy_s":
            per("chain_analysis.discretize_langevin_generator.busy_s"),
        "chain_analysis.eigenvalues.busy_s": per("chain_analysis.eigenvalues.busy_s"),
        "chain_analysis.z_ratio_bound_check.self_s":
            per("chain_analysis.z_ratio_bound_check.self_s"),
        "chain_analysis.cheeger_constant.busy_s": per("chain_analysis.cheeger_constant.busy_s"),
        "chain_analysis.cheeger_constant.subsets_per_s":
            subsets / cheeger_busy if cheeger_busy else 0.0,
        "diagnostics.exact_bin_masses.calls": per("diagnostics.exact_bin_masses.calls"),
        "diagnostics.exact_bin_masses.busy_s": per("diagnostics.exact_bin_masses.busy_s"),
        "cli.main.busy_s": per("cli.main.busy_s"),
        "cli.main.self_s": per("cli.main.self_s"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    first = Op(args.workload, args.seed, 0, args.workdir)
    ready = time.monotonic()
    info = {"ready": ready, "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__}
    if not args.setup_only:
        loop = traced_loop if args.trace else plain_loop
        info.update(loop(args, first, ready))
    print(json.dumps(info))


if __name__ == "__main__":
    main()
