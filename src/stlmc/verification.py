"""Seeded property suites behind the ``verify`` command.

Each suite re-checks a family of inequalities or statistical claims on
fixed-seed instances and reports one (name, ok, detail) row per check.
The suites never mutate global state, so repeated runs agree exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain_analysis import (
    FiniteChain,
    Partition,
    build_tempering_chain,
    chain_eigenvalues,
    cheeger_constant,
    chi_sq_decay_check,
    conductance,
    gap_product_check,
    mixing_rate,
    project,
    random_partition,
    random_reversible_chain,
    refinement_gap_bound_check,
    restrict,
    spectral_gap,
    tempering_gap_bound_check,
    z_ratio_bound_check,
    sce_envelope_1d,
)
from .diagnostics import (
    Histogram,
    chi_sq_divergence,
    chi_sq_mixture_check,
    default_box,
    exact_bin_masses,
    kl_decomposition_check,
    kl_divergence,
    log_partition_quadrature,
    mode_occupancy,
    tv_distance,
    tv_from_masses,
)
from .errors import ReducibleChainError
from .langevin_kernel import run_macro_step
from .mixture_target import (
    GaussianMixture,
    PerturbedTarget,
    check_perturbation_bounds,
    close_to_sum_ratio,
    hessian_max_eig,
    locate_min,
)
from .partition_estimator import concentration_check, estimate_next_z, sample_exact
from .tempering_chain import RunParams, make_ladder, new_batch_stats, run_tempering_batch

__all__ = ["CheckResult", "run_suites"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _run(checks, name, fn):
    try:
        ok, detail = fn()
    except Exception as exc:
        checks.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
        return
    checks.append(CheckResult(name, bool(ok), detail))


def _desk():
    return GaussianMixture([0.5, 0.5], [[-3.0], [3.0]], 1.0)


def _random_mixture(rng):
    d = int(rng.integers(1, 3))
    k = int(rng.integers(1, 5))
    means = rng.uniform(-3.0, 3.0, (k, d))
    w = rng.dirichlet(np.ones(k))
    w = np.maximum(w, 1e-3)
    w = w / w.sum()
    sigma2 = float(rng.uniform(0.5, 2.0))
    return GaussianMixture(w, means, sigma2)


# ---------------------------------------------------------------- mixture


def mixture_suite():
    checks = []
    desk = _desk()
    skew = GaussianMixture([0.3, 0.7], [[-2.0], [1.0]], 0.8)

    def ladder_invariants():
        rng = np.random.default_rng(12)
        for _ in range(100):
            mix = _random_mixture(rng)
            b = make_ladder(mix)
            if mix.D > 0:
                cap = mix.sigma2 / mix.D**2
                spacing_cap = mix.sigma2 / (mix.D**2 * (mix.d + math.log(1.0 / mix.w_min)))
                if b[0] > min(1.0, cap) + 1e-12:
                    return False, f"first level {b[0]} above {cap}"
                if np.any(np.diff(b) > spacing_cap + 1e-12):
                    return False, "spacing above the ladder cap"
            if abs(b[-1] - 1.0) > 1e-12 or np.any(np.diff(b) <= 0):
                return False, "ladder not increasing to 1"
        return True, "100 random mixtures"

    _run(checks, "ladder invariants", ladder_invariants)

    def desk_ladder_shape():
        b = make_ladder(desk)
        spacing = 1.0 / (9.0 * (1.0 + math.log(2.0)))
        ok = (len(b) == 15
              and abs(b[0] - 1.0 / 9.0) < 1e-15
              and abs(b[1] - b[0] - spacing) < 1e-15
              and b[-1] == 1.0)
        return ok, f"L={len(b)} first={b[0]:.6f} spacing={spacing:.6f}"

    _run(checks, "bimodal ladder closed form", desk_ladder_shape)

    def close_to_sum():
        rng = np.random.default_rng(13)
        worst = 1.0
        for mix in (desk, skew):
            xs = rng.uniform(-6.0, 6.0, 10_000)
            cap = 1.0 / mix.w_min
            for beta in (0.25, 0.5, 0.75, 1.0):
                ratios = close_to_sum_ratio(mix, beta, xs)
                if ratios.min() < 1.0 - 1e-9 or ratios.max() > cap + 1e-9:
                    return False, f"ratio outside [1, {cap}] at beta={beta}"
                worst = max(worst, ratios.max() / cap)
        return True, f"2x4 grids of 10^4 points, worst ratio at {worst:.3f} of cap"

    _run(checks, "tempered density within component-sum bracket", close_to_sum)

    def hessian_cap():
        for mix in (desk, skew):
            cap = 2.0 / mix.sigma2
            for x in np.linspace(-5.0, 5.0, 101):
                if hessian_max_eig(mix, np.array([x])) > cap + 1e-3:
                    return False, f"eigenvalue above 2/sigma^2 at x={x}"
        return True, "101-point scans on two mixtures"

    _run(checks, "energy Hessian bounded by 2/sigma^2", hessian_cap)

    def minimizer_norm():
        rng = np.random.default_rng(14)
        worst = 0.0
        for _ in range(100):
            mix = _random_mixture(rng)
            xstar = locate_min(mix)
            lim = math.sqrt(2.0) * mix.D
            if np.linalg.norm(xstar) > lim + 1e-6:
                return False, f"|x*|={np.linalg.norm(xstar):.4f} above sqrt(2) D={lim:.4f}"
            if mix.D > 0:
                worst = max(worst, np.linalg.norm(xstar) / lim)
        return True, f"100 random mixtures, worst |x*|/(sqrt(2) D)={worst:.3f}"

    _run(checks, "global minimizer inside sqrt(2) D ball", minimizer_norm)

    def sce_cases():
        xs = np.linspace(-10.0, 10.0, 10_001)
        for mus, cap in (((-1.0, 1.0), 1.0), ((-3.0, 3.0), 9.0)):
            mix = GaussianMixture([0.5, 0.5], [[mus[0]], [mus[1]]], 1.0)
            fs = mix.f(xs)
            env = sce_envelope_1d(xs, fs, 0.5)
            gap = float(np.max(fs - env))
            if gap > cap or np.any(env > fs + 1e-12):
                return False, f"envelope gap {gap:.4f} above D^2={cap} for modes {mus}"
        quad = 0.5 * xs**2
        if np.max(np.abs(sce_envelope_1d(xs, quad, 0.5) - quad)) > 1e-9:
            return False, "quadratic is not a fixed point"
        return True, "gaps within D^2; quadratic fixed point exact"

    _run(checks, "strongly convex envelope within D^2", sce_cases)

    def perturbation_envelope():
        pert = PerturbedTarget(desk, 0.2, 1.0)
        fdev, gdev = check_perturbation_bounds(
            pert, n_points=10_000, rng=np.random.default_rng(15)
        )
        ok = fdev <= pert.delta + 1e-12 and gdev <= pert.tau + 1e-9
        return ok, f"max |df|={fdev:.4f} <= {pert.delta}, max |dgrad|={gdev:.4f} <= {pert.tau}"

    _run(checks, "perturbation amplitude and gradient caps", perturbation_envelope)

    def ar1_variance():
        gauss = GaussianMixture([1.0], [[0.0]], 1.0)
        eta = 0.01
        rng = np.random.default_rng(4)
        x = np.zeros((200, 1))
        vals = []
        for _ in range(50):
            x = run_macro_step(gauss, x, rng, eta, 1000)
            vals.append(x.ravel().copy())
        v = float(np.concatenate(vals).var())
        oracle = 1.0 / (1.0 - eta / 2.0)
        return 0.93 <= v <= 1.08, f"variance={v:.4f} oracle={oracle:.5f} window [0.93, 1.08]"

    _run(checks, "discretized Gaussian stationary variance", ar1_variance)

    def drift_budget():
        rng = np.random.default_rng(5)
        xstar = locate_min(desk)
        x0 = xstar[None, :] + rng.standard_normal((1000, 1))
        e0 = float(np.mean(np.sum((x0 - xstar) ** 2, axis=1)))
        T = 0.5
        x = run_macro_step(desk, x0, rng, 0.1, 5)
        sq = np.sum((x - xstar) ** 2, axis=1)
        budget = e0 + (4.0 * desk.D**2 + 2 * desk.d) * T
        se = float(np.std(sq) / math.sqrt(sq.size))
        et = float(np.mean(sq))
        return et <= budget + 3 * se, f"E0={e0:.3f} ET={et:.3f} budget={budget:.3f}+3SE"

    _run(checks, "squared-distance drift within budget", drift_budget)

    def mean_convergence():
        gauss = GaussianMixture([1.0], [[2.0]], 1.0)
        rng = np.random.default_rng(16)
        x = np.full((500, 1), 2.0)
        x = run_macro_step(gauss, x, rng, 0.01, 200)
        m = float(x.mean())
        se = float(x.std() / math.sqrt(x.shape[0]))
        return abs(m - 2.0) <= 3 * se, f"mean={m:.4f} vs 2.0, 3SE={3 * se:.4f} over 1e5 steps"

    _run(checks, "single-Gaussian empirical mean", mean_convergence)

    def scale_equivalence():
        sigma = 1.5
        unit = GaussianMixture([0.5, 0.5], [[-2.0], [2.0]], 1.0)
        orig = GaussianMixture([0.5, 0.5], [[-3.0], [3.0]], sigma**2)
        # generators seeded alike give both chains the same noise
        rng_u, rng_o = np.random.default_rng(17), np.random.default_rng(17)
        y = np.array([0.5])
        x = sigma * y
        worst = 0.0
        for _ in range(50):
            y = run_macro_step(unit, y, rng_u, 0.04, 1, beta=0.7)
            x = run_macro_step(orig, x, rng_o, 0.04 * sigma**2, 1, beta=0.7)
            worst = max(worst, float(np.abs(x - sigma * y).max()))
        return worst <= 1e-9, f"max |x - sigma y| = {worst:.2e} over 50 coupled steps"

    _run(checks, "step-size scaling equivalence", scale_equivalence)

    return checks


# ---------------------------------------------------------------- estimator


def estimator_suite():
    checks = []
    desk = _desk()
    betas = make_ladder(desk)

    def gaussian_ratio():
        gauss = GaussianMixture([1.0], [[0.0]], 1.0)
        rng = np.random.default_rng(18)
        bl, bn = 0.5, 0.7
        xs = sample_exact(gauss, 10_000, rng, beta=bl)
        est = math.exp(estimate_next_z(xs, gauss, bl, bn, 0.0))
        truth = math.sqrt(bl / bn)
        ok = abs(est / truth - 1.0) <= 0.05
        return ok, f"estimated {est:.4f} vs sqrt(beta ratio) {truth:.4f}"

    _run(checks, "single-Gaussian ratio estimator", gaussian_ratio)

    def degenerate_cases():
        gauss = GaussianMixture([1.0], [[0.0]], 1.0)
        same = estimate_next_z(np.array([0.3, -0.2]), gauss, 0.5, 0.5, -1.25)
        at_mode = estimate_next_z(np.zeros(4), gauss, 0.5, 0.9, 0.5)
        ok = abs(same + 1.25) < 1e-15 and abs(at_mode - 0.5) < 1e-12
        return ok, "equal betas and zero-energy samples leave the estimate fixed"

    _run(checks, "estimator degenerate cases", degenerate_cases)

    def ratio_interval():
        ratios, _ = z_ratio_bound_check(desk, betas[:-1], betas[1:])
        worst = min(1.0, float(ratios.min()))
        return worst >= 0.1, f"min adjacent ratio {worst:.4f} (claimed Omega(1) >= 0.1)"

    _run(checks, "adjacent partition ratios within interval", ratio_interval)

    def concentration():
        bl, bn = float(betas[7]), float(betas[8])
        res = concentration_check(desk, bl, bn, n_samples=1000, epsilon=0.1,
                                  n_trials=1000, seed=3)
        se = max(math.sqrt(res.envelope * (1 - res.envelope) / res.n_trials),
                 math.sqrt(0.25 / res.n_trials))
        ok = res.failure_rate <= res.envelope + 3 * se
        big = concentration_check(desk, bl, bn, n_samples=4000, epsilon=0.1,
                                  n_trials=1000, seed=3)
        ok = ok and big.failure_rate <= res.failure_rate + 1e-12
        return ok, (f"failure rate {res.failure_rate:.4f} <= envelope {res.envelope:.4f}"
                    f" + 3SE; n=4000 rate {big.failure_rate:.4f}")

    _run(checks, "estimator concentration envelope", concentration)

    def unbiasedness():
        rng = np.random.default_rng(19)
        bl, bn = float(betas[4]), float(betas[5])
        xs = sample_exact(desk, 10_000, rng, beta=bl)
        g = np.exp((bl - bn) * desk.f(xs))
        log_z = log_partition_quadrature(desk, np.array([bl, bn]))
        truth = math.exp(log_z[1] - log_z[0])
        se = float(g.std() / math.sqrt(g.size))
        ok = abs(float(g.mean()) - truth) <= 3 * se
        return ok, f"mean {g.mean():.5f} vs quadrature {truth:.5f} (3SE={3 * se:.5f})"

    _run(checks, "ratio estimator unbiasedness", unbiasedness)

    def exact_z_occupancy():
        log_z = log_partition_quadrature(desk, betas)
        log_z = log_z - log_z[0]
        params = RunParams(eta=0.1, T=0.5, t=300)
        stats = new_batch_stats(len(betas))
        run_tempering_batch(
            desk, betas, log_z, 512, params, np.random.default_rng(20),
            stats=stats, occupancy_burn_in=100,
        )
        occ = stats["occupancy"] / stats["occupancy"].sum()
        dev = float(np.abs(occ - 1.0 / len(betas)).max())
        return dev <= 0.05, f"max |occupancy - 1/L| = {dev:.4f} with true normalizers"

    _run(checks, "level occupancy at exact normalizers", exact_z_occupancy)

    return checks


# ------------------------------------------------------------ chain analysis


def chain_analysis_suite():
    checks = []

    def two_state_oracle():
        ch = FiniteChain([[0.9, 0.1], [0.2, 0.8]])
        ok = (np.abs(ch.p - [2 / 3, 1 / 3]).max() < 1e-12
              and abs(spectral_gap(ch) - 0.3) < 1e-12
              and abs(conductance(ch, [1]) - 0.2) < 1e-12
              and abs(cheeger_constant(ch) - 0.2) < 1e-12
              and abs(mixing_rate(ch) - 0.3) < 1e-12)
        return ok, "stationary (2/3,1/3), gap 0.3, conductance 0.2"

    _run(checks, "two-state closed-form quantities", two_state_oracle)

    def uniform_chains():
        ch5 = FiniteChain(np.full((5, 5), 0.2))
        ch2 = FiniteChain(np.full((2, 2), 0.5))
        ident = FiniteChain(np.eye(3), stationary=np.full(3, 1 / 3))
        ok = (abs(spectral_gap(ch5) - 1.0) < 1e-12
              and abs(conductance(ch2, [0]) - 0.5) < 1e-12
              and abs(spectral_gap(ident)) < 1e-12)
        return ok, "complete gap 1, two-state cut 1/2, identity gap 0"

    _run(checks, "uniform and identity chains", uniform_chains)

    def structure_checks():
        circ = FiniteChain(np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]))
        if np.abs(circ.p - 1 / 3).max() > 1e-12:
            return False, "doubly stochastic chain not uniform"
        try:
            FiniteChain([[1.0, 0.0], [0.0, 1.0]])
            return False, "reducible chain accepted"
        except ReducibleChainError as exc:
            if len(exc.closed_classes) != 2:
                return False, "wrong closed-class report"
        path = FiniteChain([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
        sub = restrict(path, [0, 1])
        if abs(sub.P[1, 1] - 0.75) > 1e-12:
            return False, "restriction self-loop mass wrong"
        rng = np.random.default_rng(21)
        ch = random_reversible_chain(6, rng)
        sub = restrict(ch, [0, 2, 3, 5])
        if np.abs(sub.p @ sub.P - sub.p).max() > 1e-10:
            return False, "conditional law not stationary for restriction"
        ident = project(ch, Partition.singletons(6))
        if np.abs(ident.P - ch.P).max() > 1e-12:
            return False, "singleton projection changed the chain"
        single = project(ch, Partition.whole(6))
        if single.n != 1 or abs(single.P[0, 0] - 1.0) > 1e-12:
            return False, "whole-space projection is not absorbing"
        return True, "projection and restriction identities"

    _run(checks, "restriction and projection structure", structure_checks)

    def partition_sweep():
        rng = np.random.default_rng(7)
        worst_cheeger = math.inf
        for _ in range(100):
            n = int(rng.integers(2, 11))
            ch = random_reversible_chain(n, rng)
            part = random_partition(n, int(rng.integers(1, n + 1)), rng)
            gap_product_check(ch, part)
            gap = spectral_gap(ch)
            phi = cheeger_constant(ch)
            if gap < phi**2 / 2 - 1e-10 or gap > 2 * phi + 1e-10:
                return False, f"two-sided isoperimetric bound failed at n={n}"
            worst_cheeger = min(worst_cheeger, 2 * phi / gap)
            J = len(part.blocks)
            if J > 1:
                lam = chain_eigenvalues(ch)
                lam_bar = chain_eigenvalues(project(ch, part))
                if np.any(lam[:J] > lam_bar + 1e-10):
                    return False, f"projected eigenvalues not dominant at n={n}"
        return True, f"100 chains; tightest upper margin {worst_cheeger:.3f}"

    _run(checks, "gap-product, isoperimetric, dominance sweep", partition_sweep)

    def weak_coupling():
        eps = 1e-3
        W = np.array([[1, 1, eps, eps], [1, 1, eps, eps],
                      [eps, eps, 1, 1], [eps, eps, 1, 1]], dtype=float)
        ch = FiniteChain(W / W.sum(axis=1, keepdims=True))
        part = Partition(((0, 1), (2, 3)))
        lhs, gap, rhs = gap_product_check(ch, part)
        return gap / rhs >= 0.9, f"gap/projected-gap = {gap / rhs:.4f}"

    _run(checks, "weakly coupled blocks saturate the upper bound", weak_coupling)

    def decay_checks():
        ch2 = FiniteChain([[0.9, 0.1], [0.2, 0.8]])
        for t in range(1, 51):
            chi_sq_decay_check(ch2, np.array([1.0, 0.0]), t)
        chu = FiniteChain(np.full((4, 4), 0.25))
        lhs, rhs = chi_sq_decay_check(chu, np.array([1.0, 0.0, 0.0, 0.0]), 3)
        if lhs > 1e-12 or rhs > 1e-12:
            return False, "complete chain does not mix in one step"
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            ch = random_reversible_chain(n, rng, lazy=float(rng.uniform(0, 0.5)))
            p0 = np.zeros(n)
            p0[int(rng.integers(0, n))] = 1.0
            for t in (1, 5, 20):
                chi_sq_decay_check(ch, p0, t)
        return True, "two-state t=1..50, complete chain, 20 random chains"

    _run(checks, "chi-square contraction at the mixing rate", decay_checks)

    return checks


# ---------------------------------------------------------- tempering bounds


def _refine_blocks(blocks, rng):
    out = []
    for A in blocks:
        A = np.asarray(A)
        if A.size > 1 and rng.random() < 0.6:
            k = int(rng.integers(1, A.size))
            perm = rng.permutation(A)
            out.append(np.sort(perm[:k]))
            out.append(np.sort(perm[k:]))
        else:
            out.append(A)
    return out


def tempering_bounds_suite():
    checks = []

    def sweep(mode):
        def body():
            rng = np.random.default_rng(1)
            worst = math.inf
            for _ in range(100):
                n = int(rng.integers(3, 11))
                L = int(rng.integers(1, 4))
                chains = [random_reversible_chain(n, rng) for _ in range(L)]
                w = rng.random(L)
                w = w / w.sum()
                parts = [Partition.whole(n)]
                for _ in range(1, L):
                    parts.append(random_partition(n, int(rng.integers(1, 4)), rng))
                bound, gap = tempering_gap_bound_check(chains, w, parts, mode)
                worst = min(worst, gap / bound)
            return True, f"100 instances, worst gap/bound margin {worst:.1f}"
        return body

    _run(checks, "gap lower bound, uniform level proposals", sweep("uniform"))
    _run(checks, "gap lower bound, neighbor level proposals", sweep("neighbor"))

    def refinement_sweep():
        rng = np.random.default_rng(42)
        worst = math.inf
        for _ in range(50):
            n = int(rng.integers(3, 11))
            L = int(rng.integers(1, 4))
            chains = [random_reversible_chain(n, rng) for _ in range(L)]
            w = rng.random(L)
            w = w / w.sum()
            raw = [[np.arange(n)]]
            for _ in range(1, L):
                raw.append(_refine_blocks(raw[-1], rng))
            parts = [Partition(tuple(tuple(int(i) for i in A) for A in blocks))
                     for blocks in raw]
            bound, gap = refinement_gap_bound_check(chains, w, parts)
            worst = min(worst, gap / bound)
        return True, f"50 refining instances, worst margin {worst:.1f}"

    _run(checks, "gap lower bound, refining partitions", refinement_sweep)

    def comparison_instance():
        ch = random_reversible_chain(10, np.random.default_rng(5), lazy=0.3)
        parts = [Partition.whole(10), Partition.singletons(10)]
        coarse, gap = tempering_gap_bound_check([ch, ch], [0.5, 0.5], parts, "uniform")
        refined, gap2 = refinement_gap_bound_check([ch, ch], [0.5, 0.5], parts)
        ok = refined > coarse and abs(gap - gap2) < 1e-12
        return ok, (f"gap={gap:.4f}; refined bound {refined:.3e} exceeds"
                    f" coarse bound {coarse:.3e} by {refined / coarse:.0f}x")

    _run(checks, "refined bound beats the coarse bound", comparison_instance)

    def degenerate_ladders():
        ch = random_reversible_chain(5, np.random.default_rng(6), lazy=0.2)
        bound, gap = tempering_gap_bound_check([ch], [1.0], [Partition.whole(5)], "uniform")
        if bound > gap:
            return False, "single-level bound above the gap"
        temp = build_tempering_chain([ch, ch], [0.5, 0.5], "uniform")
        level_part = Partition((tuple(range(5)), tuple(range(5, 10))))
        marg = project(temp, level_part)
        ok = abs(marg.P[0, 1] - 0.25) < 1e-12 and abs(marg.P[1, 0] - 0.25) < 1e-12
        return ok, "single-level bound and the identical-level marginal"

    _run(checks, "degenerate ladder structure", degenerate_ladders)

    return checks


# ---------------------------------------------------------------- diagnostics


def diagnostics_suite():
    checks = []
    desk = _desk()

    def chi_sq_oracles():
        if chi_sq_divergence([0.5, 0.5], [0.5, 0.5]) != 0.0:
            return False, "identical distributions not at 0"
        if abs(chi_sq_divergence([0.5, 0.5], [1.0, 0.0]) - 1.0) > 1e-15:
            return False, "point mass against uniform should be 1"
        if not math.isinf(chi_sq_divergence([1.0, 0.0], [0.5, 0.5])):
            return False, "missing absolute continuity must be infinite"
        return True, "closed-form values and the infinity sentinel"

    _run(checks, "chi-square divergence conventions", chi_sq_oracles)

    def chi_sq_sweep():
        rng = np.random.default_rng(9)
        for _ in range(1000):
            k = int(rng.integers(1, 6))
            comps = rng.dirichlet(np.ones(10), size=k)
            w = rng.dirichlet(np.ones(k))
            q = rng.dirichlet(np.ones(10))
            chi_sq_mixture_check(comps, w, q)
        comps = rng.dirichlet(np.ones(10), size=3)
        w = rng.dirichlet(np.ones(3))
        lhs, _ = chi_sq_mixture_check(comps, w, w @ comps)
        return lhs < 1e-12, "1000 random instances plus the q = mixture case"

    _run(checks, "chi-square mixture convexity sweep", chi_sq_sweep)

    def kl_conventions():
        if kl_divergence([0.0, 1.0], [0.5, 0.5]) == math.inf:
            return False, "0 log 0 should vanish"
        if not math.isinf(kl_divergence([0.5, 0.5], [1.0, 0.0])):
            return False, "mass escaping the support must be infinite"
        lhs, rhs = kl_decomposition_check(
            [0.5, 0.5], [0.5, 0.5],
            [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]],
        )
        return lhs == 0.0 and rhs == 0.0, "zero-mass atoms and the identical case"

    _run(checks, "KL divergence conventions", kl_conventions)

    def kl_sweep():
        rng = np.random.default_rng(10)
        for _ in range(1000):
            k = int(rng.integers(1, 6))
            w = rng.dirichlet(np.ones(k))
            wp = rng.dirichlet(np.ones(k))
            ps = rng.dirichlet(np.ones(10), size=k)
            qs = rng.dirichlet(np.ones(10), size=k)
            kl_decomposition_check(w, wp, ps, qs)
        q = rng.dirichlet(np.ones(10))
        w = rng.dirichlet(np.ones(4))
        ps = rng.dirichlet(np.ones(10), size=4)
        kl_decomposition_check(w, w, ps, [q] * 4)
        return True, "1000 random instances plus the shared-component case"

    _run(checks, "KL mixture decomposition sweep", kl_sweep)

    def tv_properties():
        rng = np.random.default_rng(22)
        for _ in range(100):
            a, b, c = rng.dirichlet(np.ones(20), size=3)
            dab = tv_from_masses(a, b)
            if abs(dab - tv_from_masses(b, a)) > 1e-15:
                return False, "asymmetric distance"
            if dab > tv_from_masses(a, c) + tv_from_masses(c, b) + 1e-12:
                return False, "triangle inequality failed"
        same = tv_from_masses([0.25, 0.75], [0.25, 0.75])
        disj = tv_from_masses([1.0, 0.0], [0.0, 1.0])
        return same == 0.0 and disj == 1.0, "symmetry, triangle, 0 and 1 anchors"

    _run(checks, "total variation metric properties", tv_properties)

    def sampler_tv():
        rng = np.random.default_rng(11)
        xs = sample_exact(desk, 100_000, rng)
        lo, hi = default_box(desk)
        hist = Histogram.from_samples(xs, lo, hi, bins=100)
        tv = tv_distance(hist, exact_bin_masses(desk, hist))
        return tv <= 0.05, f"TV={tv:.4f} at 10^5 draws over 100 bins"

    _run(checks, "exact sampler recovers the density", sampler_tv)

    def occupancy():
        centers = desk.means
        pts = np.full((50, 1), -3.0)
        frac, rest = mode_occupancy(pts, centers, 3.0)
        if not (frac[0] == 1.0 and frac[1] == 0.0 and rest == 0.0):
            return False, "point mass at a mode misassigned"
        rng = np.random.default_rng(23)
        xs = sample_exact(desk, 2000, rng)
        # a 3-sigma radius leaves 0.13% of each mode's mass unassigned
        frac, rest = mode_occupancy(xs, centers, 3.0)
        se = 3.0 * math.sqrt(0.25 / 2000)
        ok = abs(frac[0] - 0.5) <= se + 0.005 and abs(frac[1] - 0.5) <= se + 0.005
        return ok, f"fractions {frac[0]:.3f}/{frac[1]:.3f}, leftover {rest:.3f}"

    _run(checks, "mode occupancy assignment", occupancy)

    return checks


# ------------------------------------------------------------------ registry


_SUITES = {
    "mixture": mixture_suite,
    "estimator": estimator_suite,
    "chain-analysis": chain_analysis_suite,
    "tempering-bounds": tempering_bounds_suite,
    "diagnostics": diagnostics_suite,
}


def run_suites(names):
    """Run suites in order ('all' expands to every suite); returns name -> results.

    Every name is checked before any suite runs; an unknown one raises
    ValueError listing the choices.
    """
    expanded = []
    for name in names:
        key = name.replace("_", "-")
        if key == "all":
            expanded.extend(_SUITES)
        elif key in _SUITES:
            expanded.append(key)
        else:
            raise ValueError(f"unknown suite '{name}'; choose from "
                             + ", ".join(sorted([*_SUITES, "all"])))
    return {name: _SUITES[name]() for name in dict.fromkeys(expanded)}
