"""Acceptance gate: every criterion at its stated tolerance, one line per criterion.

The configurations below were frozen after calibration (see scripts/ and the
module docstrings); the tolerances come straight from the criteria and are
not adjusted here.  Heavy Monte Carlo runs print their runtime next to the
verdict.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from spdelab.estimators import (
    conditional_regularity,
    critical_exponent_limit,
    exponent_recursion,
    uniqueness_gap,
)
from spdelab.kernels import (
    NO_FUNCTION_SOLUTION,
    OPEN,
    PROVEN_UNIQUE_HOLDER,
    PROVEN_UNIQUE_LIPSCHITZ,
    PROVEN_UNIQUE_YW_BOUNDED,
    KernelSpec,
    classify_regime,
    negative_moment_constant,
)
from spdelab._fit import fit_loglog
from spdelab.noise import GridSpec, RngStream, covariance_check
from spdelab.oracles import (
    heat_difference_l1,
    space_difference_riesz,
    time_difference_riesz,
    verify_correst,
    verify_factorization,
    verify_jest,
)
from spdelab.solver import InitialCondition, SigmaSpec, simulate_pairs, simulate_replicas
from spdelab.estimators import structure_function
from spdelab.ywtools import RhoSpec, a_sequence, build_family
from scipy.integrate import quad

pytestmark = pytest.mark.acceptance


def report(number: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}", flush=True)
    assert passed, detail


# ---------------------------------------------------------------------------
def test_criterion_1_noise_covariance():
    """d=1, alpha in {0.3, 0.5, 0.8}, n=4096, 2000 replicas: covariance within
    10% of dt * r^(-alpha) on [4h, l/8]; under 2 minutes per alpha."""
    n, l = 4096, 1.0
    grid = GridSpec(dim=1, n=n, l=l, t_end=1.0)
    h = grid.h
    lag_cells = sorted(set(np.round(np.geomspace(4, n // 8, 10)).astype(int)))
    lags = [c * h for c in lag_cells]
    details = []
    ok = True
    for alpha, steps in ((0.3, 32), (0.5, 32), (0.8, 128)):
        kspec = KernelSpec(kind="riesz", alpha=alpha, dim=1)
        t0 = time.perf_counter()
        rows = covariance_check(
            grid, kspec, lags, replicas=2000,
            steps_per_replica=steps, master_seed=0xC0FFEE,
        )
        elapsed = time.perf_counter() - t0
        worst = max(abs(r.estimate / r.theory - 1.0) for r in rows)
        ok &= worst <= 0.10 and elapsed < 180.0
        details.append(f"alpha={alpha}: max rel err {worst:.3f} in {elapsed:.0f}s")
    report(1, ok, "; ".join(details))


# ---------------------------------------------------------------------------
def _holder_run(kspec, seed, n=4096, replicas=64, chunk=8):
    """Space and time exponents over ``replicas`` runs, integrated ``chunk``
    streams per batch; a chunk of 1 is one ``simulate`` per replica."""
    l = 1.0
    h = l / n
    grid = GridSpec(dim=1, n=n, l=l, dt=h * h / 2, t_end=4000 * h * h, t_min=400 * h * h)
    sigma = SigmaSpec(kind="lipschitz-linear", scale=1.0)
    u0 = InitialCondition(kind="constant", value=1.0)
    every = 16
    total = int(round(grid.t_end / grid.dt))
    times = [m * grid.dt for m in range(0, total + 1, every)]
    space_lags = [c * h for c in (8, 16, 32, 64)]
    time_lags = [m * grid.dt for m in (64, 128, 256, 512, 1024)]
    acc_space, acc_time = [], []
    for r0 in range(0, replicas, chunk):
        streams = [RngStream(seed, r) for r in range(r0, min(r0 + chunk, replicas))]
        for traj in simulate_replicas(grid, kspec, sigma, u0, streams, times):
            srows = structure_function(traj, p=2, direction="space", lags=space_lags, order=2)
            trows = structure_function(traj, p=2, direction="time", lags=time_lags, order=1)
            acc_space.append([row.moment for row in srows])
            acc_time.append([row.moment for row in trows])
    sp = fit_loglog(space_lags, np.mean(acc_space, axis=0))[0] / 2.0
    tm = fit_loglog(time_lags, np.mean(acc_time, axis=0))[0] / 2.0
    return sp, tm


def test_criterion_2_regularity_exponents():
    """alpha=0.5 lipschitz run: spatial in [0.65, 0.85], temporal in [0.30, 0.45];
    white-noise run: spatial in [0.43, 0.57], temporal in [0.20, 0.30].
    n=4096, 64 replicas, under 10 minutes total."""
    t0 = time.perf_counter()
    sp_c, tm_c = _holder_run(KernelSpec(kind="riesz", alpha=0.5, dim=1), seed=11)
    sp_w, tm_w = _holder_run(KernelSpec(kind="white", dim=1), seed=22)
    elapsed = time.perf_counter() - t0
    ok = (
        0.65 <= sp_c <= 0.85
        and 0.30 <= tm_c <= 0.45
        and 0.43 <= sp_w <= 0.57
        and 0.20 <= tm_w <= 0.30
        and elapsed < 600.0
    )
    report(
        2,
        ok,
        f"colored spatial={sp_c:.3f} temporal={tm_c:.3f} (theory 0.75/0.375), "
        f"white spatial={sp_w:.3f} temporal={tm_w:.3f} (theory 0.5/0.25), {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
def test_criterion_3_yw_exactness():
    """a_n root-solve exact to 1e-12 (n <= 6); bump constraints for n <= 8;
    smoothed absolute value within a_{n-1} of |x|."""
    rho = RhoSpec(kind="sqrt")
    ok = True
    details = []
    worst_a = 0.0
    for n in range(1, 7):
        closed = float(np.exp(-n * (n + 1) / 2.0))
        solved = a_sequence(n, rho, method="solve")
        worst_a = max(worst_a, abs(solved - closed))
    ok &= worst_a <= 1e-12
    details.append(f"max |a_n - closed| = {worst_a:.2e}")

    worst_mass, worst_cap, worst_uplift = 0.0, 0.0, True
    xs_global = np.linspace(0.0, 2.0, 4001)
    for n in range(1, 9):
        fam = build_family(n, rho)
        mass, _ = quad(
            lambda s: fam.psi(np.exp(s)) * np.exp(s),
            np.log(fam.a_n), np.log(fam.a_prev), limit=400,
        )
        worst_mass = max(worst_mass, abs(mass - 1.0))
        xs = np.geomspace(fam.a_n, fam.a_prev, 4001)
        worst_cap = max(worst_cap, float(np.max(fam.psi(xs) * n * xs / 2.0)))
        outside = np.array([fam.a_n * 0.99, fam.a_prev * 1.01])
        ok &= bool(np.all(fam.psi(outside) == 0.0))
        worst_uplift &= bool(np.max(fam.uplift(xs_global)) <= fam.a_prev * (1 + 1e-9))
    ok &= worst_mass <= 1e-6 and worst_cap <= 1.0 + 1e-9 and worst_uplift
    details.append(f"max |int psi - 1| = {worst_mass:.2e}, max cap = {worst_cap:.4f}, uplift ok = {worst_uplift}")
    report(3, ok, "; ".join(details))


# ---------------------------------------------------------------------------
def test_criterion_4_kernel_estimate_oracles():
    """Convolution identity chain to 1e-6; difference-estimate scaling
    exponents 1 and 2 within 0.05; triple-integral small-t exponent within
    0.1; factorization residual <= 1e-8."""
    ok = True
    details = []

    # equality chain on a (t, t') grid at coincident points
    chain_ok = True
    for t in (0.25, 0.5, 1.0):
        for tp in (0.25, 0.5, 1.0):
            case = verify_correst(t, tp, 0.1, 0.1, 0.5)
            closed = negative_moment_constant(0.5, 1) * (t + tp) ** -0.25
            chain_ok &= abs(case.lhs / case.extra["gauss_moment"] - 1) <= 1e-6
            chain_ok &= abs(case.extra["gauss_moment"] / closed - 1) <= 1e-6
    rng = np.random.Generator(np.random.Philox(key=424242))
    for _ in range(50):
        t, tp = rng.uniform(0.1, 1.2, size=2)
        x, y = rng.uniform(-1.0, 1.0, size=2)
        case = verify_correst(float(t), float(tp), float(x), float(y), 0.5)
        chain_ok &= case.passed
    ok &= chain_ok
    details.append(f"convolution chain ok = {chain_ok}")

    seps = [2.0**-k for k in range(4, 9)]
    slope1, _ = fit_loglog(
        seps, [heat_difference_l1(0.25, 0.25, 0.0, s) for s in seps]
    )
    ok &= abs(slope1 - 1.0) <= 0.05
    details.append(f"L1-difference space exponent {slope1:.3f}")

    slope_s, _ = fit_loglog(
        seps, [space_difference_riesz(0.25, 0.0, s, 0.5) for s in seps]
    )
    dts = [2.0**-k for k in range(6, 11)]
    slope_t, _ = fit_loglog(
        dts, [time_difference_riesz(0.25, 0.25 + d, 0.0, 0.5) for d in dts]
    )
    ok &= abs(slope_s - 2.0) <= 0.05 and abs(slope_t - 2.0) <= 0.05
    details.append(f"squared-difference exponents {slope_s:.3f}/{slope_t:.3f}")

    jest = verify_jest([2.0**-k for k in range(2, 8)], a=0.4, b=0.0, c=0.0, alpha=0.5)
    ok &= jest.passed
    details.append(f"triple-integral exponent {jest.lhs:.3f} (target {jest.rhs:.2f})")

    worst_fac = max(verify_factorization(a, 1.0, 0.0) for a in (0.2, 0.5, 0.8))
    ok &= worst_fac <= 1e-8
    details.append(f"factorization residual {worst_fac:.1e}")
    report(4, ok, "; ".join(details))


# ---------------------------------------------------------------------------
def test_criterion_5_regime_classifier():
    """Exact enumeration: the Hoelder rule on a 100x100 grid, the
    bounded-kernel rule, the Lipschitz rule and the supercritical rule,
    with zero discrepancies."""
    mismatches = 0
    alphas = np.linspace(0.005, 0.995, 100)
    gammas = np.linspace(0.01, 1.0, 100)
    for a in alphas:
        k = KernelSpec(kind="riesz", alpha=float(a))
        for g in gammas:
            got = classify_regime(k, SigmaSpec(kind="holder-power", gamma=float(g))).verdict
            want = PROVEN_UNIQUE_HOLDER if g > (1 + a) / 2 else OPEN
            mismatches += got != want

    bounded = KernelSpec(kind="bounded-constant")
    for sig, want in (
        (SigmaSpec(kind="viot"), PROVEN_UNIQUE_YW_BOUNDED),
        (SigmaSpec(kind="sqrt-plus"), PROVEN_UNIQUE_YW_BOUNDED),
        (SigmaSpec(kind="holder-power", gamma=0.5), PROVEN_UNIQUE_YW_BOUNDED),
        (SigmaSpec(kind="holder-power", gamma=0.3), OPEN),
        (SigmaSpec(kind="lipschitz-linear"), PROVEN_UNIQUE_LIPSCHITZ),
    ):
        mismatches += classify_regime(bounded, sig).verdict != want

    lip = SigmaSpec(kind="lipschitz-linear")
    for d in (1, 2):
        cap = min(2, d)
        for a in np.linspace(0.05, cap - 0.05, 12):
            k = KernelSpec(kind="riesz", alpha=float(a), dim=d)
            mismatches += classify_regime(k, lip).verdict != PROVEN_UNIQUE_LIPSCHITZ
        for a in np.linspace(cap + 0.05, cap + 2.0, 12):
            k = KernelSpec(kind="riesz", alpha=float(a), dim=d)
            mismatches += classify_regime(k, lip).verdict != NO_FUNCTION_SOLUTION
            k2 = KernelSpec(kind="riesz", alpha=float(a), dim=d)
            mismatches += (
                classify_regime(k2, SigmaSpec(kind="holder-power", gamma=0.9)).verdict
                != NO_FUNCTION_SOLUTION
            )
    report(5, mismatches == 0, f"{mismatches} discrepancies across all rules")


# ---------------------------------------------------------------------------
def _stability_setup():
    n, l = 256, 8.0
    h = l / n
    grid = GridSpec(dim=1, n=n, l=l, dt=h * h / 2, t_end=1.0, t_min=0.1)
    kspec = KernelSpec(kind="riesz", alpha=0.3, dim=1)
    sigma = SigmaSpec(kind="holder-power", gamma=0.8, scale=1.0)
    u0 = InitialCondition(kind="constant", value=1.0)
    pert = InitialCondition(kind="bump", center=l / 2, width=l / 16, height=1.0)
    total = int(round(grid.t_end / grid.dt))
    times = [m * grid.dt for m in range(0, total + 1, max(1, total // 64))]
    return grid, kspec, sigma, u0, pert, times


def _stability_pairs(deltas, replicas=32, seed=99):
    """Every replica's pair for every delta, delta-major; a replica's deltas
    are legs of one batch on its one noise path."""
    grid, kspec, sigma, u0, pert, times = _stability_setup()
    streams = [RngStream(seed, r) for r in range(replicas)]
    per_replica = simulate_pairs(grid, kspec, sigma, u0, pert, deltas, streams, times)
    return [pairs[k] for k in range(len(deltas)) for pairs in per_replica]


def test_criterion_6_pathwise_stability_proxy():
    """gamma=0.8, alpha=0.3, 32 replicas: delta=0 gives bitwise-zero difference;
    median peak L1 divergence strictly decreasing over delta = 1e-1, 1e-2, 1e-3."""
    t0 = time.perf_counter()
    pairs = _stability_pairs((0.0, 1e-1, 1e-2, 1e-3))
    rep = uniqueness_gap(pairs)
    zero_ok = rep.peak_l1[0.0] == 0.0 and all(
        np.all(rep.median_l1[0.0] == 0.0) for _ in (0,)
    )
    decreasing = rep.peak_l1[1e-3] < rep.peak_l1[1e-2] < rep.peak_l1[1e-1]
    elapsed = time.perf_counter() - t0
    report(
        6,
        zero_ok and decreasing and rep.monotone_in_delta,
        f"delta=0 exactly zero: {zero_ok}; peaks "
        f"{rep.peak_l1[1e-3]:.2e} < {rep.peak_l1[1e-2]:.2e} < {rep.peak_l1[1e-1]:.2e}; {elapsed:.0f}s",
    )


def test_batched_runs_match_per_replica_runs():
    """Criteria 2 and 6 integrate batches of replicas (and of deltas); at small
    scale their exponents and peaks are bitwise those of one run per replica
    (and per delta)."""
    kspec = KernelSpec(kind="riesz", alpha=0.5, dim=1)
    chunked = _holder_run(kspec, seed=11, n=256, replicas=3, chunk=2)
    assert chunked == _holder_run(kspec, seed=11, n=256, replicas=3, chunk=1)

    deltas = (0.0, 1e-1, 1e-2, 1e-3)
    grid, kspec, sigma, u0, pert, times = _stability_setup()
    alone = [
        simulate_pairs(grid, kspec, sigma, u0, pert, [d], [RngStream(99, r)], times)[0][0]
        for d in deltas
        for r in range(3)
    ]
    assert uniqueness_gap(_stability_pairs(deltas, replicas=3)).peak_l1 == uniqueness_gap(alone).peak_l1


# ---------------------------------------------------------------------------
def test_criterion_7_small_value_regularity():
    """alpha=0.5, gamma=0.5, delta=0.1: conditional spatial exponent exceeds the
    unconditional one by >= 0.05 at the smallest resolvable eps with >= 100
    anchors; the exponent recursion reaches its limit within 0.05 by step 50."""
    t0 = time.perf_counter()
    n, l = 1024, 1.0
    h = l / n
    grid = GridSpec(dim=1, n=n, l=l, dt=h * h / 2, t_end=2000 * h * h, t_min=200 * h * h)
    kspec = KernelSpec(kind="riesz", alpha=0.5, dim=1)
    sigma = SigmaSpec(kind="holder-power", gamma=0.5, scale=2.0)
    u0 = InitialCondition(kind="constant", value=1.0)
    pert = InitialCondition(kind="bump", center=l / 2, width=l / 8, height=1.0)
    total = int(round(grid.t_end / grid.dt))
    times = [m * grid.dt for m in range(0, total + 1, max(1, total // 64))]
    streams = [RngStream(7, r) for r in range(12)]
    pairs = [pair for (pair,) in simulate_pairs(grid, kspec, sigma, u0, pert, [0.1], streams, times)]
    res = conditional_regularity(
        pairs, xi=0.875, eps_values=[4 * h, 8 * h],
        lags=[c * h for c in (1, 2, 4, 8)], order=1,
    )
    gap0 = res.gaps[0]
    anchors = res.conditional[0].n_samples
    sim_ok = gap0 >= 0.05 and anchors >= 100

    worst = 0.0
    for a in np.linspace(0.05, 0.95, 10):
        for g in np.linspace(0.1, 1.0, 10):
            xs = exponent_recursion(float(a), float(g), 50)
            worst = max(worst, abs(xs[50] - critical_exponent_limit(float(a), float(g))))
    rec_ok = worst <= 0.05
    elapsed = time.perf_counter() - t0
    report(
        7,
        sim_ok and rec_ok,
        f"gap at eps=4h: {gap0:.3f} (uncond {res.unconditional.exponent:.3f}, "
        f"cond {res.conditional[0].exponent:.3f}, {anchors} anchors); "
        f"recursion worst dev {worst:.3f}; {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
def _run_cli(args, outdir, threads="1"):
    env = dict(os.environ, SPDELAB_THREADS=threads)
    proc = subprocess.run(
        [sys.executable, "-m", "spdelab.cli", *args, "--out", str(outdir)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return {p.name: p.read_bytes() for p in sorted(Path(outdir).iterdir())}


def test_criterion_8_determinism(tmp_path):
    """Any subcommand rerun with identical config and seed yields byte-identical
    artifacts, including under different thread counts."""
    fast = [
        "--set", "grid.n=128", "--set", "grid.t_end=0.002",
        "--set", "holder.snap_every=8", "--seed", "17",
    ]
    sim_args = ["simulate", *fast]
    a = _run_cli(sim_args, tmp_path / "a")
    b = _run_cli(sim_args, tmp_path / "b")
    sim_ok = a == b

    uni_args = ["uniqueness", *fast, "--replicas", "3", "--set", "pair.deltas=0.1,0.01"]
    c = _run_cli(uni_args, tmp_path / "c", threads="1")
    d = _run_cli(uni_args, tmp_path / "d", threads="3")
    thread_ok = c == d

    yw1 = _run_cli(["yw", "--n", "3", "--seed", "1"], tmp_path / "e")
    yw2 = _run_cli(["yw", "--n", "3", "--seed", "1"], tmp_path / "f")
    yw_ok = yw1 == yw2
    report(
        8,
        sim_ok and thread_ok and yw_ok,
        f"simulate rerun identical: {sim_ok}; thread counts 1 vs 3 identical: "
        f"{thread_ok}; yw rerun identical: {yw_ok}",
    )
