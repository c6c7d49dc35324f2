"""Command-line orchestration: every experiment behind one executable.

Subcommands: ``regime``, ``noise-check``, ``simulate``, ``holder``,
``small-value``, ``uniqueness``, ``yw``, ``oracle``.  Each run is a
deterministic function of (config, seed): artifacts are CSV reports, binary
field dumps, and a ``manifest.txt`` sidecar embedding every config key, the
config fingerprint, and the artifact version.  The replicas of
``noise-check``, ``holder``, ``uniqueness`` and ``small-value`` run on the
one runner, ``noise._run_replicas``: contiguous chunks of at most 8 replica
ids on a pool of ``SPDELAB_THREADS`` workers, merged in replica order, so the
emitted bytes never depend on scheduling.  The last three each call one
streamed estimator (:func:`~spdelab.estimators.structure_function`,
:func:`~spdelab.estimators.uniqueness_gap`,
:func:`~spdelab.estimators.conditional_regularity`), which takes per-snapshot
statistics from the engine; only ``simulate`` keeps a trajectory.
Everything checkable without a simulation is checked before step 1,
``--out`` and the 32-bit step bound included.

Exit codes: 0 success, 1 failed gate in ``--gated`` mode, 2 config parse
error, 3 precondition error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._fit import fit_loglog
from .config import DEFAULT_CONFIG, ExperimentConfig
from .errors import (
    BlowUpError,
    ConfigError,
    DomainError,
    InsufficientDataError,
    OracleError,
    SpdeLabError,
    SpectralError,
)
from .estimators import (
    _holder_reports,
    _require_octaves,
    conditional_regularity,
    default_conditioning_exponent,
    structure_function,
    uniqueness_gap,
)
from .kernels import classify_regime
from .noise import NoiseField, _require_steps, covariance_check, write_field
from .oracles import (
    space_difference_riesz,
    time_difference_riesz,
    verify_correst,
    verify_factorization,
    verify_jest,
    verify_pdiffest,
)
from .solver import InitialCondition, simulate
from .ywtools import RhoSpec, a_sequence, build_family, delta_approx_check


def _write_csv(path: Path, header, rows, cfg: ExperimentConfig) -> None:
    """CSV with LF endings and repr-exact floats; every row carries the config
    fingerprint and the artifact version."""
    stamp = [cfg.fingerprint(), __version__]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*header, "fingerprint", "version"])
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row] + stamp)


def _write_manifest(outdir: Path, cfg: ExperimentConfig, extra=None) -> None:
    lines = cfg.manifest_lines(dict(extra or {}, **{"artifact_version": __version__}))
    (outdir / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _outdir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.get_str("run.out"))
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write-probe"
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise DomainError(f"output directory {out} is not writable: {exc}") from exc
    return out


def _default_snapshots(grid, every: int):
    """The time of every ``every``-th step up to ``t_end``.  The last one's step is held to the engine's
    32-bit rule before the list is built."""
    if not every >= 1:
        raise DomainError(f"snapshot stride must be at least 1 step, got {every}")
    total = grid.t_end / grid.dt
    last = grid.steps(int(round(total)) // every * every * grid.dt) if math.isfinite(total) else total
    _require_steps(last)
    return [m * grid.dt for m in range(0, int(round(total)) + 1, every)]


# ---------------------------------------------------------------- subcommands


def _cmd_regime(cfg: ExperimentConfig, out: Path, gated: bool) -> int:
    verdict = classify_regime(cfg.kernel(), cfg.sigma())
    _write_csv(out / "regime.csv", ["verdict", "citation"], [[verdict.verdict, verdict.citation]], cfg)
    _write_manifest(out, cfg, {"verdict": verdict.verdict})
    print(f"{verdict.verdict} [{verdict.citation}]")
    return 0


def _cmd_noise_check(cfg: ExperimentConfig, out: Path, gated: bool) -> int:
    grid, kspec = cfg.grid(), cfg.kernel()
    replicas = cfg.get_int("run.replicas")
    cells = cfg.get_ints("noise.lags")
    tol = cfg.get_float("noise.tol")
    steps = cfg.get_int("noise.steps")
    lags = [g * grid.h for g in cells]
    rows = covariance_check(
        grid, kspec, lags, replicas=replicas, steps_per_replica=steps,
        master_seed=cfg.get_int("run.seed"),
    )
    ok = True
    out_rows = []
    for row in rows:
        if row.theory != 0.0:
            rel = row.estimate / row.theory - 1.0
            ok &= abs(rel) <= tol
        else:
            rel = float("nan")
            ok &= abs(row.estimate) <= max(4.0 * row.stderr, 1e-300)
        out_rows.append([row.lag, row.estimate, row.stderr, row.theory, rel])
    _write_csv(
        out / "noise_covariance.csv",
        ["lag", "estimate", "stderr", "theory", "rel_err"],
        out_rows,
        cfg,
    )
    _write_manifest(out, cfg, {"covariance_within_tol": ok, "replicas": replicas,
                               "steps_per_replica": steps, "draws": replicas * steps})
    print(f"noise covariance: {'pass' if ok else 'FAIL'} ({replicas} replicas, tol {tol})")
    return 0 if ok or not gated else 1


def _cmd_simulate(cfg: ExperimentConfig, out: Path, gated: bool) -> int:
    grid, kspec, sspec = cfg.grid(), cfg.kernel(), cfg.sigma()
    times = cfg.get_floats("sim.snapshots")
    if not times:
        times = _default_snapshots(grid, max(1, int(round(grid.t_end / grid.dt / 8))))
    traj = simulate(grid, kspec, sspec, cfg.u0(), cfg.stream(0), times,
                    clip=cfg.get_bool("sim.clip"))
    summary = []
    for i, (step, t, values) in enumerate(zip(traj.steps, traj.times, traj.values)):
        dump = NoiseField(grid=grid, values=values, kernel=kspec, stream=cfg.stream(0).at_step(step), dt=t)
        write_field(dump, out / f"snapshot_{i:04d}.bin")
        summary.append([t, float(np.mean(values)), float(np.min(values)), float(np.max(values))])
    _write_csv(out / "trajectory.csv", ["t", "mean", "min", "max"], summary, cfg)
    _write_manifest(
        out,
        cfg,
        {
            "trajectory_fingerprint": traj.fingerprint,
            "clip_count": traj.clip_count,
            "clip_max": traj.clip_max,
            "snapshots": len(traj.values),
            "final_step": traj.steps[-1],
        },
    )
    print(f"simulate: {len(traj.values)} snapshots, clip_count={traj.clip_count}")
    return 0


def _cmd_holder(cfg: ExperimentConfig, out: Path, gated: bool) -> int:
    grid, kspec, sspec = cfg.grid(), cfg.kernel(), cfg.sigma()
    p, order = cfg.get_float("holder.p"), cfg.get_int("holder.order")
    # p, order and the lattice of every lag are checked by each chunk's _Moments before its step 1
    space_lags = _require_octaves([g * grid.h for g in cfg.get_ints("holder.lags")])
    time_lags = _require_octaves([m * grid.dt for m in cfg.get_ints("holder.tsteps")])
    bands = [cfg.get_floats(key) for key in ("holder.gate_space", "holder.gate_time")]
    if any(len(band) not in (0, 2) for band in bands):
        raise ConfigError("holder.gate_space and holder.gate_time must each be empty or two numbers lo,hi")
    times = _default_snapshots(grid, cfg.get_int("holder.snap_every"))
    tables = structure_function(grid, kspec, sspec, cfg.u0(), cfg.streams(), times, p, space_lags, time_lags, order)
    rep_s, rep_t = _holder_reports(tables, p, order)

    _write_csv(
        out / "structure.csv",
        ["direction", "lag", "moment", "stderr", "n_samples"],
        [[rep.direction, r.lag, r.moment, r.stderr, r.n_samples] for rep in (rep_s, rep_t) for r in rep.rows],
        cfg,
    )
    _write_csv(
        out / "holder.csv",
        ["direction", "p", "order", "lag_min", "lag_max", "slope", "exponent", "stderr", "n_samples"],
        [
            [rep.direction, rep.p, rep.order, min(rep.lags), max(rep.lags), rep.slope,
             rep.exponent, rep.stderr, rep.n_samples]
            for rep in (rep_s, rep_t)
        ],
        cfg,
    )
    ok = all(not band or band[0] <= rep.exponent <= band[1] for band, rep in zip(bands, (rep_s, rep_t)))
    _write_manifest(out, cfg, {"spatial_exponent": rep_s.exponent, "temporal_exponent": rep_t.exponent})
    print(
        f"holder: spatial={rep_s.exponent:.4f} (se {rep_s.stderr:.4f}), "
        f"temporal={rep_t.exponent:.4f} (se {rep_t.stderr:.4f})"
    )
    return 0 if ok or not gated else 1


def _pair_perturbation(cfg: ExperimentConfig, grid) -> InitialCondition:
    return InitialCondition(
        kind=cfg.get_str("pair.perturbation"),
        center=grid.l / 2.0,
        width=cfg.get_float("pair.width") or grid.l / 8.0,
        height=cfg.get_float("pair.height"),
        k=cfg.get_int("pair.k"),
        amplitude=cfg.get_float("pair.height"),
    )


def _cmd_uniqueness(cfg: ExperimentConfig, out: Path, gated: bool) -> int:
    grid, deltas = cfg.grid(), cfg.get_floats("pair.deltas")
    times = _default_snapshots(grid, cfg.get_int("holder.snap_every"))
    report = uniqueness_gap(grid, cfg.kernel(), cfg.sigma(), cfg.u0(), _pair_perturbation(cfg, grid), deltas,
                            cfg.streams(), times)
    rows = []
    for d in report.deltas:
        for t, l1, sup in zip(report.times, report.median_l1[d], report.median_sup[d]):
            rows.append([d, t, float(l1), float(sup)])
    _write_csv(out / "uniqueness_decay.csv", ["delta", "t", "median_l1", "median_sup"], rows, cfg)
    _write_csv(
        out / "uniqueness_summary.csv",
        ["delta", "peak_l1", "monotone_in_delta"],
        [[d, report.peak_l1[d], report.monotone_in_delta] for d in report.deltas],
        cfg,
    )
    _write_manifest(out, cfg, {"monotone_in_delta": report.monotone_in_delta})
    print(f"uniqueness: peaks {[report.peak_l1[d] for d in report.deltas]} "
          f"monotone={report.monotone_in_delta}")
    return 0 if report.monotone_in_delta or not gated else 1


def _cmd_small_value(cfg: ExperimentConfig, out: Path, gated: bool) -> int:
    grid, kspec, sspec = cfg.grid(), cfg.kernel(), cfg.sigma()
    xi = cfg.get_float("smallvalue.xi")
    if xi is None:
        xi = default_conditioning_exponent(kspec.alpha, sspec.gamma)
    eps_values = [g * grid.h for g in cfg.get_ints("smallvalue.eps_cells")]
    lags = [g * grid.h for g in cfg.get_ints("smallvalue.lags")]
    delta, p, order = cfg.get_float("smallvalue.delta"), cfg.get_float("holder.p"), cfg.get_int("holder.order")
    gate_gap = cfg.get_float("smallvalue.gate_gap")
    times = _default_snapshots(grid, cfg.get_int("holder.snap_every"))
    result = conditional_regularity(grid, kspec, sspec, cfg.u0(), _pair_perturbation(cfg, grid), delta,
                                    cfg.streams(), times, xi, eps_values, p, lags, order)
    rows = []
    for eps, rep, gap in zip(result.eps_values, result.conditional, result.gaps):
        rows.append(
            [eps, result.xi, rep.exponent, result.unconditional.exponent, gap,
             rep.n_samples, result.occupancy[eps]]
        )
    _write_csv(
        out / "smallvalue.csv",
        ["eps", "xi", "exponent_conditional", "exponent_unconditional", "gap",
         "anchors", "occupancy"],
        rows,
        cfg,
    )
    ok = result.gaps[0] >= gate_gap
    _write_manifest(out, cfg, {"gap_at_smallest_eps": result.gaps[0]})
    print(
        f"small-value: uncond={result.unconditional.exponent:.4f} "
        f"cond@eps0={result.conditional[0].exponent:.4f} gap={result.gaps[0]:.4f}"
    )
    return 0 if ok or not gated else 1


def _cmd_yw(cfg: ExperimentConfig, out: Path, gated: bool) -> int:
    n_max = cfg.get_int("yw.n")
    rho_kind = cfg.get_str("yw.rho")
    if rho_kind != "sqrt":
        raise ConfigError("the CLI exposes the sqrt modulus; custom tables are API-only")
    rho = RhoSpec(kind="sqrt")
    rows = []
    ok = True
    for k in range(1, n_max + 1):
        closed = a_sequence(k, rho)
        solved = a_sequence(k, rho, method="solve")
        fam = build_family(k, rho)
        psi_mass = delta_approx_check(fam, lambda x: 1.0) / 2.0
        xs = np.geomspace(fam.a_n, fam.a_prev, 4001)
        cap = float(np.max(fam.psi(xs) * k * rho.rho(xs) ** 2 / 2.0))
        grid_x = np.linspace(0.0, 2.0, 2001)
        uplift_sup = float(np.max(fam.uplift(grid_x)))
        row_ok = (
            abs(closed - solved) <= 1e-12
            and abs(psi_mass - 1.0) <= 1e-6
            and cap <= 1.0 + 1e-9
            and uplift_sup <= fam.a_prev * (1.0 + 1e-9)
        )
        ok &= row_ok
        rows.append([k, closed, solved, abs(closed - solved), psi_mass, cap, uplift_sup, row_ok])
    _write_csv(
        out / "yw.csv",
        ["n", "a_closed", "a_solve", "abs_diff", "psi_integral", "cap_max", "uplift_sup", "ok"],
        rows,
        cfg,
    )
    _write_manifest(out, cfg, {"all_ok": ok})
    for row in rows:
        print(f"n={row[0]}: a_n={row[1]:.9g} solve={row[2]:.9g} psi_mass={row[4]:.9f} ok={row[7]}")
    return 0 if ok or not gated else 1


def _cmd_oracle(cfg: ExperimentConfig, out: Path, gated: bool) -> int:
    alpha = cfg.get_float("oracle.alpha")
    n_cases = cfg.get_int("oracle.cases")
    rng = cfg.stream().generator()
    cases = []
    fits = []

    for a in (0.2, 0.5, 0.8):
        resid = verify_factorization(a, t=1.0, s=0.0)
        fits.append(["factorization-residual", a, resid, 0.0, 1e-8, resid <= 1e-8])

    for t in (0.25, 1.0):
        cases.append(verify_correst(t, t, 0.0, 0.0, alpha))
    for _ in range(n_cases):
        t, tp = rng.uniform(0.1, 1.5, size=2)
        x, y = rng.uniform(-1.0, 1.0, size=2)
        cases.append(verify_correst(float(t), float(tp), float(x), float(y), alpha))

    for _ in range(max(4, n_cases // 2)):
        t = float(rng.uniform(0.05, 1.0))
        x, y = rng.uniform(-1.0, 1.0, size=2)
        cases.append(verify_pdiffest(t, t, float(x), float(y), beta=1.0))
        cases.append(verify_pdiffest(t, 2.0 * t, float(x), float(x), beta=1.0))

    seps = [2.0**-k for k in range(3, 8)]
    vals = [space_difference_riesz(0.25, 0.0, s, alpha) for s in seps]
    slope, _ = fit_loglog(seps, vals)
    fits.append(["space-difference-exponent", 0.25, slope, 2.0, 0.05, abs(slope - 2.0) <= 0.05])
    dts = [2.0**-k for k in range(5, 10)]
    vals = [time_difference_riesz(0.25, 0.25 + d, 0.0, alpha) for d in dts]
    slope, _ = fit_loglog(dts, vals)
    fits.append(["time-difference-exponent", 0.25, slope, 2.0, 0.05, abs(slope - 2.0) <= 0.05])

    jest = verify_jest([2.0**-k for k in range(2, 8)], a=0.4, b=0.0, c=0.0, alpha=alpha)
    cases.append(jest)
    fits.append(["triple-time-exponent", 0.4, jest.lhs, jest.rhs, jest.tol, jest.passed])

    _write_csv(out / "oracle_cases.csv", ["lemma", "params", "lhs", "rhs", "ratio", "pass"], [
        [c.lemma, ";".join(f"{k}={v}" for k, v in sorted(c.params.items())), c.lhs, c.rhs, c.ratio, c.passed]
        for c in cases
    ], cfg)
    _write_csv(out / "oracle_fits.csv", ["name", "param", "value", "target", "tol", "pass"], fits, cfg)
    ok = all(c.passed for c in cases) and all(f[-1] for f in fits)
    _write_manifest(out, cfg, {"all_ok": ok})
    print(f"oracle: {len(cases)} cases, {len(fits)} fits, {'pass' if ok else 'FAIL'}")
    return 0 if ok or not gated else 1


_COMMANDS = {
    "regime": _cmd_regime,
    "noise-check": _cmd_noise_check,
    "simulate": _cmd_simulate,
    "holder": _cmd_holder,
    "small-value": _cmd_small_value,
    "uniqueness": _cmd_uniqueness,
    "yw": _cmd_yw,
    "oracle": _cmd_oracle,
}


# flag -> the config key it sets, after (and so over) any --set of that key
_FLAG_KEYS = {"seed": "run.seed", "replicas": "run.replicas", "out": "run.out", "n": "yw.n", "rho": "yw.rho"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spdelab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"spdelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="config file (section.key = value lines)")
        sp.add_argument("--set", action="append", default=[], metavar="section.key=value")
        sp.add_argument("--seed", type=lambda s: int(s, 0), default=None)
        sp.add_argument("--replicas", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--gated", action="store_true")
        if name == "yw":
            sp.add_argument("--n", type=int, default=None)
            sp.add_argument("--rho", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    flags = vars(args)
    overrides = args.set + [f"{key}={flags[f]}" for f, key in _FLAG_KEYS.items() if flags.get(f) is not None]
    try:
        cfg = ExperimentConfig.load(args.config, overrides, defaults=DEFAULT_CONFIG)
        return _COMMANDS[args.command](cfg, _outdir(cfg), args.gated)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, InsufficientDataError) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 3
    except BlowUpError as exc:
        print(f"numeric failure (config fingerprint {exc.fingerprint}): {exc}", file=sys.stderr)
        return 4
    except (OracleError, SpectralError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except SpdeLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
