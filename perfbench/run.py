#!/usr/bin/env python3
"""spdelab benchmark: repeated CLI subcommands, gated, timed end to end.

    python3 perfbench/run.py --workload {covariance,holder,pairs,field2d,all}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports ``spdelab`` from
``src/`` and calls ``spdelab.cli.main`` in-process, one op after another
(a closed loop with one client).  Op ``i`` gets seed ``N + i``.  Each op's
artifacts are checked by its gate, hashed with SHA-256, then deleted.

Ops run back to back until the next one would end after ``--seconds``
(at least ``MIN_OPS`` of them), so a run measures for about ``--seconds``
on any commit and any host speed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced ops and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Scratch files go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from statistics import median, quantiles

import numpy as np

import gates
import spans
from workloads import WORKLOADS, Workload, n_cells, read_config

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 6  # half before the timed ops, half after: host speed drifts
MIN_OPS = 3

# Bounded in BENCHMARK.json.  op_p50_s, wall_s and failed_frac are printed
# beside them; README.md says why they are not bounded.
END_TO_END = {
    "setup_s": "s",
    "op_p75_s": "s",
    "peak_rss_mb": "MiB",
}

# per-layer metric -> (unit, span role, role total)
ROLE_METRICS = {
    "noise.rng_setup.calls": ("count", "noise.rng_setup", "calls"),
    "noise.rng_setup.self_s": ("s", "noise.rng_setup", "self_s"),
    "noise.synthesize.calls": ("count", "noise.synthesize", "calls"),
    "noise.synthesize.self_s": ("s", "noise.synthesize", "self_s"),
    "noise.covariance.self_s": ("s", "noise.covariance", "self_s"),
    "noise.io_write.calls": ("count", "noise.io_write", "calls"),
    "noise.io_write.bytes": ("bytes", "noise.io_write", "amount"),
    "noise.io_write.self_s": ("s", "noise.io_write", "self_s"),
    "noise.io_read.bytes": ("bytes", "noise.io_read", "amount"),
    "noise.io_read.self_s": ("s", "noise.io_read", "self_s"),
    "solver.self_s": ("s", "solver", "self_s"),
    "solver.sigma.calls": ("count", "solver.sigma", "calls"),
    "solver.sigma.self_s": ("s", "solver.sigma", "self_s"),
    "solver.leg_steps": ("count", "solver.sigma", "amount"),
    "solver.snapshot_bytes": ("bytes", "solver", "amount"),
    "estimators.sf_space.self_s": ("s", "estimators.sf_space", "self_s"),
    "estimators.sf_time.self_s": ("s", "estimators.sf_time", "self_s"),
    "estimators.pairs.self_s": ("s", "estimators.pairs", "self_s"),
    "cli.self_s": ("s", "cli", "self_s"),
}
# per-layer metric -> (unit, span roles it is computed from)
DERIVED_METRICS = {
    "estimators.sf.calls": ("count", ("estimators.sf_space", "estimators.sf_time")),
    "estimators.time_match_ratio": ("ratio", ()),
    "cli.pool_utilization": ("ratio", ("solver",)),
    "cli.out_bytes": ("bytes", ()),
    "trace.overhead_frac": ("ratio", ()),
    "trace.accounted_frac": ("ratio", ()),
}
PER_LAYER = {name: spec[0] for name, spec in {**ROLE_METRICS, **DERIVED_METRICS}.items()}

SF_ROLES = ("estimators.sf_space", "estimators.sf_time")


def _sf_role(args, kwargs):
    direction = kwargs.get("direction", args[2] if len(args) > 2 else "space")
    return SF_ROLES[1] if direction == "time" else SF_ROLES[0]


def install_spans(rec: spans.Recorder, cells: int) -> None:
    """Wrap each public name where its caller looks it up."""
    def retained(args, kwargs, result):
        return spans.retained_nbytes(result)

    def legs(args, kwargs, result):
        # grid-shaped evaluations only; sigma's growth check runs on 401 points
        count, rest = divmod(np.size(result), cells)
        return count if rest == 0 else 0

    table = [
        ("spdelab.cli", "simulate", "solver", (), retained),
        ("spdelab.cli", "simulate_pair", "solver", (), retained),
        ("spdelab.cli", "covariance_check", "noise.covariance", (), None),
        ("spdelab.cli", "empirical_covariance", "noise.covariance", (), None),
        ("spdelab.cli", "sample_increment", "noise.sample", (), None),
        ("spdelab.cli", "write_field", "noise.io_write", (), spans.path_size),
        ("spdelab.cli", "holder_exponent", "estimators.holder", (), None),
        ("spdelab.cli", "structure_function", _sf_role, SF_ROLES, None),
        ("spdelab.cli", "uniqueness_gap", "estimators.pairs", (), None),
        ("spdelab.solver", "synthesize", "noise.synthesize", (), None),
        ("spdelab.solver", "sigma_eval", "solver.sigma", (), legs),
        ("spdelab.noise", "synthesize", "noise.synthesize", (), None),
        ("spdelab.noise", "read_field", "noise.io_read", (), spans.path_size),
        ("spdelab.noise", "RngStream.generator", "noise.rng_setup", (), None),
        ("spdelab.estimators", "structure_function", _sf_role, SF_ROLES, None),
    ]
    for module, path, role, roles, measure in table:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
        if owner is None:
            rec.absent.append(f"{module}.{path}")
            continue
        rec.patch(owner, attr, role, roles=roles, measure=measure, label=f"{module}.{path}")


@dataclass
class OpResult:
    index: int
    seed: int
    traced: bool
    rc: object
    passed: bool
    detail: str
    op_s: float
    hashes: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


def op_quartiles(ops) -> tuple[float, float, int]:
    """Median and upper quartile of the untraced ops' wall times, and how
    many ops there were.  The quartile interpolates between neighbouring
    op times (``statistics.quantiles``, inclusive method)."""
    times = [r.op_s for r in ops if not r.traced]
    if len(times) == 1:
        return times[0], times[0], 1
    _, p50, p75 = quantiles(times, n=4, method="inclusive")
    return p50, p75, len(times)


def time_match_ratio(outdir: Path, cfg: dict) -> float:
    """Matched over compared snapshot pairs of the time structure function.

    Each replica compares every pair of snapshots in ``[t_min, t_end]`` at
    every time lag; ``structure.csv`` says how many matched."""
    path = outdir / "structure.csv"
    if not path.is_file():
        return 0.0
    dt, every = float(cfg["grid.dt"]), int(cfg["holder.snap_every"])
    t_min, t_end = float(cfg["grid.t_min"]), float(cfg["grid.t_end"])
    steps = range(0, int(round(t_end / dt)) + 1, every)
    in_window = sum(1 for m in steps if t_min * (1 - 1e-9) <= m * dt <= t_end * (1 + 1e-9))
    rows = [r for r in gates.read_rows(path) if r["direction"] == "time"]
    matched = sum(int(r["n_samples"]) for r in rows) / n_cells(cfg)
    compared = len(rows) * int(cfg["run.replicas"]) * in_window * (in_window - 1) / 2
    return matched / compared if compared else 0.0


def layer_values(rec, cli_spans, gate_spans, threads, outdir, cfg, op_s) -> dict:
    """One traced op's per-layer numbers; None where every wrapped name is absent."""
    totals = spans.role_totals(cli_spans + gate_spans)
    zero = {"calls": 0, "self_s": 0.0, "amount": 0.0}
    out = {}
    for name, (_, role, key) in ROLE_METRICS.items():
        out[name] = totals.get(role, zero)[key] if role in rec.present_roles else None
    out["estimators.sf.calls"] = sum(totals.get(r, zero)["calls"] for r in SF_ROLES)
    out["estimators.time_match_ratio"] = time_match_ratio(outdir, cfg)
    root = next(s for s in cli_spans if s.role == "cli")
    replicas = [s for s in cli_spans if s.role == "solver" and s.parent == root.sid]
    if replicas:
        phase = max(s.end for s in replicas) - min(s.start for s in replicas)
        busy = sum(s.end - s.start for s in replicas)
        out["cli.pool_utilization"] = busy / (threads * phase) if phase > 0 else 0.0
    else:
        out["cli.pool_utilization"] = 0.0
    out["cli.out_bytes"] = sum(
        p.stat().st_size for p in outdir.iterdir() if p.is_file() and p.suffix != ".bin"
    )
    own = spans.self_times(cli_spans)
    out["trace.accounted_frac"] = sum(own.values()) / op_s
    for name, (_, roles) in DERIVED_METRICS.items():
        if roles and not any(r in rec.present_roles for r in roles):
            out[name] = None
    return out


def _region(rec, role: str):
    return rec.span(role, as_root=True) if rec else nullcontext()


def run_op(w: Workload, op, index: int, seed: int, rec, noise) -> OpResult:
    """One CLI call, then its gate; ``rec`` traces both when given.

    Any failure of the call or the gate fails the op and the run goes on."""
    cli = sys.modules["spdelab.cli"]
    outdir = OUT / w.name / "op"
    shutil.rmtree(outdir, ignore_errors=True)
    argv = [op.command, "--config", str(op.config_path), "--seed", str(seed),
            "--out", str(outdir), "--gated"]
    cfg = read_config(op.config_path)
    captured = io.StringIO()
    first = len(rec.spans) if rec else 0
    if rec:
        install_spans(rec, n_cells(cfg))
    try:
        start = time.perf_counter()
        try:
            with redirect_stdout(captured), _region(rec, "cli"):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = f"SystemExit({exc.code})"
        except Exception:
            traceback.print_exc()
            rc = "exception"
        op_s = time.perf_counter() - start
        mid = len(rec.spans) if rec else 0
        passed, detail = False, f"exit code {rc}"
        if rc == 0:
            try:
                with _region(rec, "verify"):
                    passed, detail = op.gate(outdir, seed, noise)
            except Exception as exc:
                traceback.print_exc()
                detail = f"gate error: {exc!r}"
    finally:
        if rec:
            rec.restore()
    for line in captured.getvalue().splitlines():
        print(f"  | {line}")
    result = OpResult(index, seed, rec is not None, rc, passed, detail, op_s)
    if outdir.is_dir():
        result.hashes = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir()) if p.is_file()
        }
        if rec and rc == 0:
            result.layers = layer_values(
                rec, rec.spans[first:mid], rec.spans[mid:], w.threads, outdir, cfg, op_s
            )
        shutil.rmtree(outdir)
    return result


SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import spdelab.cli
try:
    from spdelab.config import DEFAULT_CONFIG, ExperimentConfig
    ExperimentConfig.load(sys.argv[2], defaults=DEFAULT_CONFIG)
except (ImportError, AttributeError):
    open(sys.argv[2], encoding="utf-8").read()
print(repr(time.perf_counter() - t0))
"""


def fresh_setup_s(w: Workload) -> float:
    """A fresh interpreter's time to import ``spdelab.cli`` and load the config."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(w.op.config_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def probe_s() -> float:
    """Host-speed reference: median of 5 timings of a fixed FFT loop.

    Reported beside the metrics to show host drift; never used to scale them."""
    x = np.random.default_rng(12345).standard_normal(4096)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(300):
            np.fft.irfft(np.fft.rfft(x), 4096)
        times.append(time.perf_counter() - start)
    return median(times)


def environment(w: Workload) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            revision = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "git_revision": revision,
        "SPDELAB_THREADS": w.threads,
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    importlib.import_module("spdelab.cli")
    noise = importlib.import_module("spdelab.noise")
    os.environ["SPDELAB_THREADS"] = str(w.threads)
    (OUT / w.name).mkdir(parents=True, exist_ok=True)
    env = environment(w)
    print("env " + json.dumps(env))
    setup_samples = 0 if trace else SETUP_SAMPLES // 2
    setup = [fresh_setup_s(w) for _ in range(setup_samples)]
    probe_before = probe_s()
    rec = spans.Recorder() if trace else None

    ops: list[OpResult] = []
    start = time.perf_counter()
    while True:
        i = len(ops)
        traced = rec if trace and i % 2 == 1 else None
        ops.append(run_op(w, w.op, i, seed + i, traced, noise))
        elapsed = time.perf_counter() - start
        if len(ops) >= MIN_OPS and elapsed + median(r.op_s for r in ops) > seconds:
            break
    n_ops = len(ops)
    if w.check is not None:
        ops.append(run_op(w, w.check, n_ops, seed + n_ops, None, noise))
    wall_s = time.perf_counter() - start
    probe_after = probe_s()
    setup += [fresh_setup_s(w) for _ in range(setup_samples)]

    for r in ops:
        tag = " traced" if r.traced else ""
        print(f"op {r.index} seed={r.seed}{tag} rc={r.rc} gate={'pass' if r.passed else 'FAIL'} "
              f"op_s={r.op_s:.4f} ({r.detail})")
        for name, digest in r.hashes.items():
            print(f"   sha256 {digest}  {name}")

    main_ops = ops[:n_ops]
    failed = sum(not r.passed for r in ops)
    p50, p75, n_untraced = op_quartiles(main_ops)
    if trace:
        traced = [r for r in main_ops if r.traced and r.layers]
        values = {}
        for name in PER_LAYER:
            samples = [r.layers.get(name) for r in traced]
            values[name] = None if not samples or None in samples else median(samples)
        if traced:
            values["trace.overhead_frac"] = median(r.op_s for r in traced) / p50 - 1.0
        metrics = {name: _metric(values.get(name), unit) for name, unit in PER_LAYER.items()}
        spans_path = OUT / w.name / "spans.jsonl"
        rec.dump(spans_path)
        if rec.absent:
            print("absent " + " ".join(rec.absent))
    else:
        values = {
            "setup_s": median(setup),
            "op_p75_s": p75,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
        print(f"op_p50_s {p50:.6g} s and op_p75_s over {n_untraced} ops; "
              f"setup_s is the median of {len(setup)} fresh interpreters")
        print(f"wall_s {wall_s:.6g} s for all {len(ops)} ops of the run, gates included")
    print(f"failed_frac {failed / len(ops):.4f} ratio ({failed} of {len(ops)} ops)")
    print(f"probe_s before={probe_before:.6f} after={probe_after:.6f} (host drift; not applied)")
    for name, m in metrics.items():
        shown = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"metric {name} {shown} {m['unit']}")

    report = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace, "env": env,
        "probe_s": {"before": probe_before, "after": probe_after},
        "setup_samples_s": setup, "absent": rec.absent if rec else [],
        "ops": [vars(r) for r in ops], "metrics": metrics,
    }
    (OUT / w.name / "report.json").write_text(json.dumps(report, indent=1, default=str))
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def _metric(value, unit: str) -> dict:
    if value is None:
        return {"value": None, "unit": unit, "absent": True}
    return {"value": float(value), "unit": unit}


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process (so peak RSS is its own), then a table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
        frac = result["failed"] / result["attempted"]
        combined["metrics"][f"{name}.failed_frac"] = {"value": frac, "unit": "ratio"}
    print("\nworkload     metric                          value  unit")
    for key, m in combined["metrics"].items():
        name, metric = key.split(".", 1)
        shown = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:<12} {metric:<30} {shown:>8}  {m['unit']}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spdelab" / "cli.py").is_file():
        print(f"error: no spdelab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
