"""The package's public surface: one entry point per job, and every name the benchmark traces."""

import importlib
from pathlib import Path

import spdelab

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_public_names_are_pinned():
    # one-replica and one-step wrappers were folded into the batched entry
    # points; a name added or brought back here must be deliberate
    assert sorted(spdelab.__all__) == [
        "GridSpec", "HolderReport", "InitialCondition", "KernelSpec", "NoiseField",
        "RegimeVerdict", "RhoSpec", "RngStream", "SigmaSpec", "SolutionPair", "Trajectory",
        "UniquenessReport", "YWFamily", "a_sequence", "build_family",
        "classify_regime", "conditional_regularity", "critical_exponent_limit",
        "delta_approx_check", "errors", "estimators", "exponent_recursion", "heat_kernel",
        "kernel_eval", "kernels", "negative_moment_constant",
        "noise", "read_field", "semigroup_multiplier", "sigma_eval", "simulate", "simulate_pairs",
        "solver", "spectral_amplitudes", "spectral_density",
        "structure_function", "synthesize", "uniqueness_gap", "write_field",
        "ywtools",
    ]


def test_every_benchmark_role_is_traced(monkeypatch):
    """``perfbench`` times layers by wrapping names where their callers look
    them up; a metric whose names are all gone reads ``absent``.  Every role
    that a per-layer metric reads must still have a name to wrap."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run, spans = importlib.import_module("run"), importlib.import_module("spans")
    rec = spans.Recorder()
    try:
        run.install_spans(rec, 64)
    finally:
        rec.restore()
    roles = {role for _, role, _ in run.ROLE_METRICS.values()}
    roles |= {role for _, derived in run.DERIVED_METRICS.values() for role in derived}
    assert roles - rec.present_roles == set(), rec.absent
