"""The package's public surface: one entry point per job, every name the benchmark traces, and one
module that draws the noise."""

import ast
import importlib
from pathlib import Path

import spdelab

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(spdelab.__file__).resolve().parent


def test_public_names_are_pinned():
    # one-replica and one-step wrappers were folded into the batched entry
    # points, and no submodule is listed; a name added or brought back here
    # must be deliberate
    assert sorted(spdelab.__all__) == [
        "GridSpec", "HolderReport", "InitialCondition", "KernelSpec", "NoiseField",
        "RegimeVerdict", "RhoSpec", "RngStream", "SigmaSpec", "SolutionPair", "Trajectory",
        "UniquenessReport", "YWFamily", "a_sequence", "build_family",
        "classify_regime", "conditional_regularity", "critical_exponent_limit",
        "delta_approx_check", "exponent_recursion", "heat_kernel",
        "kernel_eval", "negative_moment_constant",
        "read_field", "semigroup_multiplier", "sigma_eval", "simulate", "simulate_pairs",
        "spectral_amplitudes", "spectral_density",
        "structure_function", "synthesize", "uniqueness_gap", "write_field",
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


def draw_sites(path: Path) -> set:
    """``(top-level def, call)`` of every call in the module at ``path`` that re-keys a generator
    (``_rekey``), draws a spectrum (``_draw_spectrum``) or builds a ``Philox(0)``."""
    sites = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            zero = [type(a) is ast.Constant and a.value == 0 for a in node.args] == [True]
            if name == "Philox" and zero and not node.keywords:
                name = "Philox(0)"
            if name in ("_rekey", "_draw_spectrum", "Philox(0)"):
                sites.add((getattr(top, "name", None), name))
    return sites


def test_only_noise_draws_the_noise():
    """The draw decision lives in ``noise.py``: no other module re-keys a generator, draws a
    spectrum or builds a ``Philox(0)``, and in ``noise.py`` only ``_increments`` builds and
    re-keys the one Philox of the engine and the covariance check."""
    found = {path.name: draw_sites(path) for path in sorted(SRC.glob("*.py"))}
    assert sorted(name for name, sites in found.items() if sites) == ["noise.py"], found
    rekeyed = {site for site in found["noise.py"] if site[1] != "_draw_spectrum"}
    assert rekeyed == {("_increments", "_rekey"), ("_increments", "Philox(0)")}
