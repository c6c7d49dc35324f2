"""The package's public surface: one entry point per job, every name the benchmark traces, and one
module that draws the noise."""

import ast
import importlib
import json
import subprocess
import sys
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


IMPORT_PROBE = """
import json, sys
import spdelab.cli
import spdelab
deferred = ("scipy.integrate", "scipy.optimize", "scipy.interpolate", "scipy.ndimage",
            "spdelab.ywtools", "spdelab.oracles")
loaded = [name for name in deferred if name in sys.modules]
scipy = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
lazy = {name: getattr(spdelab, name).__module__ for name in
        ("RhoSpec", "YWFamily", "a_sequence", "build_family", "delta_approx_check")}
star = {}
exec("from spdelab import *", star)
try:
    spdelab.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({"loaded": loaded, "scipy": scipy, "lazy": lazy,
                  "unbound": sorted(set(spdelab.__all__) - set(star)), "missing": missing}))
"""


def test_import_loads_only_what_the_simulation_subcommands_run():
    """In a fresh interpreter, ``import spdelab.cli`` and ``import spdelab`` load neither ``ywtools`` nor
    ``oracles`` nor any scipy module (``kernels`` ports the Cephes gamma it needs); the five ``ywtools``
    names still resolve, on first access, ``from spdelab import *`` binds every name of ``__all__``,
    and an unknown name is still an ``AttributeError``."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert probe["loaded"] == []
    assert probe["scipy"] == []
    assert probe["lazy"] == dict.fromkeys(
        ("RhoSpec", "YWFamily", "a_sequence", "build_family", "delta_approx_check"), "spdelab.ywtools")
    assert probe["unbound"] == []
    assert probe["missing"] == "module 'spdelab' has no attribute 'no_such_name'"


# n = 16, 2 replicas and 51 steps: enough for every simulation subcommand to exit 0
TINY = ["--set", "grid.n=16", "--set", "grid.t_end=0.1", "--replicas", "2", "--set", "holder.snap_every=2",
        "--set", "holder.lags=1,2,4,8", "--set", "holder.tsteps=2,4,8,16", "--set", "noise.lags=1,2,4",
        "--set", "noise.steps=4", "--set", "smallvalue.lags=1,2,4,8", "--set", "smallvalue.eps_cells=1,2"]

RUN_PROBE = """
import contextlib, io, json, sys
from spdelab import cli
args, out = json.loads(sys.argv[1]), sys.argv[2]
runs = {}
for command in ("regime", "noise-check", "simulate", "holder", "uniqueness", "small-value"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, *args, "--out", f"{out}/{command}"])
    runs[command] = [code, sorted(name for name in sys.modules if name.split(".")[0] == "scipy")]
print(json.dumps(runs))
"""


def test_simulation_subcommands_run_without_scipy(tmp_path):
    """``regime``, ``noise-check``, ``simulate``, ``holder`` and ``uniqueness`` run to exit 0 in a fresh
    interpreter without loading any scipy module, so no in-op import can bring one back; ``small-value``,
    which loads ``scipy.ndimage`` when it runs, still exits 0 after them."""
    proc = subprocess.run([sys.executable, "-c", RUN_PROBE, json.dumps(TINY), str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert {command: code for command, (code, _) in runs.items()} == dict.fromkeys(runs, 0), proc.stderr
    assert {command: loaded for command, (_, loaded) in runs.items() if command != "small-value"} == dict.fromkeys(
        ("regime", "noise-check", "simulate", "holder", "uniqueness"), [])


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
