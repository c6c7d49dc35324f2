"""CLI orchestration: exit codes, artifacts, determinism, config handling."""

import csv
import gc
import hashlib
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spdelab.config import (
    DEFAULT_CONFIG,
    OPTIONAL_CONFIG,
    ExperimentConfig,
    fingerprint,
    parse_config_text,
)
from spdelab import noise, solver
from spdelab.errors import ConfigError
from spdelab.cli import main
from spdelab.noise import _amplitudes_cached
from spdelab.solver import config_fingerprint

ACCEPTANCE_CONFIGS = Path(__file__).resolve().parents[1] / "configs"

FAST_SIM = [
    "--set", "grid.n=128",
    "--set", "grid.l=1.0",
    "--set", "grid.t_end=0.002",
    "--set", "holder.snap_every=8",
]


# small configs for the chunking tests: 5 replicas split unevenly over 2 and 3 threads,
# and 12 noise-check replicas, which cross the 8-replica chunk boundary on one thread
CHUNK_ARGS = {
    "noise-check": ["--set", "grid.n=256", "--set", "noise.steps=16", "--replicas", "12"],
    "uniqueness": [*FAST_SIM, "--set", "pair.deltas=0,0.1,0.01"],
    "small-value": [
        "--set", "grid.n=512", "--set", "grid.t_end=0.0015", "--set", "sigma.kind=holder-power",
        "--set", "sigma.gamma=0.5", "--set", "sigma.scale=2.0", "--set", "holder.snap_every=16",
    ],
    "holder": [
        "--set", "grid.n=512", "--set", "grid.t_end=0.0002", "--set", "holder.snap_every=4",
        "--set", "holder.lags=2,4,8,16", "--set", "holder.tsteps=4,8,16,32",
    ],
}


# the small holder run whose artifacts TestGoldenBytes pins
GOLDEN_HOLDER = [
    "holder", "--set", "grid.n=64", "--set", "grid.dt=0.0001220703125", "--set", "grid.t_end=0.125",
    "--set", "holder.snap_every=8", "--set", "holder.lags=2,4,8,16", "--set", "holder.tsteps=16,32,64,128",
    "--replicas", "3", "--seed", "5",
]


# a small small-value run, for the checks made before step 1
SMALL_VALUE = ["small-value", "--set", "grid.n=64", "--replicas", "2", "--seed", "5"]


# every registered key whose stated default is a concrete value
CONCRETE_KEYS = sorted(
    key
    for key, value in {**parse_config_text(OPTIONAL_CONFIG), **parse_config_text(DEFAULT_CONFIG)}.items()
    if value and value != "auto"
)


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.setdefault("SPDELAB_THREADS", "1")
    env.update(env_extra or {})
    proc = subprocess.run(
        [sys.executable, "-m", "spdelab.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    return proc


def read_tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestConfig:
    def test_parse_sections(self):
        values = parse_config_text("a.x = 1\n# comment\nb.y = hello  # trailing\n")
        assert values == {"a.x": "1", "b.y": "hello"}

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_config_text("not an assignment\n")
        with pytest.raises(ConfigError):
            parse_config_text("nodot = 3\n")

    def test_fingerprint_order_invariant(self):
        a = parse_config_text("a.x = 1\nb.y = 2\n")
        b = parse_config_text("b.y = 2\na.x = 1\n")
        assert fingerprint(a) == fingerprint(b)

    def test_fingerprint_value_sensitive(self):
        a = parse_config_text("a.x = 1\n")
        b = parse_config_text("a.x = 2\n")
        assert fingerprint(a) != fingerprint(b)

    def test_overrides_and_types(self):
        cfg = ExperimentConfig.load(None, ["grid.n=256", "run.seed=0xBEEF"], defaults=DEFAULT_CONFIG)
        assert cfg.get_int("grid.n") == 256
        assert cfg.get_int("run.seed") == 0xBEEF
        assert cfg.get_floats("pair.deltas") == (0.1, 0.01, 0.001)

    def test_auto_maps_to_default(self):
        cfg = ExperimentConfig.load(None, ["grid.dt=auto"], defaults=DEFAULT_CONFIG)
        assert cfg.get_float("grid.dt") is None

    def test_auto_u0_value_is_the_documented_default(self):
        unset = ExperimentConfig.load(None, [], defaults=DEFAULT_CONFIG).u0()
        auto = ExperimentConfig.load(None, ["u0.value=auto"], defaults=DEFAULT_CONFIG).u0()
        assert auto == unset
        assert auto.value == 1.0

    def test_auto_holder_order_is_the_documented_default(self, tmp_path, monkeypatch):
        # small-value reads holder.order; "auto" must run the default order 2
        monkeypatch.setenv("SPDELAB_THREADS", "1")
        args = ["small-value", "--set", "grid.n=64", "--set", "grid.dt=0.0001220703125",
                "--set", "grid.t_end=0.0625", "--set", "holder.snap_every=16",
                "--set", "sigma.kind=holder-power", "--set", "sigma.gamma=0.5",
                "--set", "sigma.scale=2.0", "--set", "smallvalue.eps_cells=2,4",
                "--set", "smallvalue.xi=1.2", "--replicas", "3", "--seed", "5"]
        columns = ("exponent_conditional", "exponent_unconditional", "gap")
        tables = []
        for extra in ([], ["--set", "holder.order=auto"]):
            out = tmp_path / f"o{len(tables)}"
            assert main(args + extra + ["--out", str(out)]) == 0
            with open(out / "smallvalue.csv", newline="") as fh:
                tables.append([[row[c] for c in columns] for row in csv.DictReader(fh)])
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("key", CONCRETE_KEYS)
    def test_auto_reads_the_stated_default(self, key):
        unset = ExperimentConfig.load(None, [], defaults=DEFAULT_CONFIG)
        auto = ExperimentConfig.load(None, [f"{key}=auto"], defaults=DEFAULT_CONFIG)
        assert auto.get_str(key) == unset.get_str(key) is not None
        for build in ("grid", "kernel", "sigma", "u0"):
            assert getattr(auto, build)() == getattr(unset, build)()
        assert auto.stream(0) == unset.stream(0)

    def test_unknown_key_rejected(self, tmp_path, capsys):
        assert main(["regime", "--set", "kernel.alpah=0.9", "--out", str(tmp_path / "o")]) == 2
        assert "kernel.alpah" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        conf = tmp_path / "exp.cfg"
        conf.write_text("grid.n = 64\nsigma.gama = 0.5\n")
        with pytest.raises(ConfigError, match="sigma.gama"):
            ExperimentConfig.load(str(conf), [], defaults=DEFAULT_CONFIG)

    def test_optional_keys_stay_out_of_the_fingerprint(self):
        cfg = ExperimentConfig.load(None, [], defaults=DEFAULT_CONFIG)
        assert cfg.values == parse_config_text(DEFAULT_CONFIG)
        assert cfg.get_int("u0.k") == 1 and cfg.get_float("smallvalue.gate_gap") == 0.05
        assert cfg.get_floats("holder.gate_space") == () and cfg.get_bool("sim.clip") is False
        assert cfg.get_str("u0.path") is None

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.load(None, ["grid.n"], defaults=DEFAULT_CONFIG)

    def test_grid_kernel_sigma_construction(self):
        cfg = ExperimentConfig.load(
            None,
            ["grid.n=64", "kernel.kind=riesz", "kernel.alpha=0.4", "sigma.kind=sqrt-plus"],
            defaults=DEFAULT_CONFIG,
        )
        assert cfg.grid().n == 64
        assert cfg.kernel().alpha == 0.4
        assert cfg.sigma().kind == "sqrt-plus"

    @pytest.mark.parametrize("path", sorted(ACCEPTANCE_CONFIGS.glob("*.conf")), ids=lambda p: p.name)
    def test_acceptance_config_builds(self, path):
        """Each ``configs/*.conf`` loads and builds its grid, kernel, sigma and
        initial data, so a mistyped key fails here, not after a long criterion."""
        cfg = ExperimentConfig.load(str(path))
        cfg.grid(), cfg.kernel(), cfg.sigma(), cfg.u0()


class TestExitCodes:
    def test_regime_ok(self, tmp_path):
        proc = run_cli(
            ["regime", "--set", "kernel.alpha=0.5", "--set", "sigma.kind=holder-power",
             "--set", "sigma.gamma=0.8", "--out", str(tmp_path / "o")]
        )
        assert proc.returncode == 0
        assert "proven-unique-holder" in proc.stdout

    def test_config_file_loaded(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# experiment\nkernel.alpha = 0.4\nsigma.kind = holder-power\nsigma.gamma = 0.9\n"
        )
        proc = run_cli(["regime", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert proc.returncode == 0
        assert "proven-unique-holder" in proc.stdout

    def test_parse_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("this is not a config\n")
        proc = run_cli(["regime", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert proc.returncode == 2

    def test_precondition_error_is_3(self, tmp_path):
        proc = run_cli(["noise-check", "--set", "grid.n=100", "--out", str(tmp_path / "o")])
        assert proc.returncode == 3

    def test_small_value_lag_beyond_half_grid_is_3(self, tmp_path):
        # a 40-cell lag on n=64 would alias through the periodic wrap
        code = main(["small-value", "--set", "grid.n=64", "--set", "smallvalue.lags=1,2,4,40",
                     "--replicas", "2", "--out", str(tmp_path / "o")])
        assert code == 3

    @pytest.mark.parametrize("path", [None, "missing.bin"], ids=["unset", "missing"])
    def test_file_initial_condition_without_a_file_is_3(self, tmp_path, path):
        args = ["simulate", "--set", "grid.n=32", "--set", "u0.kind=file", "--out", str(tmp_path / "o")]
        if path is not None:
            args += ["--set", f"u0.path={tmp_path / path}"]
        proc = run_cli(args)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("precondition error:")

    @pytest.mark.parametrize("setting", ["grid.dt=inf", "sim.snapshots=inf", "sim.snapshots=nan"])
    def test_non_finite_step_or_snapshot_time_is_3(self, tmp_path, setting):
        proc = run_cli(["simulate", "--set", "grid.n=32", "--set", setting, "--out", str(tmp_path / "o")])
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("precondition error:")

    @pytest.mark.parametrize(
        "command, setting",
        [("simulate", "kernel.amplitude=inf"), ("simulate", "sigma.scale=inf"),
         ("simulate", "sigma.growth_c=inf"), ("uniqueness", "pair.width=inf")],
    )
    def test_non_finite_spec_value_is_3(self, tmp_path, command, setting):
        proc = run_cli([command, "--set", "grid.n=32", "--set", setting, "--out", str(tmp_path / "o")])
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("precondition error:")

    def test_small_value_eps_beyond_half_grid_is_3(self, tmp_path):
        # a 40-cell window on n=64 would wrap the whole torus
        code = main(["small-value", "--set", "grid.n=64", "--set", "smallvalue.eps_cells=4,40",
                     "--replicas", "2", "--out", str(tmp_path / "o")])
        assert code == 3

    @pytest.mark.parametrize("steps, replicas", [("2", "1"), ("1", "1"), ("0", "8"), ("-3", "8")])
    def test_degenerate_noise_check_sizes_are_3(self, tmp_path, steps, replicas):
        proc = run_cli(
            ["noise-check", "--set", "grid.n=256", "--set", f"noise.steps={steps}",
             "--replicas", replicas, "--out", str(tmp_path / "o")]
        )
        assert proc.returncode == 3, proc.stderr

    def test_numeric_failure_is_4(self, tmp_path):
        proc = run_cli(
            ["simulate", *FAST_SIM,
             "--set", "sigma.kind=lipschitz-linear",
             "--set", "sigma.scale=1e160",
             "--set", "sigma.growth_c=1e160",
             "--set", "u0.value=1e200",
             "--out", str(tmp_path / "o")]
        )
        assert proc.returncode == 4

    def test_blow_up_message_names_config_fingerprint(self, tmp_path, capsys):
        # lags within n/2 = 32 cells, which holder checks before step 1
        overrides = ["grid.n=64", "grid.t_end=0.01", "holder.lags=2,4,8,16", "kernel.kind=bounded-constant",
                     "sigma.scale=1e12", "u0.value=1e100", "run.replicas=5", "run.seed=2"]
        cfg = ExperimentConfig.load(None, overrides, defaults=DEFAULT_CONFIG)
        expected = config_fingerprint(cfg.grid(), cfg.kernel(), cfg.sigma(), cfg.u0(), cfg.stream(4))
        argv = ["holder", "--out", str(tmp_path / "o")]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert f"(config fingerprint {expected}): non-finite values at step 21 " in err
        assert err.rstrip().endswith("in replica 4")

    @pytest.mark.parametrize("argv, setting, code", [
        *[pytest.param(GOLDEN_HOLDER, s, 3, id=s)
          for s in ("holder.p=0", "holder.p=-1", "holder.snap_every=0", "holder.snap_every=-3")],
        *[pytest.param(GOLDEN_HOLDER, s, 3, id=s) for s in (
            "holder.lags=2,4,8,40",  # beyond n/2 = 32 cells
            "holder.lags=2,4,8",  # 2 octaves
            "holder.tsteps=0,16,32,64",
            "holder.order=3",
        )],
        *[pytest.param(GOLDEN_HOLDER, s, 2, id=s)
          for s in ("holder.gate_space=0.6,high", "holder.gate_time=0.3")],
        *[pytest.param(SMALL_VALUE, s, 3, id=f"small-value-{s}") for s in (
            "grid.dim=2", "smallvalue.eps_cells=4,40", "smallvalue.lags=1,2,4,40", "smallvalue.lags=1,2,4",
            "holder.order=3", "smallvalue.delta=0", "smallvalue.eps_cells=,", "pair.width=1e300",
        )],
        pytest.param(["uniqueness", *FAST_SIM], "pair.width=1e300", 3, id="uniqueness-pair.width=1e300"),
        pytest.param(SMALL_VALUE, "smallvalue.gate_gap=wide", 2, id="small-value-smallvalue.gate_gap=wide"),
        # checked by noise._increments, before its first draw
        *[pytest.param(["noise-check", "--set", "grid.n=256"], s, 3, id=f"noise-check-{s}")
          for s in ("noise.steps=4294967297", "kernel.alpha=1.5")],
        # --out names a file, which cannot be made a directory
        *[pytest.param(argv, None, 3, id=f"{argv[0]}-out-is-a-file")
          for argv in (GOLDEN_HOLDER, SMALL_VALUE, ["uniqueness", *FAST_SIM], ["simulate", *FAST_SIM],
                       ["noise-check", "--set", "grid.n=256"])],
    ])
    def test_bad_moment_order_or_stride_is_3_before_step_one(self, tmp_path, monkeypatch, capsys,
                                                             argv, setting, code):
        """Every check that needs no simulation fails the run before step 1:
        exit 3 for a precondition, 2 for a malformed gate."""
        def no_draw(*args):
            raise AssertionError("the run reached step 1")

        monkeypatch.setattr(noise, "_draw_spectrum", no_draw)
        monkeypatch.setenv("SPDELAB_THREADS", "1")
        out = tmp_path / "o"
        if setting is None:
            out.write_text("")
        assert main([*argv, *(["--set", setting] if setting else []), "--out", str(out)]) == code
        prefix = {2: "config error:", 3: "precondition error:"}[code]
        assert capsys.readouterr().err.startswith(prefix)

    @pytest.mark.parametrize("command", ["noise-check", "simulate", "holder", "small-value", "uniqueness"])
    def test_zero_grid_points_is_3_with_the_grid_message(self, tmp_path, capsys, command):
        assert main([command, "--set", "grid.n=0", "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == "precondition error: n must be a power of two >= 4\n"

    @pytest.mark.parametrize("setting", ["grid.t_end=1e300", "grid.dt=1e-300"])
    @pytest.mark.parametrize("command", ["holder", "uniqueness", "small-value"])
    def test_step_count_past_32_bits_is_3_at_once(self, tmp_path, command, setting):
        """A horizon past 2^32 steps fails before its snapshot times are listed: the run, in a child
        process under a 1 GiB address-space limit, exits 3 with the engine's 32-bit message."""
        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        env = dict(os.environ, SPDELAB_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "spdelab.cli", command, "--set", setting, "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env, timeout=120, preexec_fn=limit_address_space,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("precondition error: ")
        assert proc.stderr.endswith(" steps need step indices past the 32 bits of a stream\n")

    @pytest.mark.parametrize("threads", ["abc", "0", "-2"])
    def test_thread_count_that_is_not_a_positive_integer_is_2(self, tmp_path, monkeypatch, capsys, threads):
        monkeypatch.setenv("SPDELAB_THREADS", threads)
        assert main(["uniqueness", *FAST_SIM, "--replicas", "2", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: SPDELAB_THREADS must be a positive integer, got {threads!r}")

    @pytest.mark.parametrize("seed", ["5", "11"])
    def test_default_noise_check_passes_gated(self, tmp_path, seed):
        out = tmp_path / "o"
        proc = run_cli(["noise-check", "--seed", seed, "--out", str(out), "--gated"])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        manifest = (out / "manifest.txt").read_text()
        assert "steps_per_replica = 2048" in manifest
        assert "draws = 16384" in manifest

    def test_gated_failure_is_1(self, tmp_path):
        proc = run_cli(
            ["noise-check", "--set", "grid.n=256", "--set", "noise.tol=1e-9",
             "--replicas", "4", "--out", str(tmp_path / "o"), "--gated"]
        )
        assert proc.returncode == 1


class TestArtifacts:
    def test_regime_csv_and_manifest(self, tmp_path):
        out = tmp_path / "o"
        proc = run_cli(
            ["regime", "--set", "kernel.alpha=0.5", "--set", "sigma.kind=lipschitz-linear",
             "--out", str(out)]
        )
        assert proc.returncode == 0
        csv_text = (out / "regime.csv").read_text()
        lines = csv_text.splitlines()
        assert lines[0] == "verdict,citation,fingerprint,version"
        assert "proven-unique-lipschitz" in lines[1]
        manifest = (out / "manifest.txt").read_text()
        assert "fingerprint = " in manifest
        assert "artifact_version = 0.1.0" in manifest

    def test_manifest_contains_all_config_keys(self, tmp_path):
        out = tmp_path / "o"
        run_cli(["regime", "--out", str(out)])
        manifest = (out / "manifest.txt").read_text()
        for key in ("grid.n", "kernel.kind", "sigma.kind", "run.seed"):
            assert f"{key} = " in manifest

    def test_simulate_manifest_names_final_step(self, tmp_path):
        # 23 steps at the default stride round(23/8) = 3: the last snapshot is step 21
        out = tmp_path / "o"
        assert main(["simulate", "--set", "grid.n=32", "--set", "grid.t_end=0.01123046875",
                     "--out", str(out)]) == 0
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert "snapshots = 8" in manifest and "final_step = 21" in manifest

    def test_simulate_writes_snapshots(self, tmp_path):
        out = tmp_path / "o"
        proc = run_cli(["simulate", *FAST_SIM, "--out", str(out)])
        assert proc.returncode == 0
        bins = sorted(out.glob("snapshot_*.bin"))
        assert len(bins) >= 2
        assert (out / "trajectory.csv").exists()
        from spdelab.noise import read_field

        f = read_field(bins[1])
        assert f.values.shape == (128,)

    def test_oracle_cases_csv(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["oracle", "--set", "oracle.cases=0", "--out", str(out)]) == 0
        n_cases = int(capsys.readouterr().out.split()[1])
        text = (out / "oracle_cases.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "lemma,params,lhs,rhs,ratio,pass,fingerprint,version"
        assert len(lines) == 1 + n_cases
        assert "\r" not in text
        assert "gaussian-riesz-convolution" in lines[1]

    def test_yw_table(self, tmp_path):
        out = tmp_path / "o"
        proc = run_cli(["yw", "--n", "3", "--rho", "sqrt", "--out", str(out)])
        assert proc.returncode == 0
        rows = (out / "yw.csv").read_text().splitlines()
        assert rows[0].startswith("n,a_closed,a_solve,abs_diff,psi_integral,cap_max,uplift_sup,ok")
        last = rows[3].split(",")
        assert float(last[1]) == pytest.approx(np.exp(-6.0), rel=1e-12)
        assert last[7] == "True"

    def test_oracle_seed_is_taken_modulo_2_64(self, tmp_path):
        """``oracle`` draws from the seed's stream, as every other subcommand does: seed -1 exits 0 and
        writes the rows of seed 2^64 - 1, up to the config fingerprint of each row."""
        rows = {}
        for seed in (-1, 2**64 - 1):
            out = tmp_path / str(seed)
            assert main(["oracle", "--set", "oracle.cases=3", "--set", f"run.seed={seed}", "--out", str(out)]) == 0
            rows[seed] = [line.rsplit(",", 2)[0] for name in ("oracle_cases.csv", "oracle_fits.csv")
                          for line in (out / name).read_text().splitlines()]
        assert rows[-1] == rows[2**64 - 1]


class TestDeterminism:
    def test_simulate_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            proc = run_cli(["simulate", *FAST_SIM, "--seed", "17", "--out", str(out)])
            assert proc.returncode == 0
        assert read_tree(a) == read_tree(b)

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = [
            "uniqueness", *FAST_SIM, "--replicas", "3",
            "--set", "pair.deltas=0.1,0.01", "--seed", "3",
        ]
        pa = run_cli([*args, "--out", str(a)], env_extra={"SPDELAB_THREADS": "1"})
        pb = run_cli([*args, "--out", str(b)], env_extra={"SPDELAB_THREADS": "3"})
        assert pa.returncode == 0 and pb.returncode == 0
        assert read_tree(a) == read_tree(b)

    @pytest.mark.parametrize("command", sorted(CHUNK_ARGS))
    def test_replica_chunks_do_not_change_bytes(self, tmp_path, command):
        args = [command, "--replicas", "5", "--seed", "3", *CHUNK_ARGS[command]]
        trees = []
        for threads in ("1", "2", "3"):
            out = tmp_path / threads
            proc = run_cli([*args, "--out", str(out)], env_extra={"SPDELAB_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            trees.append(read_tree(out))
        assert trees[0] == trees[1] == trees[2]

    def test_blow_up_message_does_not_depend_on_threads(self, tmp_path):
        # seed 2: replicas 0-3 blow up at step 22 and replica 4 at step 21, so
        # every chunking must report replica 4, the first step's lowest id
        args = [
            "holder", "--set", "grid.n=64", "--set", "grid.t_end=0.01", "--set", "holder.lags=2,4,8,16",
            "--set", "kernel.kind=bounded-constant", "--set", "sigma.scale=1e12",
            "--set", "u0.value=1e100", "--replicas", "5", "--seed", "2",
        ]
        messages = []
        for threads in ("1", "3"):
            proc = run_cli([*args, "--out", str(tmp_path / threads)], env_extra={"SPDELAB_THREADS": threads})
            assert proc.returncode == 4
            messages.append(proc.stderr)
        assert messages[0] == messages[1]
        assert "non-finite values at step 21 " in messages[0]
        assert messages[0].rstrip().endswith("in replica 4")

    def test_holder_small_run(self, tmp_path):
        out = tmp_path / "o"
        proc = run_cli(
            ["holder", "--set", "grid.n=512", "--set", "grid.t_end=0.0002",
             "--set", "holder.snap_every=4", "--set", "holder.lags=2,4,8,16",
             "--set", "holder.tsteps=4,8,16,32", "--replicas", "4", "--out", str(out)]
        )
        assert proc.returncode == 0, proc.stderr
        text = (out / "holder.csv").read_text()
        assert text.splitlines()[0].startswith("direction,p,order,lag_min,lag_max,slope,exponent")
        assert (out / "structure.csv").exists()

    def test_main_callable_in_process(self, tmp_path):
        # the console entry point returns exit codes instead of raising
        code = main(["regime", "--set", "kernel.alpha=0.5", "--out", str(tmp_path / "o")])
        assert code == 0

    def test_small_value_cli(self, tmp_path):
        out = tmp_path / "o"
        proc = run_cli(
            ["small-value", "--set", "grid.n=512", "--set", "grid.t_end=0.0015",
             "--set", "sigma.kind=holder-power", "--set", "sigma.gamma=0.5",
             "--set", "sigma.scale=2.0", "--set", "holder.snap_every=16",
             "--set", "smallvalue.lags=1,2,4,8",
             "--replicas", "3", "--out", str(out)]
        )
        assert proc.returncode == 0, proc.stderr
        rows = (out / "smallvalue.csv").read_text().splitlines()
        assert rows[0].startswith("eps,xi,exponent_conditional,exponent_unconditional,gap")
        assert len(rows) >= 2


def traced_peak(argv):
    """The traced peak of one in-process CLI run, which must exit 0."""
    _amplitudes_cached.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestHolderMemory:
    @staticmethod
    def traced_peak(out, n, steps, replicas, tsteps):
        """The traced peak of one 1-D ``holder`` run at ``grid.dt = h^2/2``, snapshots every 4 steps."""
        dt = (1.0 / n) ** 2 / 2
        return traced_peak(["holder", "--set", f"grid.n={n}", "--set", f"grid.dt={dt!r}",
                            "--set", f"grid.t_end={steps * dt!r}", "--set", "holder.snap_every=4",
                            "--set", "holder.lags=2,4,8,16", "--set", f"holder.tsteps={tsteps}",
                            "--replicas", str(replicas), "--out", str(out)])

    def test_traced_peak_does_not_grow_with_the_run(self, tmp_path, monkeypatch):
        """``holder`` keeps per-snapshot scalars and the rows of its longest
        time lag (128 rows of 8 KiB here), not every snapshot: doubling the run
        from 250 to 500 snapshots leaves the traced peak within 10%."""
        monkeypatch.setenv("SPDELAB_THREADS", "1")

        def traced_peak(steps):
            return self.traced_peak(tmp_path / str(steps), 1024, steps, 1, "64,128,256,512")

        traced_peak(600)  # first-call allocations (lazy imports, caches) are not the run's
        short, long = traced_peak(1000), traced_peak(2000)
        assert long <= 1.10 * short, (short, long)

    def test_traced_peak_does_not_grow_with_the_replicas(self, tmp_path, monkeypatch):
        """The replica runner steps at most 8 replicas at a time, on one thread
        too: 32 replicas add only their scalars to what 8 hold, so the traced
        peak grows by at most 25% (one batch of 32 held about 3.5 times as much)."""
        monkeypatch.setenv("SPDELAB_THREADS", "1")

        def traced_peak(replicas):
            return self.traced_peak(tmp_path / str(replicas), 512, 200, replicas, "8,16,32,64")

        traced_peak(2)  # first-call allocations (lazy imports, caches) are not the run's
        few, many = traced_peak(8), traced_peak(32)
        assert many <= 1.25 * few, (few, many)


class TestPairMemory:
    """``uniqueness`` and ``small-value`` stream per-row statistics of the pair
    differences from the engine and keep no snapshot."""

    @pytest.mark.parametrize("command, config, settings, t_end", [
        # n = 1024: 1024 and 2048 steps, a snapshot every 32
        pytest.param("uniqueness", "criterion6_pairs.conf", ["grid.n=1024"], 0.5, id="uniqueness"),
        # 2000 and 4000 h^2: 4000 and 8000 steps, a snapshot every 62
        pytest.param("small-value", "criterion7_smallvalue.conf", [], 0.0019073486328125, id="small-value"),
    ])
    def test_traced_peak_does_not_grow_with_the_run(self, tmp_path, monkeypatch, command, config, settings, t_end):
        """Doubling the horizon of a 1-replica run leaves the traced peak within
        10% (+1% and +2% here); recording every snapshot of every leg, it grew
        by 86% (``uniqueness``) and 104% (``small-value``)."""
        monkeypatch.setenv("SPDELAB_THREADS", "1")

        def run(name, horizon):
            argv = [command, "--config", str(ACCEPTANCE_CONFIGS / config), "--replicas", "1"]
            for setting in [*settings, f"grid.t_end={horizon!r}"]:
                argv += ["--set", setting]
            return traced_peak([*argv, "--out", str(tmp_path / name)])

        run("warm", t_end)  # first-call allocations (lazy imports, caches) are not the run's
        short, long = run("short", t_end), run("long", 2 * t_end)
        assert long <= 1.10 * short, (short, long)

    @pytest.mark.parametrize("command", ["uniqueness", "small-value"])
    def test_no_snapshot_is_recorded(self, tmp_path, monkeypatch, command):
        """Only ``simulate`` records a trajectory (``solver._recorded``)."""
        def no_record(*args, **kwargs):
            raise AssertionError(f"{command} recorded snapshots")

        monkeypatch.setattr(solver, "_recorded", no_record)
        monkeypatch.setenv("SPDELAB_THREADS", "2")
        argv = [command, *CHUNK_ARGS[command], "--replicas", "3", "--out", str(tmp_path / "o")]
        assert main(argv) == 0


def sha256_of(out, *names):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def sha256_of_simulate(out):
    """One SHA-256 over ``trajectory.csv`` and every ``snapshot_*.bin``, name then bytes."""
    digest = hashlib.sha256()
    for path in [out / "trajectory.csv", *sorted(out.glob("snapshot_*.bin"))]:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class TestGoldenBytes:
    """SHA-256 of small CLI artifacts.  The uniqueness values were recorded
    before replicas and perturbation sizes were batched onto one noise path
    per replica; the other tests name the change theirs were recorded before."""

    def test_uniqueness_artifacts_unchanged(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPDELAB_THREADS", "1")
        out = tmp_path / "o"
        code = main(
            ["uniqueness", "--set", "grid.n=64", "--set", "grid.dt=0.0001220703125",
             "--set", "grid.t_end=0.03125", "--set", "holder.snap_every=32",
             "--set", "pair.deltas=0,0.1,0.01", "--set", "sigma.kind=holder-power",
             "--set", "sigma.gamma=0.8", "--replicas", "3", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("uniqueness_decay.csv", "uniqueness_summary.csv")
        }
        assert digests == {
            "uniqueness_decay.csv": "ab212dc105f803462cfa4b1267be127b8cb6c708d6458f9c91908be3b112cb35",
            "uniqueness_summary.csv": "42de20301b179cfd5deaffe59fb2f9a358ed5cb4b94293c7e8252a614f116add",
        }

    def test_holder_artifacts_unchanged(self, tmp_path, monkeypatch):
        """Recorded before time lags were matched by integer step and
        ``structure.csv`` was written from the fitted rows."""
        monkeypatch.setenv("SPDELAB_THREADS", "1")
        out = tmp_path / "o"
        code = main(
            ["holder", "--set", "grid.n=64", "--set", "grid.dt=0.0001220703125",
             "--set", "grid.t_end=0.125", "--set", "holder.snap_every=8",
             "--set", "holder.lags=2,4,8,16", "--set", "holder.tsteps=16,32,64,128",
             "--replicas", "3", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        assert sha256_of(out, "structure.csv", "holder.csv") == {
            "structure.csv": "8079291ad824801bf1b70b2894b2b0e42eff0e320b299121c45d88e5eb56d069",
            "holder.csv": "925edaef08b30e757081578e6f29408375c1728b3ce1ec6cf488f613943e1dd9",
        }

    def test_small_value_artifacts_unchanged(self, tmp_path, monkeypatch):
        """Recorded before ``conditional_regularity`` shared the structure
        function's increment, lag and window helpers (order-2 increments)."""
        monkeypatch.setenv("SPDELAB_THREADS", "1")
        out = tmp_path / "o"
        code = main(
            ["small-value", "--set", "grid.n=64", "--set", "grid.dt=0.0001220703125",
             "--set", "grid.t_end=0.0625", "--set", "holder.snap_every=16",
             "--set", "sigma.kind=holder-power", "--set", "sigma.gamma=0.5",
             "--set", "sigma.scale=2.0", "--set", "smallvalue.eps_cells=2,4",
             "--set", "smallvalue.xi=1.2", "--replicas", "3", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        assert sha256_of(out, "smallvalue.csv") == {
            "smallvalue.csv": "d5a69fb1c0119cb5620a0d54c4578a6f225978e486b5a6c5657d3118624df743",
        }

    @pytest.mark.parametrize("args, expected", [
        (["--set", "grid.n=64", "--set", "grid.dt=0.0001220703125", "--set", "grid.t_end=0.03125",
          "--set", "sigma.kind=holder-power", "--set", "sigma.gamma=0.7"],
         "258873fd3523a2b23c50fe3a52c7ed8a57487e7fe0636c3ee4e04216643edab0"),
        (["--set", "grid.dim=2", "--set", "grid.n=32", "--set", "kernel.alpha=1.0",
          "--set", "grid.t_end=0.0078125"],
         "ec48095498ca39ea4606c4a649e453318c2805f4051832cd40000d42ece85d13"),
    ], ids=["1d", "2d"])
    def test_simulate_artifacts_unchanged(self, tmp_path, args, expected):
        """1-D recorded before the noise fields were inverted with
        ``norm="forward"``; 2-D recorded from the half-spectrum draw."""
        out = tmp_path / "o"
        assert main(["simulate", *args, "--seed", "5", "--out", str(out)]) == 0
        assert len(list(out.glob("snapshot_*.bin"))) == 9
        assert sha256_of_simulate(out) == expected

    def test_noise_check_artifacts_unchanged(self, tmp_path):
        """1-D recorded before the noise fields were inverted with
        ``norm="forward"``; 2-D recorded from the half-spectrum draw."""
        digests = {}
        for dim, args in ((1, ["--set", "grid.n=256"]),
                          (2, ["--set", "grid.dim=2", "--set", "grid.n=32", "--set", "kernel.alpha=1.0",
                               "--set", "noise.lags=2,4"])):
            out = tmp_path / str(dim)
            code = main(["noise-check", *args, "--set", "noise.steps=16", "--replicas", "4",
                         "--seed", "5", "--out", str(out)])
            assert code == 0
            digests[dim] = sha256_of(out, "noise_covariance.csv")["noise_covariance.csv"]
        assert digests == {
            1: "659c34d82a19e7efb08ac00cb5047c86ae6bc538ef8149793fff9e8d7515ea30",
            2: "ec4a42be19b888f704b72654985e293a9200918166b172b9f87aad543b27bfa5",
        }

    def test_oracle_artifacts_unchanged(self, tmp_path):
        """Recorded before ``oracle_cases.csv`` was written by the CLI's one CSV
        writer; ``oracle_cases.csv`` re-recorded when ``verify_jest`` began to
        store ``t_values`` as Python floats, whose repr does not depend on the
        numpy version.  Both re-recorded when every exponent came to be fitted
        by the one least-squares fit in place of a polynomial fit: the three
        fitted slopes, and the triple-time row's ``lhs`` and ``ratio``, moved
        in their last digits."""
        out = tmp_path / "o"
        assert main(["oracle", "--set", "oracle.cases=3", "--seed", "5", "--out", str(out)]) == 0
        assert sha256_of(out, "oracle_cases.csv", "oracle_fits.csv") == {
            "oracle_cases.csv": "00d7c8c5f03e13055fb6daa43b59dc593c89fa838f4bdd42bcf30de337b1ad9a",
            "oracle_fits.csv": "f97ae9a95d0d2a79386b210f5fae181231f4db2232cf7944fef469ad9e97c307",
        }
