"""Tests of the benchmark harness itself: span arithmetic, op time quartiles and gates.

Run with ``python -m pytest perfbench/tests -q`` from the checkout root.
"""

import json
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import gates
import run
import spans
from spans import Recorder, Span, covered_length, role_totals, self_times

ROOT = Path(__file__).resolve().parents[2]


# ------------------------------------------------------------------- spans


def _tree():
    # root [0, 10] has two children that overlap on [3, 4] (two threads);
    # child a [1, 4] has one grandchild [2, 3]
    return [
        Span(1, None, "cli", 0.0, 10.0, 1),
        Span(2, 1, "solver", 1.0, 4.0, 1),
        Span(3, 2, "noise.synthesize", 2.0, 3.0, 1),
        Span(4, 1, "solver", 3.0, 6.0, 2),
    ]


def test_self_time_subtracts_union_of_children():
    own = self_times(_tree())
    assert own == {1: 5.0, 2: 2.0, 3: 1.0, 4: 3.0}


def test_role_totals_sum_calls_self_and_amount():
    tree = _tree()
    tree[1].amount, tree[3].amount = 8.0, 16.0
    totals = role_totals(tree)
    assert totals["solver"] == {"calls": 2, "self_s": 5.0, "amount": 24.0}
    assert totals["cli"]["self_s"] == 5.0
    # overlapping workers: self times add up to more than the root's wall
    assert sum(t["self_s"] for t in totals.values()) == 11.0


def test_covered_length_clips_and_merges():
    assert covered_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert covered_length([(-5, 1), (9, 20)], 0, 10) == 2
    assert covered_length([], 0, 10) == 0


def test_recorder_parents_worker_spans_to_the_root_and_restores():
    ns = types.SimpleNamespace(work=lambda x: x * 2)
    original = ns.work
    rec = Recorder()
    rec.patch(ns, "work", "solver")
    rec.patch(ns, "gone", "noise.synthesize", label="ns.gone")
    with rec.span("cli", as_root=True) as root:
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(ns.work, [1, 2, 3])) == [2, 4, 6]
    rec.restore()
    assert ns.work is original
    assert rec.absent == ["ns.gone"]
    assert "noise.synthesize" not in rec.present_roles
    workers = [s for s in rec.spans if s.role == "solver"]
    assert len(workers) == 3 and all(s.parent == root for s in workers)
    assert all(s.thread != threading.get_ident() for s in workers)


def test_recorder_records_failed_calls_without_amount():
    def boom(path):
        raise ValueError(path)

    ns = types.SimpleNamespace(boom=boom)
    rec = Recorder()
    rec.patch(ns, "boom", "noise.io_write", measure=spans.path_size)
    with pytest.raises(ValueError):
        ns.boom("missing.bin")
    assert [(s.role, s.amount) for s in rec.spans] == [("noise.io_write", 0.0)]


# ------------------------------------------------------------- op times


def _op(op_s, traced=False):
    return run.OpResult(0, 0, traced, 0, True, "", op_s)


def test_op_quartiles_use_untraced_ops_and_report_their_count():
    ops = [_op(3.0), _op(100.0, traced=True), _op(1.0), _op(2.0, traced=True), _op(2.0)]
    assert run.op_quartiles(ops) == (2.0, 2.5, 3)
    # inclusive method: the upper quartile never leaves the observed range
    assert run.op_quartiles([_op(1.0), _op(2.0), _op(3.0), _op(7.0)]) == (2.5, 4.0, 4)
    assert run.op_quartiles([_op(1.0), _op(4.0)]) == (2.5, 3.25, 2)
    assert run.op_quartiles([_op(5.0)]) == (5.0, 5.0, 1)


# ------------------------------------------------------------------- gates


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


COV_HEAD = "lag,estimate,stderr,theory,rel_err,fingerprint,version\n"


def test_covariance_gate(tmp_path):
    _write(tmp_path / "noise_covariance.csv", COV_HEAD + "0.1,1.05,0.01,1.0,0.05,x,0.1.0\n")
    assert gates.covariance(tmp_path)[0]
    _write(tmp_path / "noise_covariance.csv", COV_HEAD + "0.1,1.05,0.01,1.0,0.05,x,0.1.0\n"
           "0.2,0.86,0.01,1.0,-0.14,x,0.1.0\n"
           "0.3,1.12,0.01,1.0,0.12,x,0.1.0\n")
    ok, detail = gates.covariance(tmp_path)
    assert not ok and "0.1400" in detail
    assert gates.covariance(tmp_path, gates.COVARIANCE_2D_TOL)[0]


HOLDER_HEAD = "direction,p,order,lag_min,lag_max,slope,exponent,stderr,n_samples,fingerprint,version\n"


def test_holder_gate(tmp_path):
    _write(tmp_path / "holder.csv", HOLDER_HEAD + "space,2.0,2,1,8,1.4,0.70,0.02,9,x,v\n"
           "time,2.0,1,1,8,0.76,0.38,0.01,9,x,v\n")
    assert gates.holder(tmp_path)[0]
    _write(tmp_path / "holder.csv", HOLDER_HEAD + "space,2.0,2,1,8,1.2,0.60,0.02,9,x,v\n"
           "time,2.0,1,1,8,0.76,0.38,0.01,9,x,v\n")
    assert not gates.holder(tmp_path)[0]
    _write(tmp_path / "holder.csv", HOLDER_HEAD + "space,2.0,2,1,8,1.4,0.70,0.02,9,x,v\n")
    assert not gates.holder(tmp_path)[0]


PAIRS_HEAD = "delta,peak_l1,monotone_in_delta,fingerprint,version\n"


def test_pairs_gate(tmp_path):
    good = "0.0,0.0,True,x,v\n0.001,0.002,True,x,v\n0.1,0.2,True,x,v\n"
    _write(tmp_path / "uniqueness_summary.csv", PAIRS_HEAD + good)
    assert gates.pairs(tmp_path)[0]
    _write(tmp_path / "uniqueness_summary.csv", PAIRS_HEAD + good.replace("0.0,0.0,", "0.0,1e-300,"))
    assert not gates.pairs(tmp_path)[0]
    _write(tmp_path / "uniqueness_summary.csv", PAIRS_HEAD + good.replace("True", "False"))
    assert not gates.pairs(tmp_path)[0]
    _write(tmp_path / "uniqueness_summary.csv", PAIRS_HEAD + "0.1,0.2,True,x,v\n")
    assert not gates.pairs(tmp_path)[0]


def test_gate_rejects_missing_artifact(tmp_path):
    with pytest.raises(OSError):
        gates.pairs(tmp_path)


def test_field_dump_gate_round_trip(tmp_path):
    from spdelab import noise
    from spdelab.cli import main

    out = tmp_path / "sim"
    argv = ["simulate", "--set", "grid.dim=2", "--set", "grid.n=8", "--set", "kernel.alpha=1.0",
            "--set", "grid.t_end=0.004", "--seed", "5", "--out", str(out)]
    assert main(argv) == 0
    ok, detail = gates.field_dumps(out, noise.read_field, seed=5, alpha=1.0)
    assert ok, detail
    assert not gates.field_dumps(out, noise.read_field, seed=6, alpha=1.0)[0]
    lines = (out / "trajectory.csv").read_text().splitlines()
    first = lines[1].split(",")
    first[1] = repr(float(first[1]) + 1e-9)
    (out / "trajectory.csv").write_text("\n".join([lines[0], ",".join(first), *lines[2:]]) + "\n")
    ok, detail = gates.field_dumps(out, noise.read_field, seed=5, alpha=1.0)
    assert not ok and "trajectory.csv" in detail


def test_time_match_ratio_counts_compared_pairs(tmp_path):
    cfg = {"grid.dt": "1.0", "holder.snap_every": "2", "grid.t_min": "2.0", "grid.t_end": "10.0",
           "grid.n": "4", "run.replicas": "2"}
    # snapshots at 2, 4, 6, 8, 10: 10 pairs per replica per lag
    _write(tmp_path / "structure.csv", "direction,lag,moment,stderr,n_samples\n"
           "space,1,1,0,400\ntime,2,1,0,32\ntime,4,1,0,24\n")
    assert run.time_match_ratio(tmp_path, cfg) == (8 + 6) / (2 * 2 * 10)


# --------------------------------------------------------------- contract


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
