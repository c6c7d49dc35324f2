"""Streamed structure-function moments are bitwise the all-rows reference.

``structure_function``, which the ``holder`` CLI and criterion 2 call,
computes its moments while the engine runs (``estimators._Moments``),
keeping per-snapshot scalars and only the rows that the longest time lag
still needs.  The reference below is the all-rows algorithm, written out
here: hold every window row of every replica, pair time lags by step, then
reduce.  The streamed run must give its moments, standard errors and sample
counts bit for bit, and ``_Moments`` its per-replica means, or the same
error.
"""

import os
from bisect import bisect_left, bisect_right
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spdelab.config import DEFAULT_CONFIG, ExperimentConfig
from spdelab.errors import InsufficientDataError
from spdelab import estimators
from spdelab.estimators import _moment_rows, structure_function
from spdelab.kernels import KernelSpec
from spdelab.noise import GridSpec
from spdelab.solver import InitialCondition, SigmaSpec, simulate

SIGMA = SigmaSpec(kind="lipschitz-linear", scale=1.0)
U0 = InitialCondition(kind="constant", value=1.0)


def reference(trajs, p, direction, lags, order):
    """``(rows, per-replica means)`` of the all-rows algorithm, rows as
    ``(lag, moment, stderr, n_samples)``; or the InsufficientDataError."""
    grid = trajs[0].grid
    tol = 1e-9 * max(1.0, abs(grid.t_end))
    rows, means = [], []
    for lag in lags:
        per_traj, n_anchors = [], 0
        for traj in trajs:
            w = slice(bisect_left(traj.times, grid.t_min - tol), bisect_right(traj.times, grid.t_end + tol))
            if direction == "space":
                c = grid.cells(lag)
                if order == 1:
                    vals = [np.mean(np.abs(np.roll(u, -c, axis=0) - u) ** p) for u in traj.values[w]]
                else:
                    vals = [np.mean(np.abs(np.roll(u, -c, axis=0) - 2.0 * u + np.roll(u, c, axis=0)) ** p)
                            for u in traj.values[w]]
            else:
                m = grid.steps(lag, lo=1)
                at_step = dict(zip(traj.steps[w], traj.values[w]))
                vals = [np.mean(np.abs(at_step[k + m] - u) ** p) for k, u in at_step.items() if k + m in at_step]
            if vals:
                per_traj.append(np.mean(vals))
                n_anchors += len(vals) * grid.n_cells
        if n_anchors < 100:
            return InsufficientDataError(f"only {n_anchors} anchor samples at lag {lag} (need >= 100)")
        per_traj = np.asarray(per_traj)
        se = float(np.std(per_traj, ddof=1) / np.sqrt(len(per_traj))) if len(per_traj) > 1 else 0.0
        rows.append((float(lag), float(np.mean(per_traj)), se, n_anchors))
        means.append(list(per_traj))
    return rows, means


def outcome(grid, scalars, lags, direction):
    """The same shape as ``reference`` from per-replica ``_Moments.scalars``."""
    try:
        rows = _moment_rows(grid, scalars, lags, direction)
    except InsufficientDataError as exc:
        return exc
    means = [[np.mean(s[direction][i]) for s in scalars if len(s[direction][i])] for i in range(len(lags))]
    return [(r.lag, r.moment, r.stderr, r.n_samples) for r in rows], means


def assert_same(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert not isinstance(got, Exception), got
    (rows, means), (want_rows, want_means) = got, want
    assert rows == want_rows
    for got_means, ref_means in zip(means, want_means, strict=True):
        assert np.asarray(got_means).tobytes() == np.asarray(ref_means).tobytes()


@st.composite
def runs(draw):
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.sampled_from([8, 16, 32]))
    every = draw(st.integers(1, 5))
    total = draw(st.integers(6 * every, 72))
    dt = (1.0 / n) ** 2 / 2
    # t_min between two steps, so the window starts off a snapshot
    t_min = (draw(st.integers(0, total // 2)) + draw(st.sampled_from([0.25, 0.5]))) * dt
    grid = GridSpec(dim=dim, n=n, l=1.0, dt=dt, t_end=total * dt, t_min=t_min)
    return {
        "grid": grid,
        "kernel": KernelSpec(kind="riesz", alpha=0.5 if dim == 1 else 1.0, dim=dim),
        "times": [m * grid.dt for m in range(0, total + 1, every)],
        "p": draw(st.sampled_from([0.5, 1.0, 2.0])),
        "order": draw(st.sampled_from([1, 2])),
        "replicas": (replicas := draw(st.integers(1, 4))),
        "threads": draw(st.integers(1, replicas)),
        "space_lags": [c * grid.h for c in draw(st.lists(st.integers(1, n // 2), min_size=1, max_size=3))],
        # step counts that the snapshot stride need not divide
        "time_lags": [m * grid.dt for m in draw(st.lists(st.integers(1, 3 * every + 2), min_size=1, max_size=3))],
    }


@settings(max_examples=30, deadline=None, derandomize=True)
@given(run=runs())
def test_streamed_moments_equal_the_all_rows_reference(run):
    grid, kspec, times = run["grid"], run["kernel"], run["times"]
    p, order, space_lags, time_lags = run["p"], run["order"], run["space_lags"], run["time_lags"]
    cfg = ExperimentConfig.load(None, [f"run.replicas={run['replicas']}", "run.seed=7"], defaults=DEFAULT_CONFIG)
    streams = cfg.streams()

    trajs = [simulate(grid, kspec, SIGMA, U0, stream, times) for stream in streams]
    want_space = reference(trajs, p, "space", space_lags, order)
    want_time = reference(trajs, p, "time", time_lags, 1)

    # streamed from the engine in chunks of replicas on a pool of threads, merged in replica order;
    # the spy keeps the merged per-replica scalars, which are reduced again here, table by table
    with mock.patch.dict(os.environ, {"SPDELAB_THREADS": str(run["threads"])}), \
            mock.patch.object(estimators, "_moment_rows", wraps=_moment_rows) as spy:
        try:
            tables = structure_function(grid, kspec, SIGMA, U0, streams, times, p, space_lags, time_lags, order)
        except InsufficientDataError as exc:
            tables = exc
    scalars = spy.call_args_list[0].args[1]
    assert_same(outcome(grid, scalars, space_lags, "space"), want_space)
    assert_same(outcome(grid, scalars, time_lags, "time"), want_time)

    # the run's own tables, or the first table's error
    error = next((want for want in (want_space, want_time) if isinstance(want, Exception)), None)
    if error is not None:
        assert type(tables) is type(error) and str(tables) == str(error)
    else:
        assert not isinstance(tables, Exception), tables
        for rows, want in zip(tables, (want_space, want_time), strict=True):
            assert [(r.lag, r.moment, r.stderr, r.n_samples) for r in rows] == want[0]
