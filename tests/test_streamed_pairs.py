"""Streamed pair statistics are bitwise the recorded-pairs reference.

``uniqueness_gap`` and ``conditional_regularity``, which ``uniqueness`` and
``small-value`` call, take per-row statistics of the pair differences while
the engine runs (``estimators._pair_rows``), in chunks of replicas on a pool
of threads, and reduce them at the end (``_gap_report``,
``_Conditioning.result``).  The reference below is the recorded-pairs
algorithm, written out here: record every pair with ``simulate_pairs``, take
them delta-major, group them by delta, and pool the difference rows one at a
time, replica by replica.  The streamed runs must give its numbers bit for
bit, or the same error.
"""

import os
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import minimum_filter1d

from spdelab._fit import fit_loglog
from spdelab.config import DEFAULT_CONFIG, ExperimentConfig
from spdelab.errors import DomainError, InputError, InsufficientDataError, SpdeLabError
from spdelab.estimators import _gap_rows, _in_window, _pair_rows, conditional_regularity, uniqueness_gap
from spdelab.kernels import KernelSpec
from spdelab.noise import GridSpec
from spdelab.solver import InitialCondition, SigmaSpec, simulate_pairs

SIGMA = SigmaSpec(kind="holder-power", gamma=0.5, scale=2.0)
U0 = InitialCondition(kind="constant", value=1.0)
PERT = InitialCondition(kind="bump", center=0.5, width=0.125, height=1.0)


def reference_gap(pairs):
    """``{delta: (median_l1, median_sup, peak_l1)}`` of delta-major pairs, each statistic taken row by row."""
    cell = pairs[0].grid.h ** pairs[0].grid.dim
    by_delta = {}
    for pr in pairs:
        by_delta.setdefault(float(pr.delta), []).append(pr)
    out = {}
    for d, group in by_delta.items():
        l1 = np.array([[np.sum(np.abs(row)) * cell for row in pr.diffs] for pr in group])
        sup = np.array([[np.max(np.abs(row)) for row in pr.diffs] for pr in group])
        out[d] = (np.median(l1, axis=0), np.median(sup, axis=0), float(np.median(np.max(l1, axis=1))))
    return out


def reference_conditioning(pairs, xi, eps_cells, p, order):
    """``repr`` of ``(fits, gaps, occupancy)``, each fit as its moment rows ``(lag, moment,
    anchors)``, exponent and standard error; or the error the recorded-pairs algorithm raises."""
    grid = pairs[0].grid
    try:
        if any(pr.delta == 0.0 for pr in pairs):
            raise DomainError("conditioning degenerate: delta = 0 pair has identically zero difference")
        lags = [g * grid.h for g in (1, 2, 4, 8)]
        cells = [grid.cells(lag) for lag in lags]
        eps_values = [c * grid.h for c in eps_cells]
        windows = [grid.cells(eps) for eps in eps_values]
        snaps = [row for pr in pairs for t, row in zip(pr.times, pr.diffs) if _in_window(grid, t)]
        if not snaps:
            raise InputError("no difference snapshots in window")
        if max(float(np.max(np.abs(row))) for row in snaps) == 0.0:
            raise DomainError("conditioning degenerate: difference field is identically zero")
        if order == 1:
            powers = [[np.abs(np.roll(row, -c) - row) ** p for row in snaps] for c in cells]
        else:
            powers = [[np.abs(np.roll(row, -c) - 2.0 * row + np.roll(row, c)) ** p for row in snaps] for c in cells]

        def fit(masks):
            rows = []
            for lag, lag_powers in zip(lags, powers):
                acc, cnt = 0.0, 0
                for pw, mask in zip(lag_powers, masks):
                    m = grid.n if mask is None else int(np.count_nonzero(mask))
                    if m:
                        acc += float(np.sum(pw if mask is None else pw[mask]))
                        cnt += m
                rows.append((lag, acc / cnt, cnt))
            slope, se = fit_loglog([r[0] for r in rows], [r[1] for r in rows])
            return rows, slope / p, max(se / p, 1e-15)

        fits, occupancy = [fit([None] * len(snaps))], {}
        for eps, w in zip(eps_values, windows):
            masks = [minimum_filter1d(np.abs(row), size=2 * w + 1, mode="wrap") <= eps**xi for row in snaps]
            occupied = sum(int(np.count_nonzero(mask)) for mask in masks)
            occupancy[eps] = occupied / (len(snaps) * grid.n)
            if occupied < 100:
                raise InsufficientDataError(f"conditioning set at eps={eps} has {occupied} anchors (need >= 100)")
            fits.append(fit(masks))
    except SpdeLabError as exc:
        return exc
    return repr((fits, [f[1] - fits[0][1] for f in fits[1:]], occupancy))


def conditioning_outcome(result):
    """The same shape as ``reference_conditioning`` from a ConditionalRegularityResult."""
    fits = [([(r.lag, r.moment, r.n_samples) for r in rep.rows], rep.exponent, rep.stderr)
            for rep in (result.unconditional, *result.conditional)]
    return repr((fits, list(result.gaps), result.occupancy))


def assert_same(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want), (got, want)
    else:
        assert got == want


@st.composite
def runs(draw, dims=(1, 2)):
    dim = draw(st.sampled_from(dims))
    n = draw(st.sampled_from([8, 16, 32]))
    every = draw(st.integers(1, 5))
    total = draw(st.integers(2 * every, 12 * every))
    dt = (1.0 / n) ** 2 / 2
    grid = GridSpec(dim=dim, n=n, l=1.0, dt=dt, t_end=total * dt)
    replicas = draw(st.integers(1, 4))
    cfg = ExperimentConfig.load(None, [f"run.replicas={replicas}", "run.seed=11"], defaults=DEFAULT_CONFIG)
    return {
        "grid": grid,
        "kernel": KernelSpec(kind="riesz", alpha=0.5 if dim == 1 else 1.0, dim=dim),
        "times": [m * dt for m in range(0, total + 1, every)],
        "streams": cfg.streams(),
        "threads": str(draw(st.integers(1, 3))),
        # repeats and 0 included
        "deltas": draw(st.lists(st.sampled_from([0.0, 0.3, 0.1, 0.01]), min_size=1, max_size=3)),
    }


def threads(run):
    """``SPDELAB_THREADS`` set to the run's thread count."""
    return mock.patch.dict(os.environ, {"SPDELAB_THREADS": run["threads"]})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(run=runs())
def test_uniqueness_rows_and_report_equal_the_reference(run):
    grid, deltas, times = run["grid"], run["deltas"], run["times"]
    batch = simulate_pairs(grid, run["kernel"], SIGMA, U0, PERT, deltas, run["streams"], times)
    pairs = [pairs[k] for k in range(len(deltas)) for pairs in batch]  # delta-major
    want = reference_gap(pairs)
    nonzero = [d for d in sorted(want) if d > 0]
    want_monotone = all(want[a][2] < want[b][2] for a, b in zip(nonzero, nonzero[1:]))

    head = (grid, run["kernel"], SIGMA, U0, PERT, deltas, run["streams"], times)
    with threads(run):
        per_replica = _pair_rows(*head, lambda diffs: _gap_rows(grid, diffs))
        report = uniqueness_gap(*head)
    cell = grid.h**grid.dim
    for rows, recorded in zip(per_replica, batch, strict=True):
        for got, pair in zip(rows, recorded, strict=True):
            expect = [(np.sum(np.abs(row)) * cell, np.max(np.abs(row))) for row in pair.diffs]
            assert np.asarray(got).tobytes() == np.array(expect).tobytes()

    assert report.deltas == tuple(sorted(want))
    assert report.times == tuple(times)
    for d, (median_l1, median_sup, peak_l1) in want.items():
        assert report.median_l1[d].tobytes() == median_l1.tobytes()
        assert report.median_sup[d].tobytes() == median_sup.tobytes()
        assert report.peak_l1[d] == peak_l1
    assert report.monotone_in_delta == want_monotone


@settings(max_examples=150, deadline=None, derandomize=True)
@given(run=runs(dims=(1,)), xi=st.sampled_from([0.5, 0.875, 1.5]),
       eps_cells=st.lists(st.integers(1, 9), min_size=1, max_size=2),
       p=st.sampled_from([0.5, 1.0, 2.0]), order=st.sampled_from([1, 2]))
def test_conditioning_equals_the_reference(run, xi, eps_cells, p, order):
    grid, deltas = run["grid"], run["deltas"]
    eps_values = [c * grid.h for c in eps_cells]
    batch = simulate_pairs(grid, run["kernel"], SIGMA, U0, PERT, deltas, run["streams"], run["times"])
    for k, delta in enumerate(deltas):
        pairs = [pairs[k] for pairs in batch]
        want = reference_conditioning(pairs, xi, eps_cells, p, order)

        # checked, streamed over the window's snapshots, reduced replica-major
        try:
            with threads(run):
                got = conditioning_outcome(conditional_regularity(
                    grid, run["kernel"], SIGMA, U0, PERT, delta, run["streams"], run["times"], xi, eps_values,
                    p=p, order=order))
        except SpdeLabError as exc:
            got = exc
        assert_same(got, want)
