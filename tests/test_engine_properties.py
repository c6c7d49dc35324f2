"""The engine's bitwise guarantees, by property over tiny configs.

Every run of the engine (``solver._integrate``) is one ``(replicas, legs,
*grid)`` batch, and each replica's legs share one noise path drawn by
``noise._increments``; ``noise.covariance_check`` draws from the same
increments, in chunks of replicas on the replica runner (``_run_replicas``).
The properties:

- every (replica, leg) row of a recorded batch (``solver._recorded``) is
  bitwise the run it would be alone: ``simulate`` from that leg's start, or
  the one-delta ``simulate_pairs``, clip statistics included;
- a delta-0 leg is bitwise leg 0, and a rerun is bitwise equal;
- at 1, 2 and 3 threads, the covariance check's per-replica rows equal a
  reference that builds a new generator for every draw,
  ``RngStream(seed, r).at_step(m).generator()``;
- a blow-up names the same step, replica and message at 1, 2 and 3 threads.
"""

import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdelab import noise
from spdelab.errors import BlowUpError
from spdelab.kernels import KernelSpec
from spdelab.noise import (
    GridSpec,
    NoiseField,
    RngStream,
    _draw_spectrum,
    _run_replicas,
    covariance_check,
    spectral_amplitudes,
    write_field,
)
from spdelab.solver import SIGMA_KINDS, InitialCondition, SigmaSpec, _recorded, simulate, simulate_pairs

SIGMAS = {
    "lipschitz-linear": SigmaSpec(kind="lipschitz-linear", scale=1.0),
    "holder-power": SigmaSpec(kind="holder-power", gamma=0.6, scale=2.0),
    "sqrt-plus": SigmaSpec(kind="sqrt-plus", scale=2.0),
    "viot": SigmaSpec(kind="viot", scale=2.0),
    "table": SigmaSpec(kind="table", table_u=(-1e3, 0.0, 1.0, 1e3), table_v=(-10.0, 0.0, 0.5, 10.0)),
}
KERNELS = {1: ("riesz", "riesz-plus-constant", "bounded-constant", "white"),
           2: ("riesz", "riesz-plus-constant", "bounded-constant")}
PERTURBATIONS = (
    InitialCondition(kind="bump", center=0.5, width=0.125, height=1.0),
    InitialCondition(kind="sine", k=2),
)


def kernel(kind, dim, amplitude=1.0):
    if kind in ("riesz", "riesz-plus-constant"):
        return KernelSpec(kind=kind, alpha=0.5 if dim == 1 else 1.0, dim=dim, amplitude=amplitude)
    return KernelSpec(kind=kind, dim=dim, amplitude=amplitude)


def grids(draw):
    """``(dim, n)`` of a tiny grid."""
    return draw(st.sampled_from([1, 2])), draw(st.sampled_from([4, 8, 16, 32]))


def assert_same_run(got, want):
    assert got.times == want.times
    assert got.steps == want.steps
    assert got.fingerprint == want.fingerprint
    assert got.complete == want.complete
    assert (got.clip_count, got.clip_max) == (want.clip_count, want.clip_max)
    assert got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()


@st.composite
def runs(draw):
    dim, n = grids(draw)
    every = draw(st.integers(1, 3))
    total = draw(st.integers(every, 3 * every))
    grid = GridSpec(dim=dim, n=n, l=1.0, t_end=1.0)
    replicas = draw(st.integers(1, 4))
    seed = draw(st.sampled_from([0, 7, 0xC0FFEE]))
    return {
        "grid": grid,
        "kernel": kernel(draw(st.sampled_from(KERNELS[dim])), dim, amplitude=draw(st.sampled_from([0.5, 20.0]))),
        "sigma": SIGMAS[draw(st.sampled_from(SIGMA_KINDS))],
        "u0": InitialCondition(kind="constant", value=draw(st.sampled_from([0.05, 0.5]))),
        "perturbation": draw(st.sampled_from(PERTURBATIONS)),
        # repeats and 0 included
        "deltas": draw(st.lists(st.sampled_from([0.0, 0.37, 0.1, 0.01]), min_size=1, max_size=3)),
        "streams": [RngStream(seed, r) for r in range(replicas)],
        "times": [m * grid.dt for m in range(draw(st.integers(0, every)), total + 1, every)],
        "clip": draw(st.booleans()),
    }


def started_from(grid, kspec, values, path):
    """A file initial condition holding ``values``: a leg's start, as a run of its own."""
    write_field(NoiseField(grid=grid, values=values, kernel=kspec, stream=RngStream(0), dt=grid.dt), path)
    return InitialCondition(kind="file", path=str(path))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(run=runs())
def test_every_row_is_its_run_alone(run):
    grid, kspec, sigma, u0, pert = run["grid"], run["kernel"], run["sigma"], run["u0"], run["perturbation"]
    deltas, streams, times, clip = run["deltas"], run["streams"], run["times"], run["clip"]
    batch = _recorded(grid, kspec, sigma, u0, streams, times, clip, pert, deltas)
    again = _recorded(grid, kspec, sigma, u0, streams, times, clip, pert, deltas)
    assert [len(legs) for legs in batch] == [1 + len(deltas)] * len(streams)
    with tempfile.TemporaryDirectory() as tmp:
        for stream, legs, rerun in zip(streams, batch, again, strict=True):
            assert_same_run(legs[0], simulate(grid, kspec, sigma, u0, stream, times, clip))
            for k, delta in enumerate(deltas, start=1):
                if delta == 0.0:
                    assert_same_run(legs[k], legs[0])
                start = u0.evaluate(grid) + delta * pert.evaluate(grid) if delta else u0.evaluate(grid)
                alone = simulate(grid, kspec, sigma, started_from(grid, kspec, start, Path(tmp) / "u0.bin"),
                                 stream, times, clip)
                alone.fingerprint = legs[k].fingerprint  # fingerprints name the batch's u0
                assert_same_run(legs[k], alone)
                if not clip:
                    ((pair,),) = simulate_pairs(grid, kspec, sigma, u0, pert, [delta], [stream], times)
                    assert_same_run(legs[0], pair.traj_a)
                    assert_same_run(legs[k], pair.traj_b)
            for got, want in zip(legs, rerun, strict=True):
                assert_same_run(got, want)


def reference_rows(grid, kspec, offsets, replicas, steps, seed):
    """Each replica's ``irfft(n * sum_m |S_m|^2)[offsets] / steps``, with ``S_m`` drawn from a new
    generator for each (replica, step) and, in 2-D, ``|S|^2`` summed over ``ky``."""
    amps = spectral_amplitudes(grid, kspec) * np.sqrt(grid.dt)
    n, nh = grid.n, grid.n // 2 + 1
    rows = []
    for r in range(replicas):
        power = np.zeros(nh)
        for m in range(steps):
            s = np.empty(grid.shape[:-1] + (nh,), dtype=complex)
            _draw_spectrum(grid, amps, RngStream(seed, r).at_step(m).generator(), s)
            p = s.real**2 + s.imag**2
            if grid.dim == 2:  # the edge columns once, each interior column at kx and -kx
                inner = p[:, 1:-1].sum(axis=1)
                p = (p[:, 0] + p[:, -1] + inner + np.roll(inner[::-1], 1))[:nh]
            power += p
        rows.append(np.fft.irfft(n * power, n)[offsets] / steps)
    return np.array(rows)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_covariance_rows_equal_the_new_generator_reference(data):
    dim, n = grids(data.draw)
    grid = GridSpec(dim=dim, n=n, l=1.0, t_end=1.0)
    kspec = kernel(data.draw(st.sampled_from(KERNELS[dim])), dim)
    offsets = data.draw(st.lists(st.integers(0 if not kspec.is_singular else 1, n // 2), min_size=1, max_size=3))
    replicas, steps = data.draw(st.integers(2, 5)), data.draw(st.integers(1, 4))
    seed = data.draw(st.sampled_from([1, 0xC0FFEE]))
    want = reference_rows(grid, kspec, offsets, replicas, steps, seed)

    for threads in ("1", "2", "3"):
        merged = []

        def recording(streams, batch):
            merged.append(_run_replicas(streams, batch))
            return merged[-1]

        with mock.patch.dict(os.environ, {"SPDELAB_THREADS": threads}), \
                mock.patch.object(noise, "_run_replicas", recording):
            rows = covariance_check(grid, kspec, [c * grid.h for c in offsets], replicas, steps, seed)
        (per_replica,) = merged
        assert np.array(per_replica).tobytes() == want.tobytes(), threads
        for row, col in zip(rows, want.T, strict=True):
            assert row.estimate == float(np.mean(col))
            assert row.stderr == float(np.std(col, ddof=1) / np.sqrt(len(col)))


def test_blow_up_is_the_same_at_every_thread_count():
    """Replicas of seed 2 blow up alone at steps 22, 22, 22, 22, 21: at every thread count the batch
    names replica 4 at step 21, which is not in the first chunk at 2 or 3 threads."""
    g = GridSpec(dim=1, n=64, l=1.0, t_end=0.01)
    k = KernelSpec(kind="bounded-constant", amplitude=1.0)
    sig = SigmaSpec(kind="lipschitz-linear", scale=1e12)
    u0 = InitialCondition(kind="constant", value=1e100)
    pert = InitialCondition(kind="bump", center=0.5, width=0.1, height=1.0)
    times = [m * g.dt for m in range(0, 81, 8)]
    streams = [RngStream(2, r) for r in range(5)]
    alone = []
    for s in streams:
        with pytest.raises(BlowUpError) as exc:
            simulate(g, k, sig, u0, s, times)
        alone.append(exc.value)
    first = min(alone, key=lambda e: (e.step_index, e.replica_id))
    assert (first.step_index, first.replica_id) == (21, 4)
    for threads in ("1", "2", "3"):
        with mock.patch.dict(os.environ, {"SPDELAB_THREADS": threads}), pytest.raises(BlowUpError) as exc:
            _run_replicas(streams, lambda chunk: _recorded(g, k, sig, u0, chunk, times, perturbation=pert,
                                                           deltas=[0.0, 0.1]))
        err = exc.value
        assert (err.step_index, err.replica_id, str(err)) == (first.step_index, first.replica_id, str(first))
        assert err.fingerprint == first.fingerprint
