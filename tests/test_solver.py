"""Exponential-Euler integration: exactness, linearity, reproducibility, pairs."""

import numpy as np
import pytest

from spdelab.errors import BlowUpError, DomainError, ExtrapolationError, InputError
from spdelab.kernels import KernelSpec, semigroup_multiplier
from spdelab.noise import (
    GridSpec,
    NoiseField,
    RngStream,
    spectral_amplitudes,
    synthesize,
    write_field,
)
from spdelab import noise
from spdelab.solver import (
    InitialCondition,
    SigmaSpec,
    _recorded,
    config_fingerprint,
    sigma_eval,
    simulate,
    simulate_pairs,
)


def sigma_zero():
    # identically-zero coefficient via the table kind (growth bound supplied)
    return SigmaSpec(kind="table", table_u=(-1e6, 1e6), table_v=(0.0, 0.0), growth_c=1.0)


def sigma_const(c=1.0):
    return SigmaSpec(kind="table", table_u=(-1e6, 1e6), table_v=(c, c), growth_c=max(c, 1.0))


def grid1d(n=256, l=1.0, **kw):
    kw.setdefault("t_end", 64 * (l / n) ** 2)
    return GridSpec(dim=1, n=n, l=l, **kw)


def file_ic(g, k, values, path):
    write_field(NoiseField(grid=g, values=values, kernel=k, stream=RngStream(0), dt=g.dt), path)
    return InitialCondition(kind="file", path=str(path))


class TestSigmaEval:
    def test_sqrt_plus(self):
        s = SigmaSpec(kind="sqrt-plus")
        assert sigma_eval(s, 4.0) == pytest.approx(2.0)
        assert sigma_eval(s, -4.0) == 0.0

    def test_viot(self):
        s = SigmaSpec(kind="viot")
        assert sigma_eval(s, 0.5) == pytest.approx(0.5)
        assert sigma_eval(s, 1.5) == 0.0

    def test_holder_power_even(self):
        s = SigmaSpec(kind="holder-power", gamma=0.5, scale=1.0)
        assert sigma_eval(s, -4.0) == pytest.approx(2.0)

    def test_holder_modulus(self):
        s = SigmaSpec(kind="holder-power", gamma=0.6, scale=1.3)
        u = np.linspace(-5, 5, 101)
        v = u + 0.37
        assert np.all(
            np.abs(sigma_eval(s, u) - sigma_eval(s, v))
            <= 1.3 * np.abs(u - v) ** 0.6 + 1e-12
        )

    def test_lipschitz_linear(self):
        s = SigmaSpec(kind="lipschitz-linear", scale=2.0)
        assert sigma_eval(s, 3.0) == pytest.approx(6.0)
        assert s.is_lipschitz

    def test_table_interpolates_and_rejects_extrapolation(self):
        s = SigmaSpec(kind="table", table_u=(0.0, 1.0, 2.0), table_v=(0.0, 1.0, 1.5), growth_c=1.0)
        assert sigma_eval(s, 0.5) == pytest.approx(0.5)
        with pytest.raises(ExtrapolationError):
            sigma_eval(s, 5.0)

    def test_growth_bound_enforced(self):
        with pytest.raises(DomainError):
            SigmaSpec(kind="lipschitz-linear", scale=10.0, growth_c=0.1)

    def test_yw_modulus_flags(self):
        assert SigmaSpec(kind="sqrt-plus").satisfies_yw_modulus
        assert SigmaSpec(kind="viot").satisfies_yw_modulus
        assert SigmaSpec(kind="holder-power", gamma=0.5).satisfies_yw_modulus
        assert not SigmaSpec(kind="holder-power", gamma=0.4).satisfies_yw_modulus


class TestInitialField:
    def test_constant(self):
        g = grid1d()
        u0 = InitialCondition(kind="constant", value=1.0)
        values = u0.evaluate(g)
        assert np.all(values == 1.0)
        # the snapshot at t = 0 is the initial data itself, at step 0
        traj = simulate(g, KernelSpec(kind="white"), sigma_zero(), u0, RngStream(1), [0.0])
        assert np.array_equal(traj.values[0], values)
        assert traj.times == (0.0,) and traj.steps == (0,)

    def test_sine_quarter_domain(self):
        g = grid1d(n=256, l=4.0)
        values = InitialCondition(kind="sine", k=1, amplitude=1.0, offset=0.0).evaluate(g)
        i = np.argmin(np.abs(g.axis_coords() - g.l / 4))
        assert values[i] == pytest.approx(1.0, abs=1e-12)

    def test_file_round_trip(self, tmp_path):
        g = grid1d(n=128)
        k = KernelSpec(kind="riesz", alpha=0.5)
        values = synthesize(g, spectral_amplitudes(g, k) * np.sqrt(0.01), RngStream(3).generator())
        loaded = file_ic(g, k, values, tmp_path / "u0.bin").evaluate(g)
        assert np.array_equal(loaded, values)

    def test_file_wrong_grid(self, tmp_path):
        g = grid1d(n=128)
        k = KernelSpec(kind="white")
        values = synthesize(g, spectral_amplitudes(g, k) * np.sqrt(0.01), RngStream(3).generator())
        u0 = file_ic(g, k, values, tmp_path / "u0.bin")
        with pytest.raises(InputError):
            u0.evaluate(grid1d(n=256))

    def test_bump_periodic(self):
        g = grid1d(n=256, l=2.0)
        values = InitialCondition(kind="bump", center=0.0, width=0.1, height=2.0).evaluate(g)
        assert values[0] == pytest.approx(2.0)
        # wrap-around symmetry about the center
        assert values[1] == pytest.approx(values[-1], rel=1e-12)


class TestStep:
    """One exponential-Euler step: ``simulate`` with a single step to ``dt``."""

    def test_eigenfunction_decay_exact(self):
        g = grid1d(n=256, l=1.0)
        u0 = InitialCondition(kind="sine", k=1, amplitude=1.0)
        traj = simulate(g, KernelSpec(kind="bounded-constant"), sigma_zero(), u0, RngStream(1), [g.dt])
        decay = np.exp(-2 * np.pi**2 * g.dt / g.l**2)
        expect = decay * np.sin(2 * np.pi * g.axis_coords() / g.l)
        assert np.max(np.abs(traj.values[0] - expect)) <= 1e-12

    def test_sigma_zero_ignores_noise(self):
        # two different noise draws, and exact heat flow with no noise at all
        g = grid1d(n=128)
        u0 = InitialCondition(kind="sine", k=3, amplitude=0.7)
        k = KernelSpec(kind="riesz", alpha=0.5)
        a, b = (simulate(g, k, sigma_zero(), u0, RngStream(s), [g.dt]).values[0] for s in (5, 6))
        heat = np.fft.rfft(u0.evaluate(g)) * semigroup_multiplier(np.fft.rfftfreq(g.n, d=g.h), g.dt)
        assert np.array_equal(a, b)
        assert np.array_equal(a, np.fft.irfft(heat, g.n))

    def test_grid_mismatch(self, tmp_path):
        k = KernelSpec(kind="white")
        u0 = file_ic(grid1d(n=128), k, np.ones(128), tmp_path / "u0.bin")
        with pytest.raises(InputError):
            simulate(grid1d(n=256), k, sigma_zero(), u0, RngStream(1), [0.0])

    def test_additive_variance_matches_spectral_sum(self):
        # sigma = 1, u0 = 0: after m steps the per-point variance equals the
        # geometric spectral sum; checked within 3 MC standard errors
        g = grid1d(n=256, l=1.0, t_end=96 * (1.0 / 256) ** 2)
        k = KernelSpec(kind="riesz", alpha=0.5)
        u0 = InitialCondition(kind="constant", value=0.0)
        checkpoints = [8, 32, 96]
        times = [m * g.dt for m in checkpoints]
        replicas = 500
        sq = {m: [] for m in checkpoints}
        for r in range(replicas):
            traj = simulate(g, k, sigma_const(1.0), u0, RngStream(31, r), times)
            for m, row in zip(checkpoints, traj.values):
                sq[m].append(np.mean(row**2))
        mass = spectral_amplitudes(g, k) ** 2 * g.dt
        kk = np.fft.fftfreq(g.n, d=1.0 / g.n)
        M2 = semigroup_multiplier(kk / g.l, g.dt) ** 2
        for m in checkpoints:
            with np.errstate(divide="ignore", invalid="ignore"):
                theory = float(np.sum(np.where(M2 < 1, mass * M2 * (1 - M2**m) / (1 - M2), mass * m)))
            est = np.mean(sq[m])
            se = np.std(sq[m], ddof=1) / np.sqrt(replicas)
            assert abs(est - theory) <= 3 * se


class TestSimulate:
    def test_constant_preserved_without_noise(self):
        g = grid1d(n=128)
        k = KernelSpec(kind="riesz", alpha=0.5)
        times = [0.0, 8 * g.dt, 32 * g.dt]
        traj = simulate(g, k, sigma_zero(), InitialCondition(kind="constant", value=3.0), RngStream(1), times)
        for row in traj.values:
            assert np.all(row == 3.0)

    def test_bit_reproducible(self):
        g = grid1d(n=128)
        k = KernelSpec(kind="riesz", alpha=0.5)
        sig = SigmaSpec(kind="holder-power", gamma=0.7)
        u0 = InitialCondition(kind="constant", value=1.0)
        times = [16 * g.dt]
        a = simulate(g, k, sig, u0, RngStream(9, 0), times)
        b = simulate(g, k, sig, u0, RngStream(9, 0), times)
        assert np.array_equal(a.values[0], b.values[0])
        assert a.fingerprint == b.fingerprint

    def test_replica_order_independent(self):
        g = grid1d(n=128)
        k = KernelSpec(kind="riesz", alpha=0.5)
        sig = SigmaSpec(kind="lipschitz-linear")
        u0 = InitialCondition(kind="constant", value=1.0)
        times = [16 * g.dt]
        forward = {r: simulate(g, k, sig, u0, RngStream(9, r), times) for r in (0, 1, 2)}
        backward = {r: simulate(g, k, sig, u0, RngStream(9, r), times) for r in (2, 1, 0)}
        for r in (0, 1, 2):
            assert np.array_equal(forward[r].values[0], backward[r].values[0])

    def test_superposition_for_constant_sigma(self):
        # affine in u0: f(u0 + c, W) - f(u0, W) = exact heat flow of c
        g = grid1d(n=128)
        k = KernelSpec(kind="riesz", alpha=0.5)
        times = [32 * g.dt]
        sine = InitialCondition(kind="sine", k=2, amplitude=1.0, offset=0.0)
        sine_plus = InitialCondition(kind="sine", k=2, amplitude=1.0, offset=0.9)
        a = simulate(g, k, sigma_const(1.0), sine, RngStream(13), times)
        b = simulate(g, k, sigma_const(1.0), sine_plus, RngStream(13), times)
        diff = b.values[0] - a.values[0]
        assert np.max(np.abs(diff - 0.9)) <= 1e-10

    def test_snapshot_off_lattice_rejected(self):
        g = grid1d(n=128)
        with pytest.raises(DomainError):
            simulate(
                g,
                KernelSpec(kind="white"),
                sigma_zero(),
                InitialCondition(kind="constant", value=0.0),
                RngStream(1),
                [g.dt * 1.5],
            )

    def test_blow_up_carries_step_index(self):
        g = grid1d(n=64, l=1.0, t_end=64 * (1.0 / 64) ** 2)
        k = KernelSpec(kind="bounded-constant", amplitude=1.0)
        sig = SigmaSpec(kind="lipschitz-linear", scale=1e160, growth_c=1e160)
        u0 = InitialCondition(kind="constant", value=1e160)
        times = [32 * g.dt]
        with pytest.raises(BlowUpError) as exc:
            simulate(g, k, sig, u0, RngStream(2), times)
        assert exc.value.step_index is not None
        assert hasattr(exc.value, "partial_trajectory")

    def test_pair_blow_up_carries_partial_pair(self):
        g = grid1d(n=64, l=1.0, t_end=64 * (1.0 / 64) ** 2)
        k = KernelSpec(kind="bounded-constant", amplitude=1.0)
        sig = SigmaSpec(kind="lipschitz-linear", scale=1e160, growth_c=1e160)
        u0 = InitialCondition(kind="constant", value=1e160)
        pert = InitialCondition(kind="bump", center=0.5, width=0.1, height=1.0)
        times = [0.0, 32 * g.dt]
        with pytest.raises(BlowUpError) as single:
            simulate(g, k, sig, u0, RngStream(2), times)
        with pytest.raises(BlowUpError) as exc:
            simulate_pairs(g, k, sig, u0, pert, [0.1], [RngStream(2)], times)
        err = exc.value
        assert str(err) == str(single.value)
        assert err.step_index == single.value.step_index
        (pair,) = err.partial_pairs
        assert not pair.traj_a.complete and not pair.traj_b.complete
        assert pair.times == (0.0,)
        assert len(pair.diffs) == 1 and pair.traj_a.steps == (0,)
        a, b = pair.traj_a.values[0], pair.traj_b.values[0]
        assert np.array_equal(pair.diffs[0], a - b)

    def test_blow_up_carries_config_fingerprint(self):
        g = grid1d(n=64, l=1.0, t_end=0.01)
        k = KernelSpec(kind="bounded-constant", amplitude=1.0)
        sig = SigmaSpec(kind="lipschitz-linear", scale=1e12)
        u0 = InitialCondition(kind="constant", value=1e100)
        streams = [RngStream(2, r) for r in range(5)]
        with pytest.raises(BlowUpError) as exc:
            _recorded(g, k, sig, u0, streams, [m * g.dt for m in range(0, 81, 8)])
        err = exc.value
        assert err.replica_id == 4
        assert err.fingerprint == config_fingerprint(g, k, sig, u0, streams[4])
        (partial,) = err.partial_trajectories
        assert err.fingerprint == partial.fingerprint
        assert err.fingerprint != config_fingerprint(g, k, sig, u0, streams[0])

    def test_clip_counting_for_viot(self):
        g = grid1d(n=128, l=1.0, t_end=128 * (1.0 / 128) ** 2)
        k = KernelSpec(kind="riesz", alpha=0.5, amplitude=50.0)
        sig = SigmaSpec(kind="viot", scale=1.0)
        u0 = InitialCondition(kind="constant", value=0.5)
        times = [m * g.dt for m in (32, 64, 128)]
        traj = simulate(g, k, sig, u0, RngStream(17), times, clip=True)
        assert traj.clip_count > 0
        assert traj.clip_max > 0
        for row in traj.values:
            assert np.all((row >= 0.0) & (row <= 1.0))

    def test_2d_simulation_runs(self):
        g = GridSpec(dim=2, n=32, l=1.0, t_end=16 * (1.0 / 32) ** 2)
        k = KernelSpec(kind="riesz", alpha=1.0, dim=2)
        sig = SigmaSpec(kind="lipschitz-linear")
        traj = simulate(g, k, sig, InitialCondition(kind="constant", value=1.0), RngStream(1), [16 * g.dt])
        assert traj.values[0].shape == (32, 32)
        assert np.all(np.isfinite(traj.values[0]))


class TestSteps:
    """Every Trajectory carries the integer step of each snapshot row."""

    STEPS = (0, 8, 16, 40)

    def case(self):
        g = grid1d(n=64, t_end=40 * (1.0 / 64) ** 2)
        k = KernelSpec(kind="riesz", alpha=0.5)
        u0 = InitialCondition(kind="constant", value=1.0)
        return g, k, SigmaSpec(kind="holder-power", gamma=0.7), u0, [m * g.dt for m in self.STEPS]

    def test_simulate(self):
        g, k, sig, u0, times = self.case()
        traj = simulate(g, k, sig, u0, RngStream(3), times)
        assert traj.steps == self.STEPS
        assert traj.times == tuple(times)
        assert traj.values.shape == (len(self.STEPS), g.n)
        assert all(row.flags.c_contiguous for row in traj.values)

    def test_recorded_replicas(self):
        g, k, sig, u0, times = self.case()
        batch = _recorded(g, k, sig, u0, [RngStream(3, r) for r in range(3)], times)
        assert [t.steps for (t,) in batch] == [self.STEPS] * 3

    def test_simulate_pairs(self):
        g, k, sig, u0, times = self.case()
        pert = InitialCondition(kind="bump", center=0.5, width=0.1, height=1.0)
        batch = simulate_pairs(g, k, sig, u0, pert, [0.0, 0.1], [RngStream(3, r) for r in range(2)], times)
        for pairs in batch:
            for pair in pairs:
                assert pair.traj_a.steps == pair.traj_b.steps == self.STEPS
                assert pair.diffs.shape == (len(self.STEPS), g.n)

    def test_partial_trajectory_lengths_agree(self):
        # blows up at step 22 of 80: the rows recorded before it, each with its step
        g = grid1d(n=64, l=1.0, t_end=0.01)
        k = KernelSpec(kind="bounded-constant", amplitude=1.0)
        sig = SigmaSpec(kind="lipschitz-linear", scale=1e12)
        u0 = InitialCondition(kind="constant", value=1e100)
        pert = InitialCondition(kind="bump", center=0.5, width=0.1, height=1.0)
        times = [m * g.dt for m in range(0, 81, 8)]
        with pytest.raises(BlowUpError) as exc:
            simulate(g, k, sig, u0, RngStream(2), times)
        traj = exc.value.partial_trajectory
        assert 0 < len(traj.values) == len(traj.steps) == len(traj.times) < len(times)
        assert traj.steps == tuple(range(0, exc.value.step_index, 8))
        with pytest.raises(BlowUpError) as exc:
            simulate_pairs(g, k, sig, u0, pert, [0.1], [RngStream(2)], times)
        (pair,) = exc.value.partial_pairs
        assert len(pair.diffs) == len(pair.traj_b.values) == len(pair.traj_b.steps) == len(traj.steps)


class Stepped(Exception):
    pass


class TestStepIndexBits:
    """Step ``m`` draws at stream step index ``m - 1``, which must fit in 32 bits."""

    @pytest.mark.parametrize("last, error", [(2**32 + 1, DomainError), (2**32, Stepped)])
    def test_checked_before_step_one(self, monkeypatch, last, error):
        def draw(*args):
            raise Stepped

        monkeypatch.setattr(noise, "_draw_spectrum", draw)
        g = GridSpec(dim=1, n=4, l=1.0, dt=1.0, t_end=1.0)
        with pytest.raises(error):
            simulate(g, KernelSpec(kind="white"), SigmaSpec(), InitialCondition(), RngStream(1), [float(last)])


class TestSimulatePair:
    def test_delta_zero_identical_bitwise(self):
        g = grid1d(n=128)
        k = KernelSpec(kind="riesz", alpha=0.3)
        sig = SigmaSpec(kind="holder-power", gamma=0.8)
        u0 = InitialCondition(kind="constant", value=1.0)
        pert = InitialCondition(kind="bump", center=0.5, width=0.1, height=1.0)
        ((pair,),) = simulate_pairs(g, k, sig, u0, pert, [0.0], [RngStream(4)], [0.0, 16 * g.dt, 32 * g.dt])
        for d in pair.diffs:
            assert np.all(d == 0.0)

    def test_sigma_zero_difference_is_heat_flow(self):
        g = grid1d(n=256)
        k = KernelSpec(kind="riesz", alpha=0.5)
        u0 = InitialCondition(kind="constant", value=1.0)
        pert = InitialCondition(kind="bump", center=0.5, width=0.05, height=1.0)
        delta = 0.1
        m = 32
        ((pair,),) = simulate_pairs(g, k, sigma_zero(), u0, pert, [delta], [RngStream(4)], [m * g.dt])
        xi = np.fft.rfftfreq(g.n, d=g.h)
        mult = semigroup_multiplier(xi, m * g.dt)
        expect = np.fft.irfft(np.fft.rfft(-delta * pert.evaluate(g)) * mult, g.n)
        assert np.max(np.abs(pair.diffs[0] - expect)) <= 1e-12

    def test_same_noise_both_legs(self):
        # with sigma constant the difference is deterministic even with noise on
        g = grid1d(n=128)
        k = KernelSpec(kind="riesz", alpha=0.5)
        u0 = InitialCondition(kind="constant", value=0.0)
        pert = InitialCondition(kind="sine", k=1, amplitude=1.0)
        m = 16
        ((pair,),) = simulate_pairs(g, k, sigma_const(2.0), u0, pert, [0.5], [RngStream(8)], [m * g.dt])
        decay = np.exp(-2 * np.pi**2 * m * g.dt / g.l**2)
        expect = -0.5 * decay * np.sin(2 * np.pi * g.axis_coords() / g.l)
        assert np.max(np.abs(pair.diffs[0] - expect)) <= 1e-11

    @pytest.mark.parametrize("dim", [1, 2])
    def test_legs_match_separate_runs_bitwise(self, dim, tmp_path):
        # leg a is simulate from u0; leg b is simulate from a file holding
        # u0 + delta * pert; the shared-noise stack changes neither
        if dim == 1:
            g = grid1d(n=128)
            k = KernelSpec(kind="riesz", alpha=0.5)
        else:
            g = GridSpec(dim=2, n=32, l=1.0, t_end=16 * (1.0 / 32) ** 2)
            k = KernelSpec(kind="riesz", alpha=1.0, dim=2)
        sig = SigmaSpec(kind="holder-power", gamma=0.7)
        u0 = InitialCondition(kind="constant", value=1.0)
        pert = InitialCondition(kind="bump", center=0.5, width=0.1, height=1.0)
        delta = 0.37
        times = [0.0, 8 * g.dt, 16 * g.dt]
        ((pair,),) = simulate_pairs(g, k, sig, u0, pert, [delta], [RngStream(21, 3)], times)

        u0_b = file_ic(g, k, u0.evaluate(g) + delta * pert.evaluate(g), tmp_path / "u0b.bin")
        traj_a = simulate(g, k, sig, u0, RngStream(21, 3), times)
        traj_b = simulate(g, k, sig, u0_b, RngStream(21, 3), times)

        assert pair.times == traj_a.times == traj_b.times
        for leg, alone in ((pair.traj_a, traj_a), (pair.traj_b, traj_b)):
            for f_leg, f_alone in zip(leg.values, alone.values, strict=True):
                assert np.array_equal(f_leg, f_alone)
        for d, fa, fb in zip(pair.diffs, traj_a.values, traj_b.values, strict=True):
            assert np.array_equal(d, fa - fb)


def grid_for(dim):
    if dim == 1:
        return grid1d(n=128), KernelSpec(kind="riesz", alpha=0.5)
    return GridSpec(dim=2, n=32, l=1.0, t_end=16 * (1.0 / 32) ** 2), KernelSpec(kind="riesz", alpha=1.0, dim=2)


def assert_same_run(batched, alone):
    assert batched.times == alone.times
    assert batched.steps == alone.steps
    assert batched.fingerprint == alone.fingerprint
    assert (batched.clip_count, batched.clip_max) == (alone.clip_count, alone.clip_max)
    for f_batch, f_alone in zip(batched.values, alone.values, strict=True):
        assert np.array_equal(f_batch, f_alone)


class TestBatch:
    """A (replicas, legs) batch is bitwise the per-replica, per-leg runs."""

    def test_clipped_replicas_and_legs_match_single_runs(self, tmp_path):
        g = grid1d(n=128)
        k = KernelSpec(kind="riesz", alpha=0.5, amplitude=200.0)
        sig = SigmaSpec(kind="holder-power", gamma=0.7)
        u0 = InitialCondition(kind="constant", value=0.05)
        sine = InitialCondition(kind="sine", k=2)
        start_b = u0.evaluate(g) + 0.37 * sine.evaluate(g)
        u0_b = file_ic(g, k, start_b, tmp_path / "u0b.bin")
        streams = [RngStream(21, r) for r in (0, 1, 2)]
        times = [0.0, 8 * g.dt, 16 * g.dt]
        batch = _recorded(g, k, sig, u0, streams, times, clip=True, perturbation=sine, deltas=[0.37])
        for stream, (leg_a, leg_b) in zip(streams, batch, strict=True):
            assert_same_run(leg_a, simulate(g, k, sig, u0, stream, times, clip=True))
            alone_b = simulate(g, k, sig, u0_b, stream, times, clip=True)
            assert leg_b.fingerprint != alone_b.fingerprint  # fingerprints name the batch's u0
            alone_b.fingerprint = leg_b.fingerprint
            assert_same_run(leg_b, alone_b)
        counts = [[t.clip_count for t in legs] for legs in batch]
        assert min(min(c) for c in counts) > 0 and len({c for row in counts for c in row}) > 1

    @pytest.mark.parametrize("dim", [1, 2])
    def test_replicas_match_simulate(self, dim):
        g, k = grid_for(dim)
        sig = SigmaSpec(kind="holder-power", gamma=0.7)
        u0 = InitialCondition(kind="constant", value=1.0)
        streams = [RngStream(5, r) for r in (0, 1, 2)]
        times = [0.0, 8 * g.dt, 16 * g.dt]
        batch = _recorded(g, k, sig, u0, streams, times)
        for stream, (traj,) in zip(streams, batch, strict=True):
            assert_same_run(traj, simulate(g, k, sig, u0, stream, times))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_deltas_as_legs_match_one_delta_runs(self, dim):
        g, k = grid_for(dim)
        sig = SigmaSpec(kind="holder-power", gamma=0.8)
        u0 = InitialCondition(kind="constant", value=1.0)
        pert = InitialCondition(kind="bump", center=0.5, width=0.1, height=1.0)
        deltas = [0.0, 0.1, 0.01]
        streams = [RngStream(4, r) for r in (0, 1, 2)]
        times = [0.0, 8 * g.dt, 16 * g.dt]
        batch = simulate_pairs(g, k, sig, u0, pert, deltas, streams, times)
        for stream, pairs in zip(streams, batch, strict=True):
            for delta, pair in zip(deltas, pairs, strict=True):
                ((alone,),) = simulate_pairs(g, k, sig, u0, pert, [delta], [stream], times)
                assert pair.delta == delta
                assert_same_run(pair.traj_a, alone.traj_a)
                assert_same_run(pair.traj_b, alone.traj_b)
                for d_batch, d_alone in zip(pair.diffs, alone.diffs, strict=True):
                    assert np.array_equal(d_batch, d_alone)
            assert all(np.all(d == 0.0) for d in pairs[0].diffs)

    def test_blow_up_names_first_step_then_lowest_replica(self):
        # per-replica blow-up steps for seed 2 are 22, 22, 22, 22, 21
        g = grid1d(n=64, l=1.0, t_end=0.01)
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
        assert first.replica_id != 0
        with pytest.raises(BlowUpError) as exc:
            _recorded(g, k, sig, u0, streams, times)
        err = exc.value
        assert (str(err), err.step_index, err.replica_id) == (str(first), first.step_index, first.replica_id)
        assert f"in replica {first.replica_id}" in str(err)
        (partial,) = err.partial_trajectories
        assert not partial.complete
        assert_same_run(partial, first.partial_trajectory)
        with pytest.raises(BlowUpError) as exc:
            simulate_pairs(g, k, sig, u0, pert, [0.0, 0.1], streams, times)
        assert str(exc.value) == str(first)
        assert [p.delta for p in exc.value.partial_pairs] == [0.0, 0.1]
        assert_same_run(exc.value.partial_pairs[1].traj_a, first.partial_trajectory)
