"""Structure functions, exponent estimation, recursion arithmetic, pair statistics."""

import numpy as np
import pytest

from spdelab.errors import DomainError, InputError, InsufficientDataError
from spdelab.estimators import (
    conditional_regularity,
    critical_exponent_limit,
    default_conditioning_exponent,
    exponent_recursion,
    holder_exponent,
    structure_function,
    uniqueness_gap,
)
from spdelab.kernels import KernelSpec
from spdelab.noise import GridSpec, RngStream, synthesize
from spdelab.solver import (
    InitialCondition,
    SigmaSpec,
    Trajectory,
    simulate_pairs,
)


def make_traj(grid, arrays, times=None):
    times = times if times is not None else [grid.t_min + i * grid.dt for i in range(len(arrays))]
    steps = tuple(int(round(t / grid.dt)) for t in times)
    values = np.asarray(arrays, dtype=float)
    return Trajectory(fingerprint="synthetic", grid=grid, times=tuple(times), steps=steps, values=values)


def grid1d(n=512, l=1.0, **kw):
    kw.setdefault("t_end", 1.0)
    return GridSpec(dim=1, n=n, l=l, **kw)


def sigma_zero():
    return SigmaSpec(kind="table", table_u=(-1e6, 1e6), table_v=(0.0, 0.0), growth_c=1.0)


class TestStructureFunction:
    def test_constant_field_zero(self):
        g = grid1d(n=256)
        traj = make_traj(g, [np.full(g.n, 2.5)])
        rows = structure_function(traj, p=2, direction="space", lags=[4 * g.h, 8 * g.h])
        assert all(r.moment == 0.0 for r in rows)

    def test_linear_profile_exact(self):
        # increments are periodic: the c anchors whose lag crosses the seam
        # see the jump s * (l - c h), the other n - c see the slope s * c h
        g = grid1d(n=512, l=1.0)
        s = 3.0
        traj = make_traj(g, [s * g.axis_coords()])
        for p in (1, 2):
            for cells in (4, 16):
                row = structure_function(traj, p=p, direction="space", lags=[cells * g.h])[0]
                slope, seam = s * cells * g.h, s * (g.l - cells * g.h)
                expected = ((g.n - cells) * slope**p + cells * seam**p) / g.n
                assert row.moment == pytest.approx(expected, rel=1e-12)

    def test_translation_invariance(self):
        g = grid1d(n=1024)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(g.n)
        t1 = make_traj(g, [v])
        t2 = make_traj(g, [np.roll(v, 137)])
        for order in (1, 2):
            a = structure_function(t1, p=2, direction="space", lags=[8 * g.h], order=order)[0]
            b = structure_function(t2, p=2, direction="space", lags=[8 * g.h], order=order)[0]
            assert a.moment == pytest.approx(b.moment, rel=1e-12)

    def test_insufficient_anchors(self):
        g = GridSpec(dim=1, n=64, l=1.0, t_end=1.0)
        traj = make_traj(g, [np.zeros(64)])
        with pytest.raises(InsufficientDataError):
            structure_function(traj, p=2, direction="space", lags=[4 * g.h])

    def test_time_direction_pairs(self):
        g = grid1d(n=256, dt=0.01)
        # linear-in-time field: |u(t+tau) - u(t)| = tau exactly
        times = [g.t_min + i * 0.01 for i in range(8)]
        traj = make_traj(g, [np.full(g.n, t) for t in times], times)
        row = structure_function(traj, p=2, direction="time", lags=[0.02])[0]
        assert row.moment == pytest.approx(0.02**2, rel=1e-10)

    def test_unresolvable_lag(self):
        g = grid1d(n=256)
        traj = make_traj(g, [np.zeros(g.n)])
        with pytest.raises(Exception):
            structure_function(traj, p=2, direction="space", lags=[g.h * 0.3])


class TestStepIndexedTimeLags:
    """Time lags and snapshot times lie on the dt lattice and pair by integer step."""

    STEPS = (0, 16, 32, 64, 80, 128)

    def uneven_traj(self):
        g = grid1d(n=256, dt=0.001, t_min=0.0)
        # step m holds the constant m^2, so every increment names its pair
        arrays = [np.full(g.n, float(m * m)) for m in self.STEPS]
        return g, make_traj(g, arrays, [m * g.dt for m in self.STEPS])

    @pytest.mark.parametrize("lag_steps", [16, 32, 48, 64, 112, 128])
    def test_uneven_snapshots_pair_by_step_difference(self, lag_steps):
        g, traj = self.uneven_traj()
        pairs = [(a, b) for a in self.STEPS for b in self.STEPS if b - a == lag_steps]
        (row,) = structure_function(traj, p=1, direction="time", lags=[lag_steps * g.dt])
        assert row.n_samples == len(pairs) * g.n
        assert row.moment == pytest.approx(np.mean([b * b - a * a for a, b in pairs]), rel=1e-15)

    def test_lag_without_partners_is_insufficient(self):
        g, traj = self.uneven_traj()
        with pytest.raises(InsufficientDataError):
            structure_function(traj, p=1, direction="time", lags=[8 * g.dt])

    def test_off_lattice_lag_is_domain_error(self):
        g, traj = self.uneven_traj()
        with pytest.raises(DomainError):
            structure_function(traj, p=1, direction="time", lags=[16.5 * g.dt])

    def test_holder_rows_are_the_structure_function(self):
        g = grid1d(n=256, dt=0.001, t_min=0.0)
        rng = np.random.default_rng(11)
        trajs = [make_traj(g, np.cumsum(rng.standard_normal((40, g.n)), axis=0)) for _ in range(2)]
        for direction, lags, order in (
            ("space", [c * g.h for c in (1, 2, 4, 8)], 2),
            ("time", [c * g.dt for c in (1, 2, 4, 8)], 1),
        ):
            rep = holder_exponent(trajs, p=2, direction=direction, lags=lags, order=order)
            rows = structure_function(trajs, p=2, direction=direction, lags=lags, order=order)
            assert rep.rows == tuple(rows)
            assert rep.lags == tuple(r.lag for r in rows)


class TestHolderExponent:
    def test_lag_band_needs_three_octaves(self):
        g = grid1d(n=256)
        traj = make_traj(g, [np.random.default_rng(0).standard_normal(g.n)])
        with pytest.raises(DomainError):
            holder_exponent(traj, p=2, direction="space", lags=[4 * g.h, 8 * g.h])

    @pytest.mark.parametrize("H", [0.25, 0.5, 0.75])
    def test_synthetic_fractional_field_consistency(self, H):
        # spectral sampler with density |k|^(-1-2H) gives increments ~ r^H;
        # alias images fold the super-Nyquist mass a sampled continuum field carries
        g = grid1d(n=4096)
        k_signed = np.fft.fftfreq(g.n, d=1.0 / g.n)
        mass = np.zeros(g.n)
        for m in range(-4, 5):
            shifted = np.abs(k_signed + m * g.n)
            nz = shifted > 0
            mass[nz] += shifted[nz] ** (-(1 + 2 * H))
        std = np.sqrt(mass)
        std[0] = 0.0
        arrays = [synthesize(g, std, RngStream(100 + int(10 * H), r).generator()) for r in range(12)]
        traj = make_traj(g, arrays, [g.t_min + i * g.dt for i in range(12)])
        rep = holder_exponent(traj, p=2, direction="space", lags=[c * g.h for c in (4, 8, 16, 32)])
        assert abs(rep.exponent - H) <= 0.05

    def test_smooth_deterministic_saturates(self):
        g = grid1d(n=2048, l=1.0)
        traj = make_traj(g, [np.sin(2 * np.pi * g.axis_coords())])
        rep = holder_exponent(traj, p=2, direction="space", lags=[c * g.h for c in (1, 2, 4, 8)])
        assert rep.exponent >= 0.99

    def test_report_fields(self):
        g = grid1d(n=1024)
        arrays = [np.random.default_rng(3).standard_normal(g.n) for _ in range(3)]
        traj = make_traj(g, arrays)
        rep = holder_exponent(traj, p=2, direction="space", lags=[c * g.h for c in (2, 4, 8, 16)])
        assert rep.stderr > 0
        assert rep.direction == "space"
        assert rep.n_samples >= 100
        assert len(rep.lags) == 4


class TestExponentArithmetic:
    def test_limit_examples(self):
        assert critical_exponent_limit(0.5, 1.0) == 1.0
        assert critical_exponent_limit(0.5, 0.6) == 1.0  # 1.875 capped at 1
        assert critical_exponent_limit(0.8, 0.2) == pytest.approx(0.75)

    def test_recursion_start_and_first_step(self):
        xs = exponent_recursion(0.5, 0.8, 1)
        assert xs[0] == pytest.approx(0.375)
        assert xs[1] == pytest.approx(min(0.375 * 0.8 + 0.75, 1.0) * 0.75)
        assert xs[1] == pytest.approx(0.75)

    def test_recursion_converges_to_limit_grid(self):
        alphas = np.linspace(0.05, 0.95, 10)
        gammas = np.linspace(0.1, 1.0, 10)
        for a in alphas:
            for gmm in gammas:
                xs = exponent_recursion(float(a), float(gmm), 50)
                assert abs(xs[50] - critical_exponent_limit(float(a), float(gmm))) <= 0.05

    def test_recursion_eventually_nondecreasing(self):
        xs = exponent_recursion(0.5, 0.7, 60)
        tail = xs[5:]
        assert np.all(np.diff(tail) >= -1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            exponent_recursion(1.2, 0.5, 10)
        with pytest.raises(DomainError):
            critical_exponent_limit(0.5, 0.0)

    def test_default_conditioning_midpoint(self):
        assert default_conditioning_exponent(0.5, 0.5) == pytest.approx(0.875)


def _noisy_pair(delta=0.1, seed=7, n=256, gamma=0.5, scale=1.0, replicas=1, tendf=400):
    l = 1.0
    h = l / n
    grid = GridSpec(dim=1, n=n, l=l, dt=h * h / 2, t_end=tendf * h * h, t_min=0.1 * tendf * h * h)
    k = KernelSpec(kind="riesz", alpha=0.5)
    sig = SigmaSpec(kind="holder-power", gamma=gamma, scale=scale)
    u0 = InitialCondition(kind="constant", value=1.0)
    pert = InitialCondition(kind="bump", center=l / 2, width=l / 8, height=1.0)
    total = int(round(grid.t_end / grid.dt))
    times = [m * grid.dt for m in range(0, total + 1, max(1, total // 32))]
    streams = [RngStream(seed, r) for r in range(replicas)]
    pairs = [pair for (pair,) in simulate_pairs(grid, k, sig, u0, pert, [delta], streams, times)]
    return grid, pairs


class TestConditionalRegularity:
    def test_delta_zero_rejected(self):
        grid, pairs = _noisy_pair(delta=0.0)
        with pytest.raises(DomainError):
            conditional_regularity(pairs, xi=0.875, eps_values=[4 * grid.h])

    def test_insufficient_conditioning_anchors(self):
        grid, pairs = _noisy_pair(delta=0.1)
        # xi enormous makes the threshold essentially zero
        with pytest.raises(InsufficientDataError) as exc:
            conditional_regularity(pairs, xi=40.0, eps_values=[4 * grid.h])
        assert exc.value.occupancy

    def test_smooth_difference_saturates_both(self):
        # sigma = 0: the difference field is pure heat flow, smooth everywhere
        n, l = 512, 1.0
        h = l / n
        grid = GridSpec(dim=1, n=n, l=l, dt=h * h / 2, t_end=400 * h * h, t_min=40 * h * h)
        k = KernelSpec(kind="riesz", alpha=0.5)
        u0 = InitialCondition(kind="constant", value=1.0)
        pert = InitialCondition(kind="bump", center=l / 2, width=l / 16, height=1.0)
        total = int(round(grid.t_end / grid.dt))
        times = [m * grid.dt for m in range(0, total + 1, max(1, total // 16))]
        ((pair,),) = simulate_pairs(grid, k, sigma_zero(), u0, pert, [0.5], [RngStream(3)], times)
        res = conditional_regularity(
            pair, xi=0.875, eps_values=[8 * h], lags=[c * h for c in (1, 2, 4, 8)]
        )
        assert res.unconditional.exponent >= 0.9
        assert res.conditional[0].exponent >= 0.9

    def test_conditional_never_far_below_unconditional(self):
        grid, pairs = _noisy_pair(delta=0.1, scale=2.0, replicas=3, tendf=800)
        res = conditional_regularity(
            pairs, xi=0.875, eps_values=[4 * grid.h, 8 * grid.h],
            lags=[c * grid.h for c in (1, 2, 4, 8)],
        )
        for rep, gap in zip(res.conditional, res.gaps):
            assert gap >= -2.0 * (rep.stderr + res.unconditional.stderr)

    def test_lag_beyond_half_grid_rejected(self):
        grid, pairs = _noisy_pair(delta=0.1)
        with pytest.raises(InputError):
            conditional_regularity(
                pairs, xi=0.875, eps_values=[4 * grid.h],
                lags=[c * grid.h for c in (1, 2, 4, grid.n // 2 + 1)],
            )

    @pytest.mark.parametrize("eps_cells", [4.4, 3.6, 0.5, 129])
    def test_eps_off_the_cell_lattice_rejected(self, eps_cells):
        # 4.4 or 3.6 cells would run a 4-cell window under an unrounded threshold
        grid, pairs = _noisy_pair(delta=0.1)
        with pytest.raises(InputError):
            conditional_regularity(pairs, xi=0.875, eps_values=[eps_cells * grid.h])

    def test_occupancy_reported(self):
        grid, pairs = _noisy_pair(delta=0.1, replicas=2)
        res = conditional_regularity(
            pairs, xi=0.875, eps_values=[8 * grid.h], lags=[c * grid.h for c in (1, 2, 4, 8)]
        )
        assert 0 < res.occupancy[8 * grid.h] <= 1.0


class TestUniquenessGap:
    def test_delta_zero_rows_identically_zero(self):
        _, pairs0 = _noisy_pair(delta=0.0, replicas=2)
        _, pairs1 = _noisy_pair(delta=0.1, replicas=2)
        rep = uniqueness_gap(pairs0 + pairs1)
        assert np.all(rep.median_l1[0.0] == 0.0)
        assert np.all(rep.median_sup[0.0] == 0.0)
        assert rep.peak_l1[0.0] == 0.0

    def test_heat_flow_l1_decay_exact(self):
        # sigma = 0, sine perturbation: L1 norm of the difference decays by the
        # exact eigenvalue factor between consecutive snapshots
        n, l = 256, 1.0
        h = l / n
        grid = GridSpec(dim=1, n=n, l=l, dt=h * h / 2, t_end=64 * h * h)
        k = KernelSpec(kind="riesz", alpha=0.5)
        u0 = InitialCondition(kind="constant", value=0.0)
        pert = InitialCondition(kind="sine", k=1, amplitude=1.0)
        times = [m * grid.dt for m in (16, 32, 48, 64)]
        ((pair,),) = simulate_pairs(grid, k, sigma_zero(), u0, pert, [0.3], [RngStream(2)], times)
        rep = uniqueness_gap([pair])
        l1 = rep.median_l1[0.3]
        decay = np.exp(-2 * np.pi**2 * 16 * grid.dt / l**2)
        for a, b in zip(l1, l1[1:]):
            assert b < a
            assert b / a == pytest.approx(decay, rel=1e-10)

    def test_monotone_in_delta_smoke(self):
        pairs = []
        for d in (0.1, 0.01):
            _, ps = _noisy_pair(delta=d, gamma=0.8, replicas=6)
            pairs.extend(ps)
        rep = uniqueness_gap(pairs)
        assert rep.monotone_in_delta
        assert rep.peak_l1[0.01] < rep.peak_l1[0.1]

    def test_mismatched_pairs_rejected(self):
        _, a = _noisy_pair(delta=0.1, n=128)
        _, b = _noisy_pair(delta=0.1, n=256)
        with pytest.raises(Exception):
            uniqueness_gap(a + b)
