"""Structure functions, exponent estimation, recursion arithmetic, pair statistics.

Run-level behaviours call the streamed estimators; the estimator math on
synthetic fields feeds their statistic and reducer directly (``_Moments``,
then ``_moment_rows``), one snapshot at a time as the engine would."""

import numpy as np
import pytest

from spdelab._fit import fit_loglog
from spdelab.errors import DomainError, InputError, InsufficientDataError
from spdelab.estimators import (
    _moment_rows,
    _Moments,
    _require_octaves,
    conditional_regularity,
    critical_exponent_limit,
    default_conditioning_exponent,
    exponent_recursion,
    structure_function,
    uniqueness_gap,
)
from spdelab.kernels import KernelSpec
from spdelab.noise import GridSpec, RngStream, synthesize
from spdelab.solver import InitialCondition, SigmaSpec, simulate

RIESZ = KernelSpec(kind="riesz", alpha=0.5)
U0 = InitialCondition(kind="constant", value=1.0)


def synthetic_table(grid, arrays, p, direction, lags, order=1, times=None):
    """The moment table of one replica whose snapshots are ``arrays`` (by default one step apart from
    ``t_min``), each fed to ``_Moments`` at its step as the engine would, then reduced by ``_moment_rows``."""
    times = times if times is not None else [grid.t_min + i * grid.dt for i in range(len(arrays))]
    moments = _Moments(grid, 1, p, order=order, **{f"{direction}_lags": lags})
    for t, row in zip(times, arrays):
        moments(int(round(t / grid.dt)), t, np.asarray(row, dtype=float)[None, None])
    return _moment_rows(grid, moments.scalars, lags, direction)


def grid1d(n=512, l=1.0, **kw):
    kw.setdefault("t_end", 1.0)
    return GridSpec(dim=1, n=n, l=l, **kw)


def sigma_zero():
    return SigmaSpec(kind="table", table_u=(-1e6, 1e6), table_v=(0.0, 0.0), growth_c=1.0)


class TestStructureFunction:
    def test_constant_field_zero(self):
        g = grid1d(n=256)
        rows = synthetic_table(g, [np.full(g.n, 2.5)], 2, "space", [4 * g.h, 8 * g.h])
        assert all(r.moment == 0.0 for r in rows)

    def test_linear_profile_exact(self):
        # increments are periodic: the c anchors whose lag crosses the seam
        # see the jump s * (l - c h), the other n - c see the slope s * c h
        g = grid1d(n=512, l=1.0)
        s = 3.0
        for p in (1, 2):
            for cells in (4, 16):
                row = synthetic_table(g, [s * g.axis_coords()], p, "space", [cells * g.h])[0]
                slope, seam = s * cells * g.h, s * (g.l - cells * g.h)
                expected = ((g.n - cells) * slope**p + cells * seam**p) / g.n
                assert row.moment == pytest.approx(expected, rel=1e-12)

    def test_translation_invariance(self):
        g = grid1d(n=1024)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(g.n)
        for order in (1, 2):
            a = synthetic_table(g, [v], 2, "space", [8 * g.h], order=order)[0]
            b = synthetic_table(g, [np.roll(v, 137)], 2, "space", [8 * g.h], order=order)[0]
            assert a.moment == pytest.approx(b.moment, rel=1e-12)

    def test_insufficient_anchors(self):
        # one snapshot of 64 cells is 64 anchors
        g = GridSpec(dim=1, n=64, l=1.0, dt=2.0**-13, t_end=2.0**-10, t_min=0.0)
        with pytest.raises(InsufficientDataError):
            structure_function(g, RIESZ, SigmaSpec(), U0, [RngStream(3)], [0.0], 2, [4 * g.h], ())

    def test_time_direction_pairs(self):
        g = grid1d(n=256, dt=0.01)
        # linear-in-time field: |u(t+tau) - u(t)| = tau exactly
        times = [g.t_min + i * 0.01 for i in range(8)]
        row = synthetic_table(g, [np.full(g.n, t) for t in times], 2, "time", [0.02], times=times)[0]
        assert row.moment == pytest.approx(0.02**2, rel=1e-10)

    def test_unresolvable_lag(self):
        g = grid1d(n=256)
        with pytest.raises(Exception):
            structure_function(g, RIESZ, SigmaSpec(), U0, [RngStream(3)], [g.t_min], 2, [g.h * 0.3], ())


class TestStepIndexedTimeLags:
    """Time lags and snapshot times lie on the dt lattice and pair by integer step."""

    STEPS = (0, 16, 32, 64, 80, 128)

    def uneven_run(self):
        """A run recorded at the uneven ``STEPS``: its grid, ``structure_function``'s arguments up to ``p``,
        and the recorded snapshots by step."""
        g = grid1d(n=256, dt=0.001, t_end=0.128, t_min=0.0)
        args = (g, RIESZ, SigmaSpec(), U0, [RngStream(4)], [m * g.dt for m in self.STEPS])
        traj = simulate(*args[:4], args[4][0], args[5])
        return g, args, dict(zip(traj.steps, traj.values))

    @pytest.mark.parametrize("lag_steps", [16, 32, 48, 64, 112, 128])
    def test_uneven_snapshots_pair_by_step_difference(self, lag_steps):
        g, args, at_step = self.uneven_run()
        pairs = [(a, b) for a in self.STEPS for b in self.STEPS if b - a == lag_steps]
        _, (row,) = structure_function(*args, 1, (), [lag_steps * g.dt])
        assert row.n_samples == len(pairs) * g.n
        assert row.moment == pytest.approx(np.mean([np.mean(np.abs(at_step[b] - at_step[a])) for a, b in pairs]),
                                           rel=1e-15)

    def test_lag_without_partners_is_insufficient(self):
        g, args, _ = self.uneven_run()
        with pytest.raises(InsufficientDataError):
            structure_function(*args, 1, (), [8 * g.dt])

    def test_off_lattice_lag_is_domain_error(self):
        g, args, _ = self.uneven_run()
        with pytest.raises(DomainError):
            structure_function(*args, 1, (), [16.5 * g.dt])


def spatial_exponent(grid, arrays, lags, p=2):
    """The scaling exponent written out: the slope of the log-log fit of the
    spatial structure function over ``p``; with its standard error and rows."""
    rows = synthetic_table(grid, arrays, p, "space", lags)
    slope, slope_se = fit_loglog([r.lag for r in rows], [r.moment for r in rows])
    return slope / p, slope_se / p, rows


class TestHolderExponent:
    def test_lag_band_needs_three_octaves(self):
        g = grid1d(n=256)
        with pytest.raises(DomainError):
            _require_octaves([4 * g.h, 8 * g.h])
        assert list(_require_octaves([4 * g.h, 32 * g.h])) == [4 * g.h, 32 * g.h]

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
        exponent, _, _ = spatial_exponent(g, arrays, [c * g.h for c in (4, 8, 16, 32)])
        assert abs(exponent - H) <= 0.05

    def test_smooth_deterministic_saturates(self):
        g = grid1d(n=2048, l=1.0)
        exponent, _, _ = spatial_exponent(g, [np.sin(2 * np.pi * g.axis_coords())], [c * g.h for c in (1, 2, 4, 8)])
        assert exponent >= 0.99

    def test_report_fields(self):
        g = grid1d(n=1024)
        arrays = [np.random.default_rng(3).standard_normal(g.n) for _ in range(3)]
        lags = [c * g.h for c in (2, 4, 8, 16)]
        _, stderr, rows = spatial_exponent(g, arrays, lags)
        assert stderr > 0
        assert [r.lag for r in rows] == lags
        assert all(r.n_samples >= 100 for r in rows)


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


def _noisy_run(seed=7, n=256, gamma=0.5, scale=1.0, replicas=1, tendf=400):
    """The arguments of a coupled-pair estimator up to the deltas, and its grid: 33 snapshots of a run to
    ``tendf * h^2``, perturbed by a bump."""
    l = 1.0
    h = l / n
    grid = GridSpec(dim=1, n=n, l=l, dt=h * h / 2, t_end=tendf * h * h, t_min=0.1 * tendf * h * h)
    sig = SigmaSpec(kind="holder-power", gamma=gamma, scale=scale)
    pert = InitialCondition(kind="bump", center=l / 2, width=l / 8, height=1.0)
    total = int(round(grid.t_end / grid.dt))
    times = [m * grid.dt for m in range(0, total + 1, max(1, total // 32))]
    streams = [RngStream(seed, r) for r in range(replicas)]
    return grid, (grid, RIESZ, sig, U0, pert), streams, times


def _noisy_regularity(delta=0.1, xi=0.875, eps_cells=(4,), lag_cells=None, **run):
    grid, head, streams, times = _noisy_run(**run)
    return conditional_regularity(*head, delta, streams, times, xi, [c * grid.h for c in eps_cells],
                                  lags=None if lag_cells is None else [c * grid.h for c in lag_cells])


class TestConditionalRegularity:
    def test_delta_zero_rejected(self):
        with pytest.raises(DomainError):
            _noisy_regularity(delta=0.0)

    def test_insufficient_conditioning_anchors(self):
        # xi enormous makes the threshold essentially zero
        with pytest.raises(InsufficientDataError) as exc:
            _noisy_regularity(xi=40.0)
        assert exc.value.occupancy

    def test_smooth_difference_saturates_both(self):
        # sigma = 0: the difference field is pure heat flow, smooth everywhere
        n, l = 512, 1.0
        h = l / n
        grid = GridSpec(dim=1, n=n, l=l, dt=h * h / 2, t_end=400 * h * h, t_min=40 * h * h)
        pert = InitialCondition(kind="bump", center=l / 2, width=l / 16, height=1.0)
        total = int(round(grid.t_end / grid.dt))
        times = [m * grid.dt for m in range(0, total + 1, max(1, total // 16))]
        res = conditional_regularity(grid, RIESZ, sigma_zero(), U0, pert, 0.5, [RngStream(3)], times,
                                     xi=0.875, eps_values=[8 * h], lags=[c * h for c in (1, 2, 4, 8)])
        assert res.unconditional.exponent >= 0.9
        assert res.conditional[0].exponent >= 0.9

    def test_conditional_never_far_below_unconditional(self):
        res = _noisy_regularity(eps_cells=(4, 8), lag_cells=(1, 2, 4, 8), scale=2.0, replicas=3, tendf=800)
        for rep, gap in zip(res.conditional, res.gaps):
            assert gap >= -2.0 * (rep.stderr + res.unconditional.stderr)

    def test_lag_beyond_half_grid_rejected(self):
        with pytest.raises(InputError):
            _noisy_regularity(lag_cells=(1, 2, 4, 256 // 2 + 1))

    @pytest.mark.parametrize("eps_cells", [4.4, 3.6, 0.5, 129])
    def test_eps_off_the_cell_lattice_rejected(self, eps_cells):
        # 4.4 or 3.6 cells would run a 4-cell window under an unrounded threshold
        with pytest.raises(InputError):
            _noisy_regularity(eps_cells=(eps_cells,))

    def test_occupancy_reported(self):
        res = _noisy_regularity(eps_cells=(8,), lag_cells=(1, 2, 4, 8), replicas=2)
        assert 0 < res.occupancy[res.eps_values[0]] <= 1.0


class TestUniquenessGap:
    def test_delta_zero_rows_identically_zero(self):
        _, head, streams, times = _noisy_run(replicas=2)
        rep = uniqueness_gap(*head, [0.0, 0.1], streams, times)
        assert np.all(rep.median_l1[0.0] == 0.0)
        assert np.all(rep.median_sup[0.0] == 0.0)
        assert rep.peak_l1[0.0] == 0.0

    def test_heat_flow_l1_decay_exact(self):
        # sigma = 0, sine perturbation: L1 norm of the difference decays by the
        # exact eigenvalue factor between consecutive snapshots
        n, l = 256, 1.0
        h = l / n
        grid = GridSpec(dim=1, n=n, l=l, dt=h * h / 2, t_end=64 * h * h)
        u0 = InitialCondition(kind="constant", value=0.0)
        pert = InitialCondition(kind="sine", k=1, amplitude=1.0)
        times = [m * grid.dt for m in (16, 32, 48, 64)]
        rep = uniqueness_gap(grid, RIESZ, sigma_zero(), u0, pert, [0.3], [RngStream(2)], times)
        l1 = rep.median_l1[0.3]
        decay = np.exp(-2 * np.pi**2 * 16 * grid.dt / l**2)
        for a, b in zip(l1, l1[1:]):
            assert b < a
            assert b / a == pytest.approx(decay, rel=1e-10)

    def test_monotone_in_delta_smoke(self):
        _, head, streams, times = _noisy_run(gamma=0.8, replicas=6)
        rep = uniqueness_gap(*head, [0.1, 0.01], streams, times)
        assert rep.monotone_in_delta
        assert rep.peak_l1[0.01] < rep.peak_l1[0.1]

    def test_no_snapshot_is_an_input_error(self):
        """Pairs run with no snapshot time: the decay table is an InputError."""
        grid = grid1d(n=64)
        pert = InitialCondition(kind="bump", center=0.5, width=0.1, height=1.0)
        streams = [RngStream(2, r) for r in range(2)]
        with pytest.raises(InputError, match="no snapshots given"):
            uniqueness_gap(grid, RIESZ, SigmaSpec(), U0, pert, [0.0, 0.1], streams, [])
