"""Noise synthesis: covariance contract, reproducibility, dumps."""

import numpy as np
import pytest

from spdelab.errors import (
    DomainError,
    InputError,
    InsufficientDataError,
    SingularKernelError,
    SpectralError,
)
from spdelab import noise
from spdelab.kernels import KernelSpec
from spdelab.noise import (
    GridSpec,
    NoiseField,
    RngStream,
    covariance_check,
    read_field,
    spectral_amplitudes,
    synthesize,
    write_field,
)
from spdelab.noise import _TWO32, _amplitudes_cached, _draw_spectrum, _fields, _rekey
from spdelab.solver import InitialCondition, SigmaSpec, simulate, simulate_pairs


def grid1d(n=512, l=1.0, **kw):
    kw.setdefault("t_end", 1.0)
    return GridSpec(dim=1, n=n, l=l, **kw)


def draw(g, k, dt, stream):
    """One increment with covariance ``dt * k``: the draw the solver makes at ``stream``."""
    return synthesize(g, spectral_amplitudes(g, k) * np.sqrt(dt), stream.generator())


class UnitNormals:
    """Stand-in generator whose one draw is the ``i``-th unit vector; records the shape asked for."""

    def __init__(self, i):
        self.i = i

    def standard_normal(self, shape):
        self.shape = shape
        e = np.zeros(shape)
        e.flat[self.i] = 1.0
        return e


def noise_field(g, k, dt, stream):
    return NoiseField(grid=g, values=draw(g, k, dt, stream), kernel=k, stream=stream, dt=dt)


class TestGridSpec:
    def test_power_of_two_required(self):
        with pytest.raises(DomainError):
            GridSpec(dim=1, n=100, l=1.0, t_end=1.0)

    def test_defaults(self):
        g = grid1d(n=256)
        assert g.dt == pytest.approx(g.h**2 / 2)
        assert g.t_min == pytest.approx(0.1 * g.t_end)

    def test_window_ordering(self):
        with pytest.raises(DomainError):
            GridSpec(dim=1, n=64, l=1.0, t_end=1.0, t_min=2.0)

    def test_dim_limited(self):
        with pytest.raises(DomainError):
            GridSpec(dim=3, n=64, l=1.0, t_end=1.0)

    @pytest.mark.parametrize("field", ["l", "dt", "t_end", "t_min"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_values_rejected(self, field, value):
        kw = {"dim": 1, "n": 64, "l": 1.0, "dt": 1e-4, "t_end": 1.0, "t_min": 0.1, field: value}
        with pytest.raises(DomainError):
            GridSpec(**kw)


class TestGridLattice:
    """``cells``/``steps``: the one check that a length is whole cells and a time whole steps."""

    @pytest.mark.parametrize("cells, lo, expected", [
        (4, 1, 4),
        (4 + 5e-10, 1, 4),  # inside 1e-9 of a cell
        (32, 1, 32),  # n/2
        (0, 0, 0),
    ])
    def test_cells_accepted(self, cells, lo, expected):
        g = grid1d(n=64, l=2.5)
        assert g.cells(cells * g.h, lo=lo) == expected

    @pytest.mark.parametrize("cells, lo", [
        (4.4, 1),
        (3.6, 1),
        (4 + 5e-9, 1),  # outside 1e-9 of a cell
        (0, 1),
        (33, 1),  # n/2 + 1 would alias through the periodic wrap
        (33, 0),
        (-1, 0),
        (np.inf, 0),
        (np.nan, 0),
    ])
    def test_cells_rejected(self, cells, lo):
        g = grid1d(n=64, l=2.5)
        with pytest.raises(InputError):
            g.cells(cells * g.h, lo=lo)

    @pytest.mark.parametrize("steps, lo, expected", [
        (16, 0, 16),
        (16 + 5e-7, 0, 16),  # inside 1e-6 of a step
        (16, 1, 16),
        (0, 0, 0),
    ])
    def test_steps_accepted(self, steps, lo, expected):
        g = grid1d(n=64, dt=0.003)
        assert g.steps(steps * g.dt, lo=lo) == expected

    @pytest.mark.parametrize("steps, lo", [
        (16.5, 0),
        (16 + 5e-6, 0),  # outside 1e-6 of a step
        (-1, 0),
        (0, 1),
        (np.inf, 0),
        (np.nan, 0),
    ])
    def test_steps_rejected(self, steps, lo):
        g = grid1d(n=64, dt=0.003)
        with pytest.raises(InputError):
            g.steps(steps * g.dt, lo=lo)


class TestRngStream:
    def test_same_triple_bit_identical(self):
        g = grid1d()
        k = KernelSpec(kind="riesz", alpha=0.5)
        a = draw(g, k, g.dt, RngStream(7, 3, 11))
        b = draw(g, k, g.dt, RngStream(7, 3, 11))
        assert np.array_equal(a, b)

    def test_distinct_triples_differ(self):
        g = grid1d()
        k = KernelSpec(kind="riesz", alpha=0.5)
        a = draw(g, k, g.dt, RngStream(7, 3, 11))
        b = draw(g, k, g.dt, RngStream(7, 3, 12))
        c = draw(g, k, g.dt, RngStream(7, 4, 11))
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_replica_independence(self):
        g = grid1d(n=4096)
        k = KernelSpec(kind="white")
        a = draw(g, k, g.dt, RngStream(1, 0, 0))
        b = draw(g, k, g.dt, RngStream(1, 1, 0))
        prod = a * b
        z = np.mean(prod) / (np.std(prod, ddof=1) / np.sqrt(prod.size))
        assert abs(z) <= 3.5

    def test_id_bounds(self):
        with pytest.raises(DomainError):
            RngStream(1, 1 << 32, 0)


class TestRekey:
    """One Philox re-keyed per draw gives the bits of a new generator for that stream."""

    @staticmethod
    def dirty(rng):
        rng.integers(0, _TWO32, dtype=np.uint32)  # caches the other 32-bit half of a word
        rng.bit_generator.random_raw(1)
        if rng.bit_generator.state["buffer_pos"] == 4:
            rng.bit_generator.random_raw(1)  # leave a 4-word Philox block part read
        state = rng.bit_generator.state
        assert state["has_uint32"] == 1 and 0 < state["buffer_pos"] < 4
        return rng

    @pytest.mark.parametrize("shape", [(2, 129), (2, 16, 9)], ids=["1d", "2d"])
    @pytest.mark.parametrize(
        "seed, replica, step",
        [(0xC0FFEE, 0, 0), (7, 3, 11), (-1, _TWO32 - 1, _TWO32 - 1), ((1 << 70) + 5, 2, _TWO32 - 1)],
    )
    def test_matches_a_new_generator(self, shape, seed, replica, step):
        stream = RngStream(seed, replica)
        rng = np.random.Generator(np.random.Philox(0))
        for _ in range(2):  # the second re-key starts from the state the first draw left
            got = _rekey(self.dirty(rng), stream, step).standard_normal(shape)
            assert np.array_equal(got, stream.at_step(step).generator().standard_normal(shape))


class TestOnePhiloxPerCall:
    """Per-draw generator construction stays out of the engine and the covariance check."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            calls.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        return calls

    def test_integrate(self, built):
        g = grid1d(n=32)
        k = KernelSpec(kind="riesz", alpha=0.5)
        bump = InitialCondition(kind="bump", width=0.1)
        streams = [RngStream(5, r) for r in range(3)]
        pairs = simulate_pairs(g, k, SigmaSpec(), InitialCondition(value=1.0), bump, [0.1], streams, [50 * g.dt])
        assert [p.traj_a.steps for (p,) in pairs] == [(50,)] * 3
        assert len(built) == 1

    def test_covariance_check(self, built):
        g = grid1d(n=64)
        covariance_check(g, KernelSpec(kind="riesz", alpha=0.5), [4 * g.h], replicas=3, steps_per_replica=5)
        assert len(built) == 1


class TestSpectralAmplitudes:
    def test_cache_is_keyed_by_the_lattice(self):
        """Grids that differ only in ``t_end`` share one cached array."""
        k = KernelSpec(kind="riesz", alpha=0.5)
        _amplitudes_cached.cache_clear()
        try:
            short = spectral_amplitudes(grid1d(n=64, t_end=1.0), k)
            long = spectral_amplitudes(grid1d(n=64, t_end=2.0), k)
            info = _amplitudes_cached.cache_info()
            assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
            assert np.array_equal(short, long)
        finally:
            _amplitudes_cached.cache_clear()

    def test_white_flat(self):
        g = grid1d(n=128, l=2.0)
        amps = spectral_amplitudes(g, KernelSpec(kind="white"))
        assert np.allclose(amps, np.sqrt(1.0 / g.l), rtol=1e-14)
        # per-cell variance of the increment field is dt/h^d
        total = np.sum(amps**2)
        assert total == pytest.approx(1.0 / g.h, rel=1e-12)

    def test_bounded_constant_all_dc(self):
        g = grid1d(n=128)
        amps = spectral_amplitudes(g, KernelSpec(kind="bounded-constant", amplitude=3.0))
        assert amps[0] == pytest.approx(np.sqrt(3.0))
        assert np.all(amps[1:] == 0.0)

    def test_riesz_power_law_midband(self):
        g = grid1d(n=1024)
        alpha = 0.5
        amps = spectral_amplitudes(g, KernelSpec(kind="riesz", alpha=alpha))
        # cell-integrated masses follow |k/L|^((alpha-1)/2) mid-band
        for k in (16, 32, 64, 128):
            ratio = amps[2 * k] / amps[k]
            assert ratio == pytest.approx(2.0 ** ((alpha - 1) / 2), rel=5e-3)

    def test_riesz_plus_constant_dc(self):
        g = grid1d(n=128)
        plain = spectral_amplitudes(g, KernelSpec(kind="riesz", alpha=0.5, amplitude=2.0))
        plus = spectral_amplitudes(g, KernelSpec(kind="riesz-plus-constant", alpha=0.5, amplitude=2.0))
        assert plus[0] ** 2 - plain[0] ** 2 == pytest.approx(2.0, rel=1e-12)
        assert np.allclose(plus[1:], plain[1:])

    def test_existence_regime_enforced(self):
        g = grid1d(n=128)
        with pytest.raises(DomainError):
            spectral_amplitudes(g, KernelSpec(kind="riesz", alpha=1.5, dim=1))

    def test_synthesize_rejects_bad_input(self):
        g = grid1d(n=128)
        bad = np.full(g.shape, -1.0)
        with pytest.raises(SpectralError):
            synthesize(g, bad, RngStream(1).generator())
        with pytest.raises(InputError):
            synthesize(g, np.ones(5), RngStream(1).generator())


class TestModeDeviationCheck:
    """The one check that mode masses are finite and >= 0 guards every caller."""

    @pytest.fixture
    def nan_constant(self, monkeypatch):
        monkeypatch.setattr(noise, "riesz_spectral_constant", lambda alpha, dim: np.nan)
        _amplitudes_cached.cache_clear()
        yield
        _amplitudes_cached.cache_clear()

    def test_every_caller_raises(self, nan_constant):
        g = grid1d(n=64)
        k = KernelSpec(kind="riesz", alpha=0.5)
        with pytest.raises(SpectralError):
            spectral_amplitudes(g, k)
        with pytest.raises(SpectralError):
            simulate(g, k, SigmaSpec(), InitialCondition(), RngStream(1), [0.0, g.dt])
        with pytest.raises(SpectralError):
            covariance_check(g, k, [4 * g.h], replicas=2)


class TestSampleIncrement:
    def test_dt_scaling(self):
        g = grid1d(n=1024)
        k = KernelSpec(kind="riesz", alpha=0.5)
        r1 = [
            np.mean(draw(g, k, 1e-4, RngStream(3, r)) ** 2)
            for r in range(100)
        ]
        r2 = [
            np.mean(draw(g, k, 2e-4, RngStream(4, r)) ** 2)
            for r in range(100)
        ]
        assert np.mean(r2) / np.mean(r1) == pytest.approx(2.0, rel=0.05)

    def test_real_and_finite(self):
        for dim in (1, 2):
            g = GridSpec(dim=dim, n=64, l=1.0, t_end=1.0)
            k = KernelSpec(kind="riesz", alpha=0.5 if dim == 1 else 1.0, dim=dim)
            f = draw(g, k, g.dt, RngStream(5))
            assert f.dtype == np.float64
            assert np.all(np.isfinite(f))
            assert f.shape == g.shape

    def test_mean_zero(self):
        g = grid1d(n=256)
        k = KernelSpec(kind="riesz", alpha=0.5)
        means = [np.mean(draw(g, k, 1.0, RngStream(6, r))) for r in range(200)]
        z = np.mean(means) / (np.std(means, ddof=1) / np.sqrt(len(means)))
        assert abs(z) <= 3.5

    @pytest.mark.parametrize("dim, n", [(1, 8), (1, 16), (2, 8), (2, 16)],
                             ids=["1d-n8", "1d-n16", "2d-n8", "2d-n16"])
    def test_synthesizer_covariance_is_exact(self, dim, n):
        # the field is linear in the normals, so feeding each unit vector
        # through the draw gives the synthesis matrix A; its exact covariance
        # A A^T must be stationary with every row ifft(mass) * n^d
        g = GridSpec(dim=dim, n=n, l=1.0, t_end=1.0)
        k = KernelSpec(kind="riesz", alpha=0.5 if dim == 1 else 1.0, dim=dim)
        std = spectral_amplitudes(g, k)
        probe = UnitNormals(0)
        synthesize(g, std, probe)
        a = np.stack(
            [synthesize(g, std, UnitNormals(i)).ravel() for i in range(int(np.prod(probe.shape)))],
            axis=1,
        )
        cov = a @ a.T
        c = np.fft.ifftn(std**2).real * g.n_cells
        tol = 1e-12 * np.max(np.abs(c))
        axes = tuple(range(dim))
        for j, row in enumerate(cov):
            # stationary: the row of point x_j is c at separation x - x_j
            shift = np.unravel_index(j, g.shape)
            assert np.max(np.abs(row.reshape(g.shape) - np.roll(c, shift, axis=axes))) <= tol

    def test_2d_stacked_fields_match_single_draws(self):
        # a stack of 2-D spectra: each row is bitwise that spectrum transformed alone
        g = GridSpec(dim=2, n=32, l=1.0, t_end=1.0)
        std = spectral_amplitudes(g, KernelSpec(kind="riesz", alpha=1.0, dim=2))
        spectra = np.empty((3, g.n, g.n // 2 + 1), dtype=complex)
        for r, spectrum in enumerate(spectra):
            _draw_spectrum(g, std, RngStream(8, r, 3).generator(), spectrum)
        stacked = _fields(g, spectra)
        assert stacked.shape == (3,) + g.shape
        for row, spectrum in zip(stacked, spectra):
            assert np.array_equal(row, _fields(g, spectrum[None])[0])

    def test_renormalized_alpha_up_approaches_white(self):
        # deterministic spectral statement: the lag-(4h) correlation of the
        # field with amplitude (1-alpha)/2 shrinks as alpha -> 1
        g = grid1d(n=1024)
        cors = []
        for alpha in (0.5, 0.8, 0.95):
            k = KernelSpec(kind="riesz", alpha=alpha, amplitude=(1 - alpha) / 2)
            m = spectral_amplitudes(g, k) ** 2
            kk = np.fft.fftfreq(g.n, d=1.0 / g.n)
            cov4 = float(np.sum(m * np.cos(2 * np.pi * kk * 4 / g.n)))
            cors.append(cov4 / float(np.sum(m)))
        assert cors[0] > cors[1] > cors[2] > 0


class TestEmpiricalCovariance:
    """Monte Carlo covariance estimates through ``covariance_check``."""

    def test_white_off_lag_zero(self):
        g = grid1d(n=2048)
        k = KernelSpec(kind="white")
        row = covariance_check(g, k, [3 * g.h], replicas=50, master_seed=8)[0]
        assert row.theory == 0.0
        assert abs(row.estimate) <= 3.0 * row.stderr

    def test_riesz_lag_zero_rejected(self):
        g = grid1d(n=128)
        k = KernelSpec(kind="riesz", alpha=0.5)
        with pytest.raises(SingularKernelError):
            covariance_check(g, k, [0.0], replicas=2, master_seed=9)

    def test_requires_two_fields(self):
        g = grid1d(n=128)
        k = KernelSpec(kind="riesz", alpha=0.5)
        with pytest.raises(InsufficientDataError):
            covariance_check(g, k, [4 * g.h], replicas=1, master_seed=1)

    def test_mismatched_grids_rejected(self):
        k = KernelSpec(kind="riesz", alpha=0.5)
        std = spectral_amplitudes(grid1d(n=128), k) * np.sqrt(0.001)
        with pytest.raises(InputError):
            synthesize(grid1d(n=256), std, RngStream(1).generator())

    def test_unresolvable_lag_rejected(self):
        g = grid1d(n=128)
        k = KernelSpec(kind="riesz", alpha=0.5)
        with pytest.raises(InputError):
            covariance_check(g, k, [g.h * 0.37], replicas=2, master_seed=1)

    def test_riesz_covariance_smoke(self):
        # small-scale version of the acceptance contract
        g = grid1d(n=512)
        k = KernelSpec(kind="riesz", alpha=0.5)
        rows = covariance_check(g, k, [8 * g.h], replicas=300, steps_per_replica=8, master_seed=77)
        row = rows[0]
        assert row.estimate == pytest.approx(row.theory, rel=0.10)

    def test_stationarity_shift_split(self):
        # covariance from even anchors vs odd anchors agrees within noise
        g = grid1d(n=2048)
        k = KernelSpec(kind="riesz", alpha=0.5)
        gi = 8
        evens, odds = [], []
        for r in range(60):
            v = draw(g, k, 1.0, RngStream(10, r))
            prod = v * np.roll(v, gi)
            evens.append(np.mean(prod[0::2]))
            odds.append(np.mean(prod[1::2]))
        evens, odds = np.array(evens), np.array(odds)
        diff = evens - odds
        z = np.mean(diff) / (np.std(diff, ddof=1) / np.sqrt(len(diff)))
        assert abs(z) <= 3.5


class TestPowerSpectrumEstimator:
    """The Wiener-Khinchin estimators equal the per-lag roll estimator."""

    CASES = {
        "riesz-1d": (1, 256, KernelSpec(kind="riesz", alpha=0.5), (1, 4, 37, 128)),
        "white-1d": (1, 128, KernelSpec(kind="white"), (0, 3, 64)),
        "riesz-plus-constant-1d": (
            1, 128, KernelSpec(kind="riesz-plus-constant", alpha=0.7, amplitude=2.0), (2, 9, 64),
        ),
        "riesz-2d": (2, 32, KernelSpec(kind="riesz", alpha=1.0, dim=2), (1, 5, 16)),
    }

    @staticmethod
    def roll_estimate(per_replica):
        per_replica = np.array(per_replica)
        se = np.std(per_replica, axis=0, ddof=1) / np.sqrt(len(per_replica))
        return np.mean(per_replica, axis=0), se

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_covariance_check_equals_roll(self, case):
        dim, n, k, cells = self.CASES[case]
        g = GridSpec(dim=dim, n=n, l=1.0, t_end=1.0)
        replicas, steps, seed = 5, 3, 41
        amps = spectral_amplitudes(g, k) * np.sqrt(g.dt)
        per_replica = []
        for r in range(replicas):
            fields = [synthesize(g, amps, RngStream(seed, r, m).generator()) for m in range(steps)]
            per_replica.append(
                [np.mean([np.mean(x * np.roll(x, c, axis=0)) for x in fields]) for c in cells]
            )
        est, se = self.roll_estimate(per_replica)
        rows = covariance_check(
            g, k, [c * g.h for c in cells], replicas=replicas,
            steps_per_replica=steps, master_seed=seed,
        )
        np.testing.assert_allclose([r.estimate for r in rows], est, rtol=1e-12)
        np.testing.assert_allclose([r.stderr for r in rows], se, rtol=1e-12)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_step_covariance_equals_roll(self, case):
        dim, n, k, cells = self.CASES[case]
        g = GridSpec(dim=dim, n=n, l=1.0, t_end=1.0)
        fields = [draw(g, k, g.dt, RngStream(42, r)) for r in range(6)]
        est, se = self.roll_estimate(
            [[np.mean(x * np.roll(x, c, axis=0)) for c in cells] for x in fields]
        )
        rows = covariance_check(g, k, [c * g.h for c in cells], replicas=6, master_seed=42)
        np.testing.assert_allclose([r.estimate for r in rows], est, rtol=1e-12)
        np.testing.assert_allclose([r.stderr for r in rows], se, rtol=1e-12)

    def test_white_off_lag_theory_is_zero(self):
        g = grid1d(n=128)
        rows = covariance_check(g, KernelSpec(kind="white"), [0.0, 3 * g.h], replicas=2)
        assert rows[0].theory == pytest.approx(g.dt / g.h) and rows[1].theory == 0.0

    def test_synthesize_bits_unchanged(self):
        # 1-D values recorded before the coefficient draw was factored out;
        # 2-D values recorded from the half-spectrum draw inverted with irfft2
        g1 = GridSpec(dim=1, n=8, l=1.0, t_end=1.0)
        a1 = spectral_amplitudes(g1, KernelSpec(kind="riesz", alpha=0.5))
        x1 = synthesize(g1, a1, RngStream(2024, 3, 7).generator())
        assert np.array_equal(x1, [
            2.426267403812677, 0.5645373687273221, 1.2554487036429296, -1.5117176584141307,
            0.15288538379377048, 4.963642092665246, -1.1396888488010362, 0.2049248868235023,
        ])
        g2 = GridSpec(dim=2, n=4, l=1.0, t_end=1.0)
        a2 = spectral_amplitudes(g2, KernelSpec(kind="riesz", alpha=1.0, dim=2))
        x2 = synthesize(g2, a2, RngStream(2024, 3, 7).generator())
        assert np.array_equal(x2, [
            [1.3548236983208382, 5.097778516123281, 3.818066196978161, 0.027509953576380752],
            [3.3682688574764477, 3.5973240908293445, -3.001840525371046, -0.14447516097138213],
            [1.118346917225845, -2.6498065591203934, 3.6989293901083937, -2.8265528860712656],
            [-0.14097214209940234, 1.3915520058884983, 0.4450659945332871, 0.3317852127589924],
        ])


class TestFieldDump:
    def test_round_trip_bits(self, tmp_path):
        g = grid1d(n=128, l=2.5)
        k = KernelSpec(kind="riesz-plus-constant", alpha=0.7)
        f = noise_field(g, k, 0.003, RngStream(12, 5, 9))
        path = tmp_path / "field.bin"
        write_field(f, path)
        back = read_field(path)
        assert np.array_equal(back.values, f.values)
        assert back.grid.n == 128 and back.grid.dim == 1
        assert back.grid.l == pytest.approx(2.5)
        assert back.dt == pytest.approx(0.003)
        assert back.kernel.kind == "riesz-plus-constant"
        assert back.kernel.alpha == pytest.approx(0.7)
        assert (back.stream.master_seed, back.stream.replica_id, back.stream.step_index) == (12, 5, 9)

    def test_header_is_little_endian_with_magic(self, tmp_path):
        g = grid1d(n=64)
        k = KernelSpec(kind="white")
        f = noise_field(g, k, 0.001, RngStream(1))
        path = tmp_path / "field.bin"
        write_field(f, path)
        raw = path.read_bytes()
        assert raw[:7] == b"SPDENZ1"
        assert int.from_bytes(raw[7:11], "little") == 1  # dim
        assert int.from_bytes(raw[11:15], "little") == 64  # n
        assert len(raw) == 67 + 64 * 8

    def test_corrupt_files_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"NOTMAGIC" + b"\0" * 100)
        with pytest.raises(InputError):
            read_field(p)
        p2 = tmp_path / "short.bin"
        p2.write_bytes(b"SPDENZ1")
        with pytest.raises(InputError):
            read_field(p2)

    def test_unreadable_path_is_input_error(self, tmp_path):
        for path in (tmp_path / "missing.bin", tmp_path):
            with pytest.raises(InputError):
                read_field(path)

    def test_2d_round_trip(self, tmp_path):
        g = GridSpec(dim=2, n=32, l=1.0, t_end=1.0)
        k = KernelSpec(kind="riesz", alpha=1.0, dim=2)
        f = noise_field(g, k, 0.01, RngStream(3))
        path = tmp_path / "f2.bin"
        write_field(f, path)
        back = read_field(path)
        assert np.array_equal(back.values, f.values)
        assert back.values.shape == (32, 32)


class TestCovariance2D:
    def test_riesz_2d_short_lag(self):
        # spot check: 2-D synthesis reproduces the kernel at a small lag
        g = GridSpec(dim=2, n=128, l=1.0, t_end=1.0)
        k = KernelSpec(kind="riesz", alpha=1.0, dim=2)
        acc = []
        for r in range(150):
            v = draw(g, k, 1.0, RngStream(21, r))
            acc.append(np.mean(v * np.roll(v, 6, axis=0)))
        est = float(np.mean(acc))
        theory = (6 * g.h) ** -1.0
        assert est == pytest.approx(theory, rel=0.15)
