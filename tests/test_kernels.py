"""Kernel math: closed forms vs quadrature oracles, and the regime classifier."""

import numpy as np
import pytest
from scipy.integrate import quad

from spdelab.errors import DomainError, SingularKernelError
from spdelab.kernels import (
    NO_FUNCTION_SOLUTION,
    OPEN,
    PROVEN_UNIQUE_HOLDER,
    PROVEN_UNIQUE_LIPSCHITZ,
    PROVEN_UNIQUE_YW_BOUNDED,
    KernelSpec,
    RegimeVerdict,
    classify_regime,
    heat_kernel,
    kernel_eval,
    negative_moment_constant,
    riesz_spectral_constant,
    semigroup_multiplier,
    spectral_density,
)
from spdelab.solver import SigmaSpec


class TestHeatKernel:
    def test_value_at_origin(self):
        for t in (0.1, 1.0, 3.0):
            for d in (1, 2):
                x = 0.0 if d == 1 else np.zeros(d)
                assert heat_kernel(t, x, d) == pytest.approx((2 * np.pi * t) ** (-d / 2), rel=1e-14)

    def test_symmetry(self):
        xs = np.linspace(-3, 3, 41)
        assert np.allclose(heat_kernel(0.7, xs), heat_kernel(0.7, -xs), rtol=0, atol=0)

    def test_positive(self):
        assert np.all(heat_kernel(0.5, np.linspace(-20, 20, 101)) > 0)

    @pytest.mark.parametrize("t", [0.1, 0.5, 2.0])
    def test_unit_mass_1d(self, t):
        # trapezoid oracle on [-10 sqrt(t), 10 sqrt(t)]
        L = 10 * np.sqrt(t)
        x = np.linspace(-L, L, 4001)
        mass = np.trapezoid(heat_kernel(t, x), x)
        assert abs(mass - 1.0) <= 1e-8

    def test_unit_mass_2d(self):
        t = 0.5
        L = 10 * np.sqrt(t)
        x = np.linspace(-L, L, 501)
        X, Y = np.meshgrid(x, x, indexing="ij")
        pts = np.stack([X, Y], axis=-1)
        vals = heat_kernel(t, pts, dim=2)
        mass = np.trapezoid(np.trapezoid(vals, x, axis=1), x)
        assert abs(mass - 1.0) <= 1e-8

    def test_rejects_nonpositive_time(self):
        with pytest.raises(DomainError):
            heat_kernel(0.0, 0.0)
        with pytest.raises(DomainError):
            heat_kernel(-1.0, 0.0)

    @pytest.mark.parametrize("t,s", [(0.1, 0.1), (0.1, 0.5), (0.5, 1.0), (1.0, 1.0)])
    def test_chapman_kolmogorov(self, t, s):
        # grid convolution of p_t and p_s matches p_{t+s} in sup norm
        L = 10 * np.sqrt(t + s)
        h = 2 * L / 8192
        x = np.arange(-8192 // 2, 8192 // 2) * h
        conv = np.fft.ifft(np.fft.fft(heat_kernel(t, x)) * np.fft.fft(heat_kernel(s, x))).real
        conv = np.fft.fftshift(conv) * h
        assert np.max(np.abs(conv - heat_kernel(t + s, x))) <= 1e-6


class TestSemigroupMultiplier:
    def test_zero_frequency(self):
        assert semigroup_multiplier(0.0, 5.0) == 1.0

    def test_zero_time(self):
        assert semigroup_multiplier(3.7, 0.0) == 1.0

    def test_semigroup_property(self):
        xi = np.linspace(0, 10, 23)
        lhs = semigroup_multiplier(xi, 0.3) * semigroup_multiplier(xi, 0.45)
        rhs = semigroup_multiplier(xi, 0.75)
        assert np.allclose(lhs, rhs, rtol=1e-13, atol=0)

    def test_fft_of_sampled_kernel_matches(self):
        # discrete transform of sampled p_t vs the closed-form multiplier
        t, L, n = 0.25, 16.0, 2048
        h = L / n
        x = (np.arange(n) - n // 2) * h
        f = heat_kernel(t, x)
        spectrum = np.fft.fft(np.fft.ifftshift(f)).real * h
        xi = np.fft.fftfreq(n, d=h)
        keep = np.abs(xi) <= 8.0  # resolvable, tail above is machine-zero anyway
        assert np.max(np.abs(spectrum[keep] - semigroup_multiplier(xi[keep], t))) <= 1e-6


class TestKernelSpecAndEval:
    def test_riesz_value(self):
        spec = KernelSpec(kind="riesz", alpha=0.5, amplitude=1.0, dim=1)
        assert kernel_eval(spec, 4.0) == pytest.approx(0.5, rel=1e-15)

    def test_bounded_constant(self):
        spec = KernelSpec(kind="bounded-constant", amplitude=2.0)
        for r in (0.0, 0.3, 11.0):
            assert kernel_eval(spec, r) == pytest.approx(2.0)

    def test_riesz_plus_constant_outside_existence_regime_rejected(self):
        spec = KernelSpec(kind="riesz-plus-constant", alpha=1.0, dim=1)
        with pytest.raises(DomainError):
            kernel_eval(spec, 1.0)

    def test_riesz_singular_at_zero(self):
        spec = KernelSpec(kind="riesz", alpha=0.5)
        with pytest.raises(SingularKernelError):
            kernel_eval(spec, 0.0)

    def test_white_is_distributional(self):
        spec = KernelSpec(kind="white")
        with pytest.raises(SingularKernelError):
            kernel_eval(spec, 1.0)

    def test_white_needs_dim_one(self):
        with pytest.raises(DomainError):
            KernelSpec(kind="white", dim=2)

    def test_amplitude_positive(self):
        with pytest.raises(DomainError):
            KernelSpec(kind="riesz", alpha=0.5, amplitude=0.0)

    def test_riesz_plus_constant_value(self):
        spec = KernelSpec(kind="riesz-plus-constant", alpha=0.5, amplitude=2.0)
        assert kernel_eval(spec, 4.0) == pytest.approx(2 * (0.5 + 1.0))


class TestSpectralDensity:
    def test_power_law_exponent_exact(self):
        alpha, d = 0.7, 1
        xi = np.array([0.5, 1.0, 2.0, 4.0])
        vals = spectral_density(xi, alpha, d)
        ratios = vals[1:] / vals[:-1]
        assert np.allclose(ratios, 2.0 ** (alpha - d), rtol=1e-13)

    def test_divergence_at_zero(self):
        assert np.isinf(spectral_density(0.0, 0.5, 1))

    def test_alpha_ge_d_rejected(self):
        with pytest.raises(DomainError):
            spectral_density(1.0, 1.0, 1)

    def test_constant_against_windowed_dft_oracle(self):
        # numeric cosine transform of the truncated Riesz kernel vs the closed
        # form c_R |xi|^(alpha-1), mid-band, within 2%.  The singular head is
        # integrated under the substitution s = x^(1-alpha).
        alpha, d = 0.5, 1
        x1, L = 1.0, 4096.0
        s = np.linspace(0.0, x1 ** (1 - alpha), 20001)
        x_tail = np.arange(x1, L, 1.0 / 2048)
        for xi in (0.5, 1.0, 2.0, 4.0):
            head = np.trapezoid(np.cos(2 * np.pi * xi * s ** (1 / (1 - alpha))), s) / (1 - alpha)
            tail = np.trapezoid(x_tail ** (-alpha) * np.cos(2 * np.pi * xi * x_tail), x_tail)
            numeric = 2.0 * (head + tail)
            closed = spectral_density(xi, alpha, d)
            assert abs(numeric / closed - 1.0) <= 0.02


class TestNegativeMomentConstant:
    def test_limit_alpha_to_zero(self):
        for d in (1, 2, 3):
            assert negative_moment_constant(1e-12, d) == pytest.approx(1.0, abs=1e-9)

    def test_frozen_values(self):
        # derived by quadrature oracle (see test_quadrature_oracle) and frozen
        assert negative_moment_constant(0.5, 1) == pytest.approx(1.7200799746490392, rel=1e-12)
        assert negative_moment_constant(1.0, 2) == pytest.approx(np.sqrt(np.pi / 2), rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("frac", ["0.25", "0.5", "edge"])
    def test_quadrature_oracle(self, d, frac):
        alpha = 0.9 * min(d, 2) if frac == "edge" else float(frac)
        # radial reduction: S_{d-1} (2 pi)^{-d/2} int r^{d-1-alpha} e^{-r^2/2} dr
        surface = {1: 2.0, 2: 2 * np.pi, 3: 4 * np.pi}[d]
        val, _ = quad(
            lambda r: r ** (d - 1 - alpha) * np.exp(-r * r / 2.0),
            0.0,
            40.0,
            epsabs=1e-14,
            epsrel=1e-12,
            limit=200,
        )
        oracle = surface * (2 * np.pi) ** (-d / 2.0) * val
        assert negative_moment_constant(alpha, d) == pytest.approx(oracle, rel=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            negative_moment_constant(1.0, 1)

    def test_riesz_constant_symmetric_dimension_checks(self):
        # c_R(alpha, d) must be positive and finite in the admissible range
        for d in (1, 2, 3):
            for alpha in (0.1, 0.5, 0.9 * min(d, 2)):
                c = riesz_spectral_constant(alpha, d)
                assert np.isfinite(c) and c > 0


def _holder_sigma(gamma):
    return SigmaSpec(kind="holder-power", gamma=gamma, scale=1.0)


class TestClassifyRegime:
    def test_holder_regime(self):
        k = KernelSpec(kind="riesz", alpha=0.5)
        assert classify_regime(k, _holder_sigma(0.8)).verdict == PROVEN_UNIQUE_HOLDER

    def test_boundary_is_open(self):
        k = KernelSpec(kind="riesz", alpha=0.5)
        assert classify_regime(k, _holder_sigma(0.7)).verdict == OPEN
        # exact boundary gamma = (1+alpha)/2 not included
        assert classify_regime(k, _holder_sigma(0.75)).verdict == OPEN

    def test_bounded_kernel_yw(self):
        k = KernelSpec(kind="bounded-constant", amplitude=1.0)
        viot = SigmaSpec(kind="viot")
        assert classify_regime(k, viot).verdict == PROVEN_UNIQUE_YW_BOUNDED

    def test_lipschitz_wins(self):
        k = KernelSpec(kind="riesz", alpha=1.5, dim=2)
        lip = SigmaSpec(kind="lipschitz-linear")
        assert classify_regime(k, lip).verdict == PROVEN_UNIQUE_LIPSCHITZ

    def test_no_function_solution(self):
        k = KernelSpec(kind="riesz", alpha=1.5, dim=1)
        assert classify_regime(k, _holder_sigma(0.9)).verdict == NO_FUNCTION_SOLUTION
        assert classify_regime(k, SigmaSpec(kind="lipschitz-linear")).verdict == NO_FUNCTION_SOLUTION
        k2 = KernelSpec(kind="riesz", alpha=2.5, dim=2)
        assert classify_regime(k2, _holder_sigma(0.9)).verdict == NO_FUNCTION_SOLUTION

    def test_white_kernel(self):
        k = KernelSpec(kind="white")
        assert classify_regime(k, SigmaSpec(kind="lipschitz-linear")).verdict == PROVEN_UNIQUE_LIPSCHITZ
        assert classify_regime(k, SigmaSpec(kind="sqrt-plus")).verdict == OPEN

    def test_citations_nonempty(self):
        k = KernelSpec(kind="riesz", alpha=0.5)
        for gamma in (0.3, 0.8):
            v = classify_regime(k, _holder_sigma(gamma))
            assert v.citation

    def test_verdict_validation(self):
        with pytest.raises(DomainError):
            RegimeVerdict("nonsense", "x")
        with pytest.raises(DomainError):
            RegimeVerdict(OPEN, "")

    def test_exact_grid_enumeration(self):
        # 100x100 grid: proven-unique-holder exactly when gamma > (1+alpha)/2
        alphas = np.linspace(0.005, 0.995, 100)
        gammas = np.linspace(0.01, 1.0, 100)
        mismatches = 0
        for a in alphas:
            k = KernelSpec(kind="riesz", alpha=float(a))
            for g in gammas:
                got = classify_regime(k, _holder_sigma(float(g))).verdict
                want = PROVEN_UNIQUE_HOLDER if g > (1 + a) / 2 else OPEN
                mismatches += got != want
        assert mismatches == 0
