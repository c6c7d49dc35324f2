"""Quadrature oracles: identities, inequalities, scaling exponents."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from spdelab._fit import fit_loglog
from spdelab.errors import DomainError, OracleError
from spdelab.kernels import negative_moment_constant
from spdelab.oracles import (
    FROZEN_CONSTANTS,
    gaussian_riesz_moment,
    heat_difference_l1,
    space_difference_riesz,
    time_difference_riesz,
    triple_time_integral,
    verify_correst,
    verify_factorization,
    verify_jest,
    verify_pdiffest,
)


class TestFactorization:
    def test_half_is_pi(self):
        assert verify_factorization(0.5, 1.0, 0.0) <= 1e-8

    def test_value_at_a_03(self):
        # quadrature-derived value, frozen: pi / sin(0.3 pi) = 3.8832220774509327
        from scipy.integrate import quad

        val, _ = quad(lambda r: 1.0, 0.0, 1.0, weight="alg", wvar=(-0.3, 0.3 - 1.0))
        assert val == pytest.approx(3.8832220774509327, abs=1e-8)
        assert verify_factorization(0.3, 1.0, 0.0) <= 1e-8

    @pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
    def test_residuals(self, a):
        assert verify_factorization(a, 1.0, 0.0) <= 1e-8

    def test_window_independence(self):
        from scipy.integrate import quad

        v1, _ = quad(lambda r: 1.0, 0.0, 1.0, weight="alg", wvar=(-0.3, -0.7))
        v2, _ = quad(lambda r: 1.0, 2.5, 7.5, weight="alg", wvar=(-0.3, -0.7))
        assert abs(v1 - v2) <= 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            verify_factorization(1.2, 1.0, 0.0)
        with pytest.raises(DomainError):
            verify_factorization(0.5, 0.0, 1.0)


class TestCorrest:
    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("tp", [0.25, 1.0])
    def test_equality_chain_at_coincident_points(self, t, tp):
        case = verify_correst(t, tp, 0.3, 0.3, 0.5)
        # lhs = centered moment = closed form, all to relative 1e-6
        assert case.lhs == pytest.approx(case.rhs, rel=1e-6)
        assert case.lhs == pytest.approx(case.extra["gauss_moment"], rel=1e-6)
        closed = negative_moment_constant(0.5, 1) * (t + tp) ** -0.25
        assert case.rhs == pytest.approx(closed, rel=1e-12)
        assert case.passed

    def test_small_alpha_is_near_one(self):
        case = verify_correst(0.5, 0.7, 0.2, -0.1, 1e-3)
        assert case.lhs == pytest.approx(1.0, abs=0.01)

    def test_randomized_inequality_sweep(self):
        rng = np.random.Generator(np.random.Philox(key=2718))
        for _ in range(50):
            t, tp = rng.uniform(0.1, 1.5, size=2)
            x, y = rng.uniform(-1.0, 1.0, size=2)
            case = verify_correst(float(t), float(tp), float(x), float(y), 0.5)
            assert case.passed  # lhs <= centered moment (1 + 1e-6)
            if abs(x - y) > 0.1:
                assert case.lhs < case.rhs

    def test_translation_invariance(self):
        a = verify_correst(0.4, 0.6, 0.1, -0.2, 0.5)
        b = verify_correst(0.4, 0.6, 0.1 + 5.0, -0.2 + 5.0, 0.5)
        assert a.lhs == pytest.approx(b.lhs, rel=1e-6)

    def test_dim2_spot_check(self):
        case = verify_correst(0.5, 0.8, 0.0, 0.0, 1.0, dim=2)
        assert case.lhs == pytest.approx(case.rhs, rel=1e-6)
        off = gaussian_riesz_moment(0.7, 1.3, 1.0, dim=2)
        assert off < case.rhs

    def test_domain(self):
        with pytest.raises(DomainError):
            verify_correst(0.0, 1.0, 0.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            verify_correst(1.0, 1.0, 0.0, 0.0, 1.5, dim=1)


class TestPdiffest:
    def test_identical_kernels_zero(self):
        assert heat_difference_l1(0.5, 0.5, 0.3, 0.3) <= 1e-12

    def test_spatial_ratio_bounded_sweep(self):
        rng = np.random.Generator(np.random.Philox(key=31337))
        for _ in range(30):
            t = float(rng.uniform(0.05, 1.0))
            x, y = rng.uniform(-1.0, 1.0, size=2)
            case = verify_pdiffest(t, t, float(x), float(y), beta=1.0)
            assert case.passed
            # rhs shape at lam = 0 carries the (e^0 + e^0) = 2 weight factor
            if x != y:
                assert case.lhs / (2.0 * t**-0.5 * abs(x - y)) <= FROZEN_CONSTANTS["pdiffest"]

    def test_time_branch(self):
        for t in (0.1, 0.4):
            case = verify_pdiffest(t, 2 * t, 0.2, 0.2, beta=1.0)
            assert case.passed
            assert case.lhs <= FROZEN_CONSTANTS["pdiffest"] * 2.0 * (t**-0.5 * 0.0 + t**-1.0 * t)

    def test_exponential_weight_finite(self):
        case = verify_pdiffest(0.3, 0.5, 0.1, -0.4, beta=1.0, lam=0.7)
        assert np.isfinite(case.lhs) and case.passed

    def test_beta_below_one(self):
        case = verify_pdiffest(0.3, 0.3, 0.0, 0.5, beta=0.5)
        assert case.passed

    def test_preconditions(self):
        with pytest.raises(DomainError):
            verify_pdiffest(1.0, 0.5, 0.0, 0.0, beta=1.0)  # needs t <= tp
        with pytest.raises(DomainError):
            verify_pdiffest(0.5, 1.0, 0.0, 0.0, beta=1.5)


class TestSpaceTimeDifferences:
    def test_space_zero_at_coincident(self):
        assert space_difference_riesz(0.25, 0.4, 0.4, 0.5) <= 1e-12

    def test_time_zero_at_equal_times(self):
        assert time_difference_riesz(0.25, 0.25, 0.0, 0.5) <= 1e-12

    def test_space_exponent_two(self):
        seps = [2.0**-k for k in range(3, 8)]
        vals = [space_difference_riesz(0.25, 0.0, s, 0.5) for s in seps]
        slope, _ = fit_loglog(seps, vals)
        assert abs(slope - 2.0) <= 0.05

    def test_time_exponent_two(self):
        dts = [2.0**-k for k in range(6, 11)]
        vals = [time_difference_riesz(0.25, 0.25 + d, 0.0, 0.5) for d in dts]
        slope, _ = fit_loglog(dts, vals)
        assert abs(slope - 2.0) <= 0.05


class TestTripleTimeIntegral:
    def test_small_t_exponent(self):
        case = verify_jest([2.0**-k for k in range(2, 8)], a=0.4, b=0.0, c=0.0, alpha=0.5)
        assert case.passed
        assert case.rhs == pytest.approx(0.75)

    def test_near_limit_c(self):
        # c close to its cap: Q stays finite (large), scaling still matches
        case = verify_jest([2.0**-k for k in range(2, 8)], a=0.55, b=0.0, c=0.365, alpha=0.5)
        assert case.passed
        assert all(np.isfinite(q) and q > 0 for q in case.extra["q_values"])

    def test_t_values_are_python_floats(self):
        # numpy scalars would write a numpy-version-dependent repr into oracle_cases.csv
        case = verify_jest(np.array([2.0**-k for k in range(2, 8)]), a=0.4, b=0.0, c=0.0, alpha=0.5)
        assert all(type(t) is float for t in case.params["t_values"])

    def test_nonzero_b(self):
        case = verify_jest([2.0**-k for k in range(2, 8)], a=0.4, b=0.5, c=0.1, alpha=0.5)
        assert case.passed
        assert case.rhs == pytest.approx(0.5 + 1 - 0.25 - 0.2)

    def test_precondition_a_in_c_window(self):
        with pytest.raises(DomainError):
            triple_time_integral(0.5, a=0.1, b=0.0, c=0.2, alpha=0.5)  # a <= c
        with pytest.raises(DomainError):
            triple_time_integral(0.5, a=0.8, b=0.0, c=0.0, alpha=0.5)  # a >= 1 - alpha/2
        with pytest.raises(DomainError):
            triple_time_integral(0.5, a=0.4, b=0.0, c=0.5, alpha=0.5)  # c cap

    def test_scaling_values_decrease_with_t(self):
        qs = [triple_time_integral(t, 0.4, 0.0, 0.0, 0.5) for t in (0.25, 0.125)]
        assert qs[0] > qs[1] > 0


class TestOracleErrorPaths:
    def test_gaussian_moment_domain(self):
        with pytest.raises(DomainError):
            gaussian_riesz_moment(0.0, -1.0, 0.5)
        with pytest.raises(DomainError):
            gaussian_riesz_moment(0.0, 1.0, 1.5, dim=1)

    def test_oracle_error_type_exists(self):
        assert issubclass(OracleError, Exception)


class TestCalibration:
    def test_calibrate_pdiffest_reproduces_the_frozen_constant(self):
        path = Path(__file__).resolve().parents[1] / "scripts" / "calibrate_oracles.py"
        spec = importlib.util.spec_from_file_location("calibrate_oracles", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        worst = script.calibrate_pdiffest()
        assert f"{1.25 * worst:.4g}" == str(FROZEN_CONSTANTS["pdiffest"])
