"""The modulus/bump/smoothed-absolute-value construction and its constraints."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from spdelab.errors import ConstructionError, DomainError, ResolutionError
from spdelab.ywtools import (
    RhoSpec,
    a_sequence,
    build_family,
    delta_approx_check,
)

SQRT = RhoSpec(kind="sqrt")


def closed_form(n):
    return float(np.exp(-n * (n + 1) / 2.0))


class TestASequence:
    def test_a0_is_one(self):
        assert a_sequence(0, SQRT) == 1.0

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_closed_form_values(self, n):
        assert a_sequence(n, SQRT) == pytest.approx(closed_form(n), rel=1e-15)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_solve_path_matches_closed_form(self, n):
        solved = a_sequence(n, SQRT, method="solve")
        assert abs(solved - closed_form(n)) <= 1e-12

    def test_mass_residual(self):
        # |int_{a_n}^{a_{n-1}} dx/x - n| tiny for n <= 8
        for n in range(1, 9):
            a_hi = a_sequence(n - 1, SQRT)
            a_lo = a_sequence(n, SQRT)
            assert abs(np.log(a_hi / a_lo) - n) <= 1e-10

    def test_negative_n_rejected(self):
        with pytest.raises(DomainError):
            a_sequence(-1, SQRT)

    def test_rapid_decay(self):
        for n in range(1, 9):
            assert a_sequence(n, SQRT) / n <= closed_form(n)


def _custom_rho(floor=1e-8, power=0.6, points=64):
    x = np.geomspace(floor, 1.0, points)
    return RhoSpec(kind="custom", table_x=tuple(x), table_y=tuple(x**power), augmented=True)


class TestCustomRho:
    def test_below_sqrt_requires_augmentation(self):
        x = np.geomspace(1e-6, 1.0, 32)
        with pytest.raises(ConstructionError):
            RhoSpec(kind="custom", table_x=tuple(x), table_y=tuple(x**0.6), augmented=False)

    def test_augmented_rho_adds_sqrt(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rho = _custom_rho()
        # table is interpolated, so the power law only holds to interpolation accuracy
        assert rho.rho(0.25) == pytest.approx(0.25**0.6 + 0.5, rel=1e-4)

    def test_floor_exhaustion(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rho = _custom_rho(floor=1e-8)
        # integral of rho^-2 from the floor is finite: deep n must fail loudly
        a1 = a_sequence(1, rho)
        assert 0 < a1 < 1
        with pytest.raises(ResolutionError):
            a_sequence(4, rho)

    def test_nonmonotone_table_rejected(self):
        with pytest.raises(DomainError):
            RhoSpec(kind="custom", table_x=(0.1, 0.2, 0.15, 1.0), table_y=(0.1, 0.2, 0.3, 1.0))

    def test_family_constraints_hold_for_custom(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rho = _custom_rho(floor=1e-10)
        fam = build_family(1, rho)
        xs = np.geomspace(fam.a_n, fam.a_prev, 2001)
        cap = fam.psi(xs) * fam.n * rho.rho(xs) ** 2 / 2.0
        assert np.max(cap) <= 1.0 + 1e-9
        mass, _ = quad(
            lambda s: fam.psi(np.exp(s)) * np.exp(s),
            np.log(fam.a_n),
            np.log(fam.a_prev),
            limit=400,
        )
        assert mass == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        scale=st.floats(1.1, 4.0),
        power=st.floats(0.5, 0.95),
    )
    def test_hypothesis_tables_above_sqrt_build(self, scale, power):
        x = np.geomspace(1e-9, 1.0, 48)
        y = scale * x**power
        if np.any(y < np.sqrt(x)):
            return  # only the rho >= sqrt(x) branch without augmentation
        rho = RhoSpec(kind="custom", table_x=tuple(x), table_y=tuple(y))
        a1 = a_sequence(1, rho)
        assert 0 < a1 < 1
        fam = build_family(1, rho)
        xs = np.geomspace(fam.a_n * 1.0001, fam.a_prev * 0.9999, 257)
        assert np.all(fam.psi(xs) <= 2.0 * rho.inv_sq(xs) / fam.n * (1 + 1e-9))


class TestFamilyConstraints:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_psicond_chain(self, n):
        fam = build_family(n, SQRT)
        xs = np.geomspace(fam.a_n, fam.a_prev, 4001)
        psi = fam.psi(xs)
        assert np.all(psi >= 0)
        # psi <= 2 rho^-2 / n <= 2/(n x)
        assert np.all(psi <= 2.0 / (n * xs) * (1 + 1e-9))
        assert np.max(psi * n * xs / 2.0) <= 1.0 + 1e-9

    @pytest.mark.parametrize("n", range(1, 9))
    def test_support_and_mass(self, n):
        fam = build_family(n, SQRT)
        outside = np.array([fam.a_n * 0.999, fam.a_prev * 1.001, fam.a_n / 2, 2 * fam.a_prev])
        assert np.all(fam.psi(outside) == 0.0)
        mass, _ = quad(
            lambda s: fam.psi(np.exp(s)) * np.exp(s),
            np.log(fam.a_n),
            np.log(fam.a_prev),
            limit=400,
        )
        assert abs(mass - 1.0) <= 1e-6

    def test_phi_zero_near_origin(self):
        fam = build_family(3, SQRT)
        xs = np.linspace(-fam.a_n, fam.a_n, 21)
        assert np.all(fam.phi(xs) == 0.0)
        assert fam.phi_prime(0.0) == 0.0

    def test_phi_prime_bounded_by_one(self):
        fam = build_family(4, SQRT)
        xs = np.concatenate([np.linspace(-2, 2, 1001), np.geomspace(fam.a_n, 1.0, 500)])
        assert np.all(np.abs(fam.phi_prime(xs)) <= 1.0 + 1e-12)

    def test_phi_second_is_psi(self):
        fam = build_family(3, SQRT)
        xs = np.geomspace(fam.a_n * 1.01, fam.a_prev * 0.99, 101)
        assert np.allclose(fam.phi_second(-xs), fam.psi(xs), rtol=1e-12)

    def test_uplift_bounded_and_monotone(self):
        xs = np.linspace(0.0, 2.0, 801)
        prev = None
        for n in range(2, 7):
            fam = build_family(n, SQRT)
            up = fam.uplift(xs)
            assert np.max(up) <= fam.a_prev * (1 + 1e-9)
            assert np.min(up) >= -1e-12
            if prev is not None:
                assert np.all(up <= prev + 1e-12)
            prev = up

    def test_phi_convexity(self):
        fam = build_family(2, SQRT)
        for grid in (
            np.linspace(0.0, 1.5, 4001),
            np.linspace(fam.a_n / 2, 2 * fam.a_prev, 4001),
        ):
            second = np.diff(fam.phi(grid), 2)
            assert np.min(second) >= -1e-9

    def test_phi_prime_consistent_with_numeric_derivative(self):
        fam = build_family(3, SQRT)
        xs = np.geomspace(fam.a_n * 1.1, fam.a_prev * 0.9, 101)
        eps = xs * 1e-6
        numeric = (fam.phi(xs + eps) - fam.phi(xs - eps)) / (2 * eps)
        assert np.max(np.abs(numeric - fam.phi_prime(xs))) <= 1e-5

    def test_build_rejects_bad_n(self):
        with pytest.raises(DomainError):
            build_family(0, SQRT)


class TestDeltaApprox:
    def test_constant_doubles(self):
        for n in (1, 3, 5):
            fam = build_family(n, SQRT)
            assert delta_approx_check(fam, lambda x: 1.0) == pytest.approx(2.0, abs=1e-6)

    def test_odd_function_vanishes(self):
        fam = build_family(3, SQRT)
        assert abs(delta_approx_check(fam, lambda x: x)) <= 1e-9

    def test_cosine_converges_to_twice_value_at_zero(self):
        errs = []
        for n in range(2, 9):
            fam = build_family(n, SQRT)
            errs.append(abs(delta_approx_check(fam, np.cos) - 2.0))
        # |result - 2 h(0)| decreases (down to quadrature noise)
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-9
        assert errs[0] > 1e-3 > errs[-1]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n=st.integers(1, 6), x=st.floats(1e-6, 3.0))
def test_phi_below_abs_hypothesis(n, x):
    fam = build_family(n, SQRT)
    val = fam.phi(x)
    assert -1e-12 <= val <= x + 1e-12
