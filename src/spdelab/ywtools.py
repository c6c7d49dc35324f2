"""Constructive Yamada-Watanabe machinery for non-Lipschitz uniqueness proofs.

Given a strictly increasing modulus ``rho`` on (0, 1] whose inverse square is
non-integrable at 0+, the classical construction produces

* a strictly decreasing sequence ``a_0 = 1 > a_1 > a_2 > ... -> 0`` with
  ``int_{a_n}^{a_{n-1}} rho(x)^-2 dx = n``,
* smooth bumps ``psi_n`` supported in ``(a_n, a_{n-1})`` with unit integral
  and ``0 <= psi_n(x) <= 2 rho(x)^-2 / n``,
* smoothed absolute values ``phi_n(x) = int_0^|x| int_0^y psi_n(z) dz dy``,
  which increase to ``|x|`` uniformly while staying identically zero near 0.

For ``rho(x) = sqrt(x)`` everything is explicit: ``a_n = exp(-n(n+1)/2)``.
The bumps are realized as ``c * rho(x)^-2 * plateau(s(x)/n)`` where
``s(x) = int_{a_n}^x rho^-2`` is the accumulated mass.  In the mass coordinate
``u = s(x)/n`` the bump becomes ``c * n * plateau(u)``, so the normalisation
and the ``2/n`` cap reduce to one number, the plateau's mean value: the cap
holds exactly when the plateau keeps at least half its mass, independent of
``rho``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson, quad
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from .errors import ConstructionError, DomainError, ResolutionError

_REL_TOL = 1e-9


@dataclass(frozen=True)
class RhoSpec:
    """Modulus-of-continuity family rho.

    ``sqrt`` is rho(x) = sqrt(x); ``custom`` interpolates a strictly
    increasing positive table on (0, 1] (monotone cubic).  The construction
    silently uses rho(x) >= sqrt(x); a custom table violating that must set
    ``augmented=True``, which replaces rho by rho + sqrt(x) (this preserves
    the divergence of int rho^-2 at 0+).
    """

    kind: str = "sqrt"
    table_x: tuple = ()
    table_y: tuple = ()
    augmented: bool = False

    def __post_init__(self):
        if self.kind not in ("sqrt", "custom"):
            raise DomainError(f"unknown rho kind {self.kind!r}")
        if self.kind == "custom":
            x = np.asarray(self.table_x, dtype=float)
            y = np.asarray(self.table_y, dtype=float)
            if x.size < 4 or x.size != y.size:
                raise DomainError("custom rho needs matching tables, length >= 4")
            if np.any(x <= 0) or x[-1] > 1.0 or np.any(np.diff(x) <= 0):
                raise DomainError("rho table abscissae must be strictly increasing in (0, 1]")
            if np.any(y <= 0) or np.any(np.diff(y) <= 0):
                raise DomainError("rho table values must be positive and strictly increasing")
            if not self.augmented and np.any(y < np.sqrt(x)):
                raise ConstructionError(
                    "custom rho falls below sqrt(x); the 2/(n x) cap needs "
                    "rho(x) >= sqrt(x) -- set augmented=True"
                )
            warnings.warn(
                "custom rho: divergence of int rho^-2 at 0+ is certified only "
                f"down to the table floor {x[0]:g}",
                stacklevel=2,
            )

    @property
    def floor(self) -> float:
        """Smallest argument at which rho is defined."""
        return 0.0 if self.kind == "sqrt" else float(self.table_x[0])

    def _interp(self):
        # cached monotone interpolant for the custom table
        interp = getattr(self, "_cached_interp", None)
        if interp is None:
            interp = PchipInterpolator(
                np.asarray(self.table_x, dtype=float),
                np.asarray(self.table_y, dtype=float),
                extrapolate=False,
            )
            object.__setattr__(self, "_cached_interp", interp)
        return interp

    def rho(self, x):
        """Evaluate rho (with the sqrt augmentation when flagged)."""
        x = np.asarray(x, dtype=float)
        if np.any(x <= self.floor if self.kind == "custom" else x < 0):
            raise DomainError("rho evaluated below its domain")
        if self.kind == "sqrt":
            base = np.sqrt(x)
        else:
            base = self._interp()(np.minimum(x, self.table_x[-1]))
        if self.augmented:
            return base + np.sqrt(x)
        return base

    def inv_sq(self, x):
        """rho(x)^-2, the integrand whose divergence at 0+ drives the construction."""
        r = self.rho(x)
        return 1.0 / (r * r)


def _mass_between(rho: RhoSpec, lo: float, hi: float, force_quad: bool = False) -> float:
    """int_lo^hi rho^-2 computed in log coordinates (robust near 0)."""
    if not 0 < lo < hi:
        raise DomainError("need 0 < lo < hi")
    if rho.kind == "sqrt" and not rho.augmented and not force_quad:
        return float(np.log(hi / lo))
    val, _ = quad(
        lambda s: float(rho.inv_sq(np.exp(s))) * np.exp(s),
        np.log(lo),
        np.log(hi),
        limit=200,
        epsabs=1e-14,
        epsrel=1e-13,
    )
    return float(val)


def a_sequence(n: int, rho: RhoSpec, method: str = "auto") -> float:
    """The n-th endpoint ``a_n`` of the partition of (0, 1].

    Defined by ``a_0 = 1`` and ``int_{a_k}^{a_{k-1}} rho^-2 = k``.  For the
    sqrt modulus the closed form ``exp(-n(n+1)/2)`` is returned; ``method=
    'solve'`` forces the numeric root-solve path (used to cross-check the
    closed form).
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    if n == 0:
        return 1.0
    closed_ok = rho.kind == "sqrt" and not rho.augmented
    if method not in ("auto", "closed-form", "solve"):
        raise DomainError(f"unknown method {method!r}")
    if method == "closed-form" and not closed_ok:
        raise DomainError("closed form is only available for the plain sqrt modulus")
    if closed_ok and method != "solve":
        return float(np.exp(-n * (n + 1) / 2.0))

    force_quad = method == "solve"
    a_prev = 1.0
    for k in range(1, n + 1):
        la_hi = np.log(a_prev)
        la_lo = np.log(rho.floor) if rho.floor > 0 else la_hi - (k + 50.0)
        total = _mass_between(rho, float(np.exp(la_lo)), a_prev, force_quad)
        if total < k:
            raise ResolutionError(
                f"rho table floor reached: only {total:.3g} of the required "
                f"mass {k} is available below a_{k - 1} = {a_prev:.3g}"
            )
        g = lambda la: _mass_between(rho, float(np.exp(la)), a_prev, force_quad) - k
        la = brentq(g, la_lo, la_hi - 1e-15, xtol=1e-14, rtol=8.9e-16)
        a_prev = float(np.exp(la))
    return a_prev


def _smoothstep(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    fa = np.exp(-1.0 / tm)
    fb = np.exp(-1.0 / (1.0 - tm))
    out[mid] = fa / (fa + fb)
    return out


def _plateau(u, ramp: float):
    """Smooth bump on [0, 1]: ramps of width ``ramp`` around a unit plateau."""
    u = np.asarray(u, dtype=float)
    return _smoothstep(u / ramp) * _smoothstep((1.0 - u) / ramp)


@dataclass(eq=False)
class YWFamily:
    """One index of the construction: (a_{n-1}, a_n, psi_n, phi_n)."""

    n: int
    rho: RhoSpec
    a_prev: float
    a_n: float
    ramp: float
    # internals filled by build_family
    _plateau_mean: float = 1.0
    _bump_cdf: object = None
    _mass_of_x: object = None
    _phi_interp: object = None
    _phi_at_aprev: float = 0.0

    @staticmethod
    def _as_array(x):
        x = np.asarray(x, dtype=float)
        return np.atleast_1d(x), x.ndim == 0

    @staticmethod
    def _unwrap(out, scalar):
        return float(out[0]) if scalar else out

    def _mass_fraction(self, x):
        """s(x)/n clipped to [0, 1]: fraction of the rho^-2 mass accumulated."""
        out = np.zeros_like(x)
        out[x >= self.a_prev] = 1.0
        mid = (x > self.a_n) & (x < self.a_prev)
        if np.any(mid):
            out[mid] = np.clip(self._mass_of_x(np.log(x[mid])) / self.n, 0.0, 1.0)
        return out

    def psi(self, x):
        """The bump psi_n; zero outside (a_n, a_{n-1})."""
        x, scalar = self._as_array(x)
        out = np.zeros_like(x)
        mid = (x > self.a_n) & (x < self.a_prev)
        if np.any(mid):
            xm = x[mid]
            c = 1.0 / (self.n * self._plateau_mean)
            out[mid] = c * self.rho.inv_sq(xm) * _plateau(self._mass_fraction(xm), self.ramp)
        return self._unwrap(out, scalar)

    def psi_antiderivative(self, x):
        """int_0^x psi_n, evaluated exactly in the mass coordinate."""
        x, scalar = self._as_array(x)
        out = np.zeros_like(x)
        out[x >= self.a_prev] = 1.0
        mid = (x > self.a_n) & (x < self.a_prev)
        if np.any(mid):
            out[mid] = self._bump_cdf(self._mass_fraction(x[mid])) / self._plateau_mean
        return self._unwrap(out, scalar)

    def phi(self, x):
        """Smoothed absolute value phi_n: zero near 0, slope-1 beyond a_{n-1}."""
        x, scalar = self._as_array(x)
        x = np.abs(x)
        out = np.zeros_like(x)
        high = x >= self.a_prev
        out[high] = self._phi_at_aprev + (x[high] - self.a_prev)
        mid = (x > self.a_n) & (x < self.a_prev)
        if np.any(mid):
            out[mid] = np.maximum(self._phi_interp(np.log(x[mid])), 0.0)
        return self._unwrap(out, scalar)

    def phi_prime(self, x):
        x, scalar = self._as_array(x)
        out = np.sign(x) * self.psi_antiderivative(np.abs(x))
        return self._unwrap(np.atleast_1d(out), scalar)

    def phi_second(self, x):
        x, scalar = self._as_array(x)
        out = self.psi(np.abs(x))
        return self._unwrap(np.atleast_1d(out), scalar)

    def uplift(self, x):
        """|x| - phi_n(x); bounded by a_{n-1} and nonincreasing in n."""
        x, scalar = self._as_array(x)
        out = np.abs(x) - self.phi(x)
        return self._unwrap(np.atleast_1d(out), scalar)


def build_family(n: int, rho: RhoSpec, grid_points: int = 8193) -> YWFamily:
    """Construct the index-n family and verify every constraint it must obey.

    The bump is ``c rho^-2(x) plateau(s(x)/n)`` with ``c`` normalising the
    integral to 1.  In mass coordinates the cap ``psi_n <= 2 rho^-2 / n``
    reads ``plateau_max / mean(plateau) <= 2``; if a ramp choice violates it
    numerically the plateau is widened until it passes.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    a_prev = a_sequence(n - 1, rho)
    a_n = a_sequence(n, rho)

    # accumulated-mass coordinate s(x) on [a_n, a_prev] (log abscissae)
    ls = np.linspace(np.log(a_n), np.log(a_prev), grid_points)
    if rho.kind == "sqrt" and not rho.augmented:
        mass = ls - ls[0]
    else:
        integrand = rho.inv_sq(np.exp(ls)) * np.exp(ls)
        mass = cumulative_simpson(integrand, x=ls, initial=0.0)
    total = float(mass[-1])
    if abs(total - n) > 1e-6 * n:
        raise ConstructionError(
            f"accumulated rho^-2 mass on (a_{n}, a_{n - 1}) is {total:.9g}, not {n}"
        )
    mass = mass * (n / total)  # absorb residual quadrature error
    mass_of_x = PchipInterpolator(ls, mass, extrapolate=False)

    for ramp in (0.25, 0.15, 0.08, 0.04):
        ug = np.linspace(0.0, 1.0, 4097)
        pg = _plateau(ug, ramp)
        cdf = cumulative_simpson(pg, x=ug, initial=0.0)
        mean = float(cdf[-1])
        # cap in mass coordinates: psi * n * rho^2 / 2 = plateau/(2 mean) <= 1
        if 1.0 / (2.0 * mean) <= 1.0 + _REL_TOL:
            break
    else:
        raise ConstructionError(
            "could not satisfy psi_n <= 2 rho^-2 / n: plateau mean stayed below 1/2"
        )
    bump_cdf = PchipInterpolator(ug, cdf / 1.0, extrapolate=False)

    fam = YWFamily(
        n=n,
        rho=rho,
        a_prev=a_prev,
        a_n=a_n,
        ramp=ramp,
        _plateau_mean=mean,
        _bump_cdf=bump_cdf,
        _mass_of_x=mass_of_x,
    )

    # phi on (a_n, a_prev): cumulative integral of the antiderivative of psi
    xs = np.exp(ls)
    Psi = fam.psi_antiderivative(xs)
    phi_vals = cumulative_simpson(Psi, x=xs, initial=0.0)
    fam._phi_interp = PchipInterpolator(ls, phi_vals, extrapolate=False)
    fam._phi_at_aprev = float(phi_vals[-1])
    return fam


def delta_approx_check(family: YWFamily, h) -> float:
    """``int phi_n''(x) h(x) dx`` over the whole line, by quadrature.

    Since ``phi_n'' = psi_n(|x|)`` carries unit mass on each side of 0, the
    value tends to ``2 h(0)`` as n grows (for h continuous at 0).
    """
    lo, hi = family.a_n, family.a_prev
    val, _ = quad(
        lambda s: float(family.psi(np.exp(s))) * np.exp(s) * (h(np.exp(s)) + h(-np.exp(s))),
        np.log(lo),
        np.log(hi),
        limit=400,
    )
    return float(val)


@dataclass(frozen=True)
class CalcBoundReport:
    lhs_sup: float
    rhs: float
    passed: bool


def calculus_bound_check(values, spacing, tol: float | None = None) -> CalcBoundReport:
    """Check ``sup (d_i f)^2 / f <= 2 max_i sup |d_i^2 f|`` on a grid function.

    ``values`` is a nonnegative compactly supported grid function (1-D or
    2-D), ``spacing`` the uniform grid step.  Derivatives are central finite
    differences on interior points; the supremum on the left ignores points
    with ``f <= tol`` (default ``1e-6 * max f``) where the quotient is
    numerically meaningless.
    """
    f = np.asarray(values, dtype=float)
    if np.any(f < 0):
        raise DomainError("calculus bound requires a nonnegative function")
    if f.ndim not in (1, 2):
        raise DomainError("only 1-D and 2-D grid functions are supported")
    fmax = float(np.max(f))
    if fmax == 0.0:
        return CalcBoundReport(0.0, 0.0, True)
    if tol is None:
        tol = 1e-6 * fmax

    lhs_sup = 0.0
    rhs = 0.0
    for axis in range(f.ndim):
        fw = np.moveaxis(f, axis, 0)
        grad = (fw[2:] - fw[:-2]) / (2.0 * spacing)
        second = (fw[2:] - 2.0 * fw[1:-1] + fw[:-2]) / spacing**2
        center = fw[1:-1]
        mask = center > tol
        if np.any(mask):
            lhs_sup = max(lhs_sup, float(np.max(grad[mask] ** 2 / center[mask])))
        rhs = max(rhs, 2.0 * float(np.max(np.abs(second))))
    return CalcBoundReport(lhs_sup, rhs, lhs_sup <= rhs * (1.0 + 1e-3))
