"""Quadrature verification of the Gaussian kernel estimates, independent of the simulator.

Each oracle evaluates the left-hand side of one integral estimate by direct
numerical quadrature and compares it against the closed form or bound it must
obey:

* the Gaussian/Riesz convolution identity: smoothing a Riesz kernel with two
  heat kernels equals a Gaussian negative moment, maximized at coincident
  centers, with the closed-form value ``negative_moment_constant * T^(-alpha/2)``;
* weighted L1 differences of heat kernels at shifted times/positions, with
  their ``t^(-beta/2) |dx|^beta + t^(-beta) |dt|^beta`` envelope;
* squared-difference double integrals against the Riesz kernel, whose
  log-log slope in the spatial (resp. temporal) offset is 2;
* the triple time integral with algebraic endpoint weights whose small-t
  scaling is ``b + 1 - alpha/2 - 2c``;
* the beta-function identity ``int_s^t (t-r)^(a-1) (r-s)^(-a) dr = pi/sin(pi a)``.

Singular factors are removed analytically before numerical panels: power
substitutions for the ``|u|^(-alpha)`` factor, Gauss-Jacobi nodes for the
algebraic endpoint weights, and explicit kink locations for the absolute
values.  The one envelope constant checked here (the weighted L1 heat-kernel
difference) is an artifact of this package: it was fitted once by
``scripts/calibrate_oracles.py``, frozen below, and is never refit at test
time.  Scaling exponents are slopes of the package's one log-log fit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from functools import lru_cache

from scipy.integrate import IntegrationWarning, quad
from scipy.special import roots_jacobi, roots_legendre

from ._fit import fit_loglog
from .errors import DomainError, OracleError
from .kernels import heat_kernel, negative_moment_constant

# Envelope constant, calibrated once (scripts/calibrate_oracles.py) and frozen.
# It is a property of this verification harness, not of any theory: the
# estimate only asserts finiteness, the harness pins a numeric value so the
# check is reproducible and bit-stable.
FROZEN_CONSTANTS = {
    "pdiffest": 0.8439,
}


@dataclass(frozen=True)
class OracleCase:
    """One verified instance: lhs value, rhs bound, their ratio, and a verdict."""

    lemma: str
    params: dict
    lhs: float
    rhs: float
    ratio: float
    passed: bool
    tol: float
    extra: dict = dataclass_field(default_factory=dict)


def _case(lemma, params, lhs, rhs, tol, extra=None) -> OracleCase:
    if not (np.isfinite(lhs) and np.isfinite(rhs)) or lhs < 0 or rhs < 0:
        raise OracleError(
            f"{lemma}: non-finite or negative lhs/rhs", diagnostics={"lhs": lhs, "rhs": rhs}
        )
    ratio = lhs / rhs if rhs > 0 else np.inf
    return OracleCase(
        lemma=lemma,
        params=params,
        lhs=float(lhs),
        rhs=float(rhs),
        ratio=float(ratio),
        passed=bool(lhs <= rhs * (1.0 + tol)),
        tol=tol,
        extra=extra or {},
    )


def _quad(f, lo, hi, *, points=None, limit=200, epsabs=1e-12, epsrel=1e-10, tag=""):
    try:
        with warnings.catch_warnings():
            # roundoff-limited extrapolation still returns the best panel sum;
            # non-finite results are escalated below instead
            warnings.simplefilter("ignore", IntegrationWarning)
            val, err = quad(f, lo, hi, points=points, limit=limit, epsabs=epsabs, epsrel=epsrel)
    except Exception as exc:  # pragma: no cover - quadpack failures carry context
        raise OracleError(f"quadrature failed in {tag}: {exc}") from exc
    if not np.isfinite(val):
        raise OracleError(f"quadrature non-finite in {tag}", diagnostics={"err": err})
    return val


def _singular_integral(g, alpha: float, upper: float, tag: str, epsrel=1e-9) -> float:
    """``int_0^upper u^(-alpha) g(u) du`` via the substitution ``u = s^(1/(1-alpha))``.

    The substitution absorbs the algebraic singularity exactly, leaving a
    smooth integrand; requires ``alpha < 1``.
    """
    if not alpha < 1:
        raise DomainError("power substitution needs alpha < 1")
    q = 1.0 / (1.0 - alpha)
    s_hi = upper ** (1.0 - alpha)
    return q * _quad(lambda s: g(s**q), 0.0, s_hi, epsabs=1e-300, epsrel=epsrel, tag=tag)


@lru_cache(maxsize=16)
def _gl_nodes(n: int):
    return roots_legendre(n)


def _piecewise_gl(f, lo: float, hi: float, interior=(), nodes: int = 48) -> float:
    """Gauss-Legendre quadrature of a vectorizable f, split at interior kinks."""
    pts = sorted({lo, hi, *[p for p in interior if lo < p < hi]})
    xi, wi = _gl_nodes(nodes)
    xs, ws = [], []
    for a, b in zip(pts, pts[1:]):
        half = 0.5 * (b - a)
        xs.append(0.5 * (a + b) + half * xi)
        ws.append(half * wi)
    xs = np.concatenate(xs)
    ws = np.concatenate(ws)
    return float(np.sum(ws * f(xs)))


def gaussian_riesz_moment(delta: float, T: float, alpha: float, dim: int = 1) -> float:
    """``E_x |B_T|^(-alpha)`` at ``|x| = delta`` by singularity-aware quadrature."""
    if not T > 0:
        raise DomainError("T must be > 0")
    if not 0 < alpha < dim:
        raise DomainError("need 0 < alpha < d")
    if dim == 1:
        def g(u):
            return heat_kernel(T, u - delta) + heat_kernel(T, u + delta)

        upper = abs(delta) + 14.0 * np.sqrt(T)
        return _singular_integral(g, alpha, upper, tag="gaussian_riesz_moment")
    # dim 2: polar coordinates; r^(1-alpha) removed by r = s^(1/(2-alpha))
    q = 1.0 / (2.0 - alpha)

    def ring(r):
        val = _piecewise_gl(
            lambda th: np.exp(-(r * r - 2.0 * r * delta * np.cos(th) + delta * delta) / (2.0 * T)),
            0.0,
            np.pi,
            nodes=96,
        )
        return 2.0 * val / (2.0 * np.pi * T)

    upper = (abs(delta) + 14.0 * np.sqrt(T)) ** (2.0 - alpha)
    return q * _quad(
        lambda s: ring(s**q), 0.0, upper, epsabs=1e-300, epsrel=1e-9,
        tag="gaussian_riesz_moment.r",
    )


def verify_correst(t: float, tp: float, x: float, y: float, alpha: float, dim: int = 1) -> OracleCase:
    """Heat-smoothed Riesz kernel: equality with a Gaussian negative moment and its bound.

    For dim 1 the double integral
    ``int int p_t(x-w) p_tp(y-z) |w-z|^(-alpha) dw dz`` is computed by nested
    quadrature (inner Gaussian product integral evaluated numerically, outer
    singular factor removed by power substitution) and checked against

    1. the one-dimensional Gaussian moment at offset ``|x - y|``,
    2. the centered moment (offset 0), which dominates it,
    3. the closed form ``negative_moment_constant(alpha, d) (t+tp)^(-alpha/2)``.

    dim 2 is a spot check of (2)-(3) via polar quadrature.
    """
    if not (t > 0 and tp > 0):
        raise DomainError("t, tp must be > 0")
    if not 0 < alpha < dim:
        raise DomainError("need 0 < alpha < d")
    T = t + tp
    delta = abs(x - y)
    e0 = negative_moment_constant(alpha, dim) * T ** (-alpha / 2.0)
    gauss = gaussian_riesz_moment(delta, T, alpha, dim)

    if dim == 1:
        sig = np.sqrt(t * tp / T)

        def product_integral(u):
            # int p_t(x - v) p_tp(y + u - v) dv, a Gaussian product in v
            m = (x * tp + (y + u) * t) / T
            return _piecewise_gl(
                lambda v: heat_kernel(t, x - v) * heat_kernel(tp, y + u - v),
                m - 12.0 * sig,
                m + 12.0 * sig,
                nodes=96,
            )

        upper = delta + 14.0 * np.sqrt(T)
        lhs = _singular_integral(
            lambda u: product_integral(u) + product_integral(-u), alpha, upper, tag="correst.outer"
        )
    else:
        lhs = gauss

    case = _case(
        "gaussian-riesz-convolution",
        {"t": t, "tp": tp, "x": x, "y": y, "alpha": alpha, "dim": dim},
        lhs,
        e0,
        tol=1e-6,
        extra={"gauss_moment": gauss, "closed_form": e0},
    )
    if abs(lhs - gauss) > 1e-6 * max(gauss, 1e-300):
        raise OracleError(
            "convolution quadrature disagrees with the Gaussian-moment reduction",
            diagnostics={"lhs": lhs, "gauss": gauss},
        )
    return case


def _kink_points(t, tp, x, y, lo, hi):
    """Roots of p_t(x-w) = p_tp(y-w): the kinks of the absolute difference."""
    A = 0.5 / t - 0.5 / tp
    B = -x / t + y / tp
    C = x * x / (2.0 * t) - y * y / (2.0 * tp) + 0.5 * np.log(t / tp)
    pts = []
    if abs(A) < 1e-300:
        if abs(B) > 1e-300:
            pts = [-C / B]
    else:
        disc = B * B - 4.0 * A * C
        if disc >= 0:
            r = np.sqrt(disc)
            pts = [(-B - r) / (2.0 * A), (-B + r) / (2.0 * A)]
    return [p for p in sorted(pts) if lo < p < hi]


def heat_difference_l1(t: float, tp: float, x: float, y: float, lam: float = 0.0) -> float:
    """``int |p_t(x-w) - p_tp(y-w)| exp(lam |w|) dw`` by kink-aware quadrature."""
    if not (0 < t <= tp):
        raise DomainError("need 0 < t <= tp")
    if lam < 0:
        raise DomainError("lam must be >= 0")
    spread = 12.0 * np.sqrt(tp) + 2.0 * lam * tp
    lo = min(x, y) - spread
    hi = max(x, y) + spread

    def f(w):
        return abs(heat_kernel(t, x - w) - heat_kernel(tp, y - w)) * np.exp(lam * abs(w))

    pts = _kink_points(t, tp, x, y, lo, hi)
    if lo < 0 < hi:
        pts = sorted(pts + [0.0])
    return _quad(f, lo, hi, points=pts or None, limit=300, epsabs=1e-13, epsrel=1e-9, tag="pdiffest")


def verify_pdiffest(
    t: float, tp: float, x: float, y: float, beta: float, lam: float = 0.0
) -> OracleCase:
    """Weighted L1 heat-kernel difference against its frozen envelope.

    rhs shape: ``C exp(2 lam^2 tp) (e^(lam|x|) + e^(lam|y|)) e^(2 beta lam |x-y|)
    (t^(-beta/2) |x-y|^beta + t^(-beta) |tp-t|^beta)``.
    """
    if not 0 < beta <= 1:
        raise DomainError("beta must lie in (0, 1]")
    lhs = heat_difference_l1(t, tp, x, y, lam)
    shape = t ** (-beta / 2.0) * abs(x - y) ** beta + t ** (-beta) * abs(tp - t) ** beta
    rhs = (
        FROZEN_CONSTANTS["pdiffest"]
        * np.exp(2.0 * lam * lam * tp)
        * (np.exp(lam * abs(x)) + np.exp(lam * abs(y)))
        * np.exp(2.0 * beta * lam * abs(x - y))
        * shape
    )
    return _case(
        "heat-difference-l1",
        {"t": t, "tp": tp, "x": x, "y": y, "beta": beta, "lam": lam},
        lhs,
        rhs,
        tol=1e-9,
    )


def _difference_pair_integral(g, alpha: float, half_width: float, kinks, tag: str) -> float:
    """``int int g(w) g(z) (|w-z|^(-alpha) + 1) dw dz`` for g >= 0 supported near 0.

    Splits into the Riesz part (outer integral over u = w - z with the power
    substitution) and the plain product ``(int g)^2``.  ``kinks`` lists the
    non-smooth points of g; the inner cross-correlation integrals are
    piecewise Gauss-Legendre split at the kinks of both factors.
    """
    kinks = list(kinks)

    def cross(u):
        return _piecewise_gl(
            lambda v: g(v) * g(v - u),
            -half_width,
            half_width,
            interior=kinks + [k + u for k in kinks],
        )

    riesz = _singular_integral(
        lambda u: cross(u) + cross(-u), alpha, 2.0 * half_width,
        tag=f"{tag}.outer", epsrel=1e-7,
    )
    total_g = _piecewise_gl(g, -half_width, half_width, interior=kinks, nodes=96)
    return riesz + total_g * total_g


def space_difference_riesz(t: float, x: float, y: float, alpha: float) -> float:
    """lhs of the squared spatial-difference estimate (dim 1)."""
    if not t > 0:
        raise DomainError("t must be > 0")
    if not 0 < alpha < 1:
        raise DomainError("need 0 < alpha < 1 in dim 1")
    spread = 12.0 * np.sqrt(t) + abs(x - y)
    center = 0.5 * (x + y)

    def g(v):
        return np.abs(heat_kernel(t, x - center - v) - heat_kernel(t, y - center - v))

    # equal times: the difference changes sign at the midpoint only
    return _difference_pair_integral(g, alpha, spread, kinks=[0.0], tag="space_difference_riesz")


def time_difference_riesz(t: float, tp: float, x: float, alpha: float) -> float:
    """lhs of the squared temporal-difference estimate (dim 1)."""
    if not 0 < t <= tp:
        raise DomainError("need 0 < t <= tp")
    if not 0 < alpha < 1:
        raise DomainError("need 0 < alpha < 1 in dim 1")
    spread = 12.0 * np.sqrt(tp)

    def g(v):
        return np.abs(heat_kernel(t, v) - heat_kernel(tp, v))

    # same center: |p_t| = |p_tp| exactly at +-sqrt(t tp log(tp/t) / (tp - t))
    kinks = []
    if tp > t:
        r = np.sqrt(t * tp * np.log(tp / t) / (tp - t))
        kinks = [-r, r]
    return _difference_pair_integral(g, alpha, spread, kinks=kinks, tag="time_difference_riesz")


def _jest_check_params(a, b, c, alpha):
    if b < 0 or c < 0:
        raise DomainError("need b, c >= 0")
    if not c < 0.5 * (b + 1.0 - alpha / 2.0):
        raise DomainError("need c < (b + 1 - alpha/2)/2")
    if not (c < a < 1.0 - alpha / 2.0):
        raise DomainError("need a in (c, 1 - alpha/2)")


def triple_time_integral(
    t: float, a: float, b: float, c: float, alpha: float, dim: int = 1, nodes: int = 48
) -> float:
    """``Q(t) = int_0^t int_0^t int_0^(r ^ r') (t-r)^(a-1-c) (t-r')^(a-1-c)
    (t-s)^b (r-s)^(-a) (r'-s)^(-a) [negmom (r+r'-2s)^(-alpha/2) + 1] ds dr dr'``.

    The two inner space integrals are reduced to the Gaussian-moment closed
    form first; the remaining triple integral runs innermost over (r, r') on
    Gauss-Jacobi nodes carrying the algebraic endpoint weights
    ``(t-.)^(a-1-c) (.-s)^(-a)`` exactly, and outermost adaptively over s.
    A node-refinement consistency check guards convergence.
    """
    _jest_check_params(a, b, c, alpha)
    if not t > 0:
        raise DomainError("t must be > 0")
    nm = negative_moment_constant(alpha, dim)

    def q_at(nodes_n: int) -> float:
        xi, wi = roots_jacobi(nodes_n, a - 1.0 - c, -a)

        def inner(s):
            span = t - s
            if span <= 0:
                return 0.0
            # r = s + span (1+xi)/2; per-axis factor (span/2)^(mu+nu+1) with
            # mu = a-1-c, nu = -a, so mu+nu+1 = -c
            r = s + span * (0.5 * (1.0 + xi))
            scale = (span / 2.0) ** (-c)
            rsum = r[:, None] + r[None, :] - 2.0 * s
            fmat = nm * rsum ** (-alpha / 2.0) + 1.0
            ww = wi[:, None] * wi[None, :]
            return (t - s) ** b * scale * scale * float(np.sum(ww * fmat))

        return _quad(inner, 0.0, t, limit=300, epsabs=1e-300, epsrel=1e-8, tag="jest.outer")

    q1 = q_at(nodes)
    q2 = q_at(int(nodes * 1.5))
    if abs(q1 - q2) > 5e-3 * max(abs(q2), 1e-300):
        raise OracleError(
            "triple time integral did not converge under node refinement",
            diagnostics={"coarse": q1, "fine": q2, "nodes": nodes},
        )
    return q2


def verify_jest(
    t_values, a: float, b: float, c: float, alpha: float, dim: int = 1
) -> OracleCase:
    """Small-t scaling of the triple time integral: exponent ``b + 1 - alpha/2 - 2c``."""
    _jest_check_params(a, b, c, alpha)
    t_values = np.asarray(list(t_values), dtype=float)
    if t_values.size < 3:
        raise DomainError("need at least 3 t values for the scaling fit")
    qs = np.array([triple_time_integral(t, a, b, c, alpha, dim) for t in t_values])
    slope, _ = fit_loglog(t_values, qs)
    target = b + 1.0 - alpha / 2.0 - 2.0 * c
    return OracleCase(
        lemma="triple-time-integral-scaling",
        params={"a": a, "b": b, "c": c, "alpha": alpha, "t_values": tuple(t_values.tolist())},
        lhs=float(slope),
        rhs=float(target),
        ratio=float(slope / target) if target != 0 else np.inf,
        passed=bool(abs(slope - target) <= 0.1),
        tol=0.1,
        extra={"q_values": tuple(float(q) for q in qs)},
    )


def verify_factorization(a: float, t: float, s: float) -> float:
    """Residual of ``int_s^t (t-r)^(a-1) (r-s)^(-a) dr = pi / sin(pi a)``.

    The algebraic endpoint weights are handled exactly by weighted quadrature,
    so the residual is at machine-precision scale.
    """
    if not 0 < a < 1:
        raise DomainError("a must lie in (0, 1)")
    if not s < t:
        raise DomainError("need s < t")
    val, _ = quad(lambda r: 1.0, s, t, weight="alg", wvar=(-a, a - 1.0))
    return float(abs(val - np.pi / np.sin(np.pi * a)))

