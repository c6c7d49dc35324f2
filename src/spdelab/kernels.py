"""Closed-form kernel mathematics for the colored-noise heat equation lab.

Everything here is deterministic: the Gaussian heat kernel and its Fourier
multiplier, the Riesz-type correlation kernels with their spectral densities,
the integrability condition governing existence of function-valued solutions,
the negative-moment constant of a Gaussian vector, and the classifier that
maps a (kernel, diffusion-coefficient) pair onto the known uniqueness regimes.

Conventions
-----------
* The generator is half the Laplacian, so the heat kernel is
  ``p_t(x) = (2 pi t)^(-d/2) exp(-|x|^2 / (2 t))``.
* Fourier transforms use ``F f(xi) = int exp(-2 i pi xi.x) f(x) dx``; under
  this convention the heat semigroup acts in frequency as
  ``exp(-2 pi^2 |xi|^2 t)`` and the Riesz kernel ``|x|^(-alpha)`` has spectral
  density ``c_R(alpha, d) |xi|^(alpha - d)`` with
  ``c_R = pi^(alpha - d/2) Gamma((d - alpha)/2) / Gamma(alpha/2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma

from .errors import DomainError, SingularKernelError

KERNEL_KINDS = ("riesz", "riesz-plus-constant", "bounded-constant", "white")

# verdict labels of classify_regime
PROVEN_UNIQUE_HOLDER = "proven-unique-holder"
PROVEN_UNIQUE_YW_BOUNDED = "proven-unique-yw-bounded"
PROVEN_UNIQUE_LIPSCHITZ = "proven-unique-lipschitz"
OPEN = "open"
NO_FUNCTION_SOLUTION = "no-function-solution"


@dataclass(frozen=True)
class KernelSpec:
    """Spatial correlation kernel of the driving noise.

    ``riesz`` is ``amplitude * r^(-alpha)``, ``riesz-plus-constant`` is
    ``amplitude * (r^(-alpha) + 1)``, ``bounded-constant`` is a flat covariance
    ``amplitude`` (a fully correlated field), and ``white`` is space-time white
    noise (distributional spatial correlation, one dimension only).

    Construction accepts any ``alpha > 0`` so that the regime classifier can
    reason about supercritical exponents; pointwise evaluation and spectral
    synthesis additionally require the existence regime ``alpha < 2 and d``
    (see :meth:`require_existence_regime`).
    """

    kind: str = "riesz"
    alpha: float = 0.5
    amplitude: float = 1.0
    dim: int = 1

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise DomainError(f"unknown kernel kind {self.kind!r}")
        if not 0 < self.amplitude < math.inf:
            raise DomainError("kernel amplitude must be finite and > 0")
        if self.dim < 1:
            raise DomainError("dimension must be a positive integer")
        if self.kind == "white" and self.dim != 1:
            raise DomainError("white noise kernel is supported only in dimension 1")
        if self.is_singular and not self.alpha > 0:
            raise DomainError("riesz kernels require alpha > 0")

    @property
    def is_singular(self) -> bool:
        return self.kind in ("riesz", "riesz-plus-constant")

    @property
    def in_existence_regime(self) -> bool:
        """Whether function-valued solutions exist for this kernel (alpha < 2 and d)."""
        if not self.is_singular:
            return True
        return self.alpha < min(2, self.dim)

    def require_existence_regime(self):
        if not self.in_existence_regime:
            raise DomainError(
                f"alpha={self.alpha} outside the existence regime "
                f"(need 0 < alpha < {min(2, self.dim)} for dim={self.dim})"
            )


@dataclass(frozen=True)
class RegimeVerdict:
    """Outcome of the uniqueness-regime classification.

    ``verdict`` is one of the module-level verdict labels; ``citation`` names
    the governing result in self-describing terms.
    """

    verdict: str
    citation: str

    def __post_init__(self):
        if self.verdict not in (
            PROVEN_UNIQUE_HOLDER,
            PROVEN_UNIQUE_YW_BOUNDED,
            PROVEN_UNIQUE_LIPSCHITZ,
            OPEN,
            NO_FUNCTION_SOLUTION,
        ):
            raise DomainError(f"unknown verdict {self.verdict!r}")
        if not self.citation:
            raise DomainError("verdict citation must be nonempty")


def heat_kernel(t, x, dim: int = 1):
    """Gaussian heat kernel ``p_t(x)`` for the generator Laplacian/2.

    ``x`` may be a scalar (dim 1, vectorized elementwise) or an array whose
    last axis holds the ``dim`` coordinates.
    """
    if not t > 0:
        raise DomainError("heat kernel requires t > 0")
    x = np.asarray(x, dtype=float)
    if dim == 1:
        sq = x * x
    else:
        if x.shape[-1] != dim:
            raise DomainError(f"last axis of x must have length dim={dim}")
        sq = np.sum(x * x, axis=-1)
    return (2.0 * np.pi * t) ** (-dim / 2.0) * np.exp(-sq / (2.0 * t))


def semigroup_multiplier(xi, t, dim: int = 1):
    """Fourier multiplier ``exp(-2 pi^2 |xi|^2 t)`` of the heat semigroup.

    Equals 1 at ``t = 0`` or ``xi = 0``.  ``xi`` is elementwise for dim 1,
    otherwise the last axis holds the coordinates.
    """
    if t < 0:
        raise DomainError("semigroup multiplier requires t >= 0")
    xi = np.asarray(xi, dtype=float)
    sq = xi * xi if dim == 1 else np.sum(xi * xi, axis=-1)
    return np.exp(-2.0 * np.pi**2 * sq * t)


def riesz_spectral_constant(alpha: float, dim: int) -> float:
    """Constant ``c_R(alpha, d)`` in the Riesz spectral density ``c_R |xi|^(alpha-d)``."""
    if not 0 < alpha < dim:
        raise DomainError("riesz spectral constant requires 0 < alpha < d")
    return float(
        np.pi ** (alpha - dim / 2.0) * _gamma((dim - alpha) / 2.0) / _gamma(alpha / 2.0)
    )


def spectral_density(xi, alpha: float, dim: int = 1):
    """Spectral density of the Riesz kernel: ``c_R(alpha,d) |xi|^(alpha-d)``.

    Diverges at ``xi = 0``; the zero mode is reported as ``inf``.
    """
    c = riesz_spectral_constant(alpha, dim)
    xi = np.asarray(xi, dtype=float)
    norm = np.abs(xi) if dim == 1 else np.sqrt(np.sum(xi * xi, axis=-1))
    with np.errstate(divide="ignore"):
        return c * norm ** (alpha - dim)


def kernel_eval(spec: KernelSpec, r):
    """Pointwise covariance ``k(r)`` at separation ``r >= 0``.

    Riesz kinds are singular at ``r = 0`` and raise; the white kernel has no
    pointwise value at all (it is distributional) and always raises.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("separation must be >= 0")
    if spec.kind == "white":
        raise SingularKernelError(
            "white-noise kernel is distributional; no pointwise value"
        )
    if spec.kind == "bounded-constant":
        return spec.amplitude * np.ones_like(r)
    spec.require_existence_regime()
    if np.any(r == 0):
        raise SingularKernelError("riesz kernel is singular at separation 0")
    if spec.kind == "riesz":
        return spec.amplitude * r ** (-spec.alpha)
    return spec.amplitude * (r ** (-spec.alpha) + 1.0)


def negative_moment_constant(alpha: float, dim: int) -> float:
    """``E|B_1|^(-alpha)`` for a standard d-dimensional Gaussian vector.

    Closed form ``2^(-alpha/2) Gamma((d-alpha)/2) / Gamma(d/2)``, finite for
    ``0 < alpha < d``; tends to 1 as ``alpha -> 0``.  Scaling in time is
    ``E|B_t|^(-alpha) = negative_moment_constant * t^(-alpha/2)``.
    """
    if not 0 < alpha < dim:
        raise DomainError("negative moment requires 0 < alpha < d")
    return float(2.0 ** (-alpha / 2.0) * _gamma((dim - alpha) / 2.0) / _gamma(dim / 2.0))


def classify_regime(kspec: KernelSpec, sspec) -> RegimeVerdict:
    """Classify a (noise kernel, diffusion coefficient) pair by uniqueness regime.

    Rules, in precedence order:

    1. Riesz-type kernel with ``alpha > 2 and d``: no function-valued solution
       exists at all.
    2. A coefficient declared Lipschitz: pathwise uniqueness by the classical
       Lipschitz theory (requires the existence regime for singular kernels).
    3. Bounded kernel with a coefficient admitting a Yamada-Watanabe modulus
       (``|sigma(u)-sigma(v)| <= rho(|u-v|)`` with non-integrable ``rho^-2``):
       pathwise uniqueness.
    4. Riesz-type kernel with ``alpha in (0,1)`` and Hoelder index
       ``gamma > (1+alpha)/2``: pathwise uniqueness.
    5. Otherwise: open.

    The Lipschitz property is the *declared* one (``sspec.is_lipschitz``); a
    Hoelder family at gamma = 1 is classified through rule 4, so the regime
    boundary ``gamma > (1+alpha)/2, alpha < 1`` is exact on the whole square.
    """
    alpha = kspec.alpha
    d = kspec.dim
    if kspec.is_singular and alpha > min(2, d):
        return RegimeVerdict(
            NO_FUNCTION_SOLUTION,
            "supercritical correlation singularity: alpha > 2 and d admits no "
            "function-valued solution",
        )
    if sspec.is_lipschitz:
        if not kspec.in_existence_regime:
            return RegimeVerdict(
                OPEN, "critical alpha = 2 and d: existence theory unavailable"
            )
        return RegimeVerdict(
            PROVEN_UNIQUE_LIPSCHITZ,
            "Lipschitz coefficient with integrable spectral measure "
            "(alpha < 2 and d)",
        )
    if kspec.kind == "bounded-constant" and sspec.satisfies_yw_modulus:
        return RegimeVerdict(
            PROVEN_UNIQUE_YW_BOUNDED,
            "bounded correlation kernel with a Yamada-Watanabe modulus "
            "(diverging integral of rho^-2 at 0+)",
        )
    if kspec.is_singular and 0 < alpha < 1 and sspec.gamma > (1.0 + alpha) / 2.0:
        return RegimeVerdict(
            PROVEN_UNIQUE_HOLDER,
            "Riesz-bounded correlation with Hoelder coefficient: "
            "gamma > (1+alpha)/2 and alpha < 1",
        )
    return RegimeVerdict(
        OPEN, "outside every regime with a known pathwise-uniqueness proof"
    )
