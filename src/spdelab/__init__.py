"""Numerical laboratory for stochastic heat equations with multiplicative colored noise.

Modules: ``kernels`` (closed-form kernel math and the uniqueness-regime
classifier), ``noise`` (spectral synthesis of colored Gaussian increments),
``solver`` (exponential-Euler mild-solution integration, coupled pairs),
``ywtools`` (the constructive machinery behind square-root-type uniqueness
proofs), ``estimators`` (regularity and pair-divergence statistics),
``oracles`` (independent quadrature checks of the Gaussian kernel estimates),
``cli`` (deterministic experiment orchestration).

``ywtools`` and ``oracles`` (scipy's quadrature, optimisation, interpolation) load
on first use; the package loads no scipy module, as ``kernels`` ports Cephes gamma.
"""

__version__ = "0.1.0"

from .kernels import (
    KernelSpec,
    RegimeVerdict,
    classify_regime,
    heat_kernel,
    kernel_eval,
    negative_moment_constant,
    semigroup_multiplier,
    spectral_density,
)
from .noise import (
    GridSpec,
    NoiseField,
    RngStream,
    read_field,
    spectral_amplitudes,
    synthesize,
    write_field,
)
from .solver import (
    InitialCondition,
    SigmaSpec,
    SolutionPair,
    Trajectory,
    sigma_eval,
    simulate,
    simulate_pairs,
)
from .estimators import (
    HolderReport,
    UniquenessReport,
    conditional_regularity,
    critical_exponent_limit,
    exponent_recursion,
    structure_function,
    uniqueness_gap,
)

__all__ = [
    "GridSpec", "HolderReport", "InitialCondition", "KernelSpec", "NoiseField", "RegimeVerdict", "RhoSpec",
    "RngStream", "SigmaSpec", "SolutionPair", "Trajectory", "UniquenessReport", "YWFamily", "a_sequence",
    "build_family", "classify_regime", "conditional_regularity", "critical_exponent_limit", "delta_approx_check",
    "exponent_recursion", "heat_kernel", "kernel_eval", "negative_moment_constant", "read_field",
    "semigroup_multiplier", "sigma_eval", "simulate", "simulate_pairs", "spectral_amplitudes",
    "spectral_density", "structure_function", "synthesize", "uniqueness_gap", "write_field",
]


def __getattr__(name):
    """The five ``ywtools`` names, which load ``ywtools`` on first access (PEP 562)."""
    if name in ("RhoSpec", "YWFamily", "a_sequence", "build_family", "delta_approx_check"):
        from . import ywtools

        return getattr(ywtools, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
