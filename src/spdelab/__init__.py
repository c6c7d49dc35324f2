"""Numerical laboratory for stochastic heat equations with multiplicative colored noise.

Modules: ``kernels`` (closed-form kernel math and the uniqueness-regime
classifier), ``noise`` (spectral synthesis of colored Gaussian increments),
``solver`` (exponential-Euler mild-solution integration, coupled pairs),
``ywtools`` (the constructive machinery behind square-root-type uniqueness
proofs), ``estimators`` (regularity and pair-divergence statistics),
``oracles`` (independent quadrature checks of the Gaussian kernel estimates),
``cli`` (deterministic experiment orchestration).
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
    simulate_replicas,
)
from .ywtools import RhoSpec, YWFamily, a_sequence, build_family, delta_approx_check
from .estimators import (
    HolderReport,
    UniquenessReport,
    conditional_regularity,
    critical_exponent_limit,
    exponent_recursion,
    holder_exponent,
    structure_function,
    uniqueness_gap,
)

__all__ = [name for name in dir() if not name.startswith("_")]
