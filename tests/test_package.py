"""The package's public surface: one entry point per job."""

import spdelab


def test_public_names_are_pinned():
    # one-replica and one-step wrappers were folded into the batched entry
    # points; a name added or brought back here must be deliberate
    assert sorted(spdelab.__all__) == [
        "GridSpec", "HolderReport", "InitialCondition", "KernelSpec", "NoiseField",
        "RegimeVerdict", "RhoSpec", "RngStream", "SigmaSpec", "SolutionPair", "Trajectory",
        "UniquenessReport", "YWFamily", "a_sequence", "build_family", "calculus_bound_check",
        "classify_regime", "conditional_regularity", "critical_exponent_limit", "dalang_condition",
        "delta_approx_check", "errors", "estimators", "exponent_recursion", "heat_kernel",
        "holder_exponent", "kernel_eval", "kernels", "negative_moment_constant",
        "noise", "read_field", "semigroup_multiplier", "sigma_eval", "simulate", "simulate_pairs",
        "simulate_replicas", "solver", "spectral_amplitudes", "spectral_density",
        "structure_function", "synthesize", "uniqueness_gap", "weighted_sup_moment", "write_field",
        "ywtools",
    ]
