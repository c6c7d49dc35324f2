"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: config/parse problems -> 2,
precondition violations -> 3, numeric failures -> 4.
"""


class SpdeLabError(Exception):
    """Base class for all package errors."""


class ConfigError(SpdeLabError):
    """Malformed configuration text or unknown keys."""


class DomainError(SpdeLabError):
    """An argument is outside the mathematical domain of an operation."""


class SingularKernelError(DomainError):
    """Pointwise kernel evaluation requested at a singular (or distributional) point."""


class InputError(DomainError):
    """Structurally inconsistent inputs (mismatched grids, bad file payloads)."""


class SpectralError(SpdeLabError):
    """Synthesis amplitudes came out negative or non-finite."""


class BlowUpError(SpdeLabError):
    """A simulated field left the representable range (NaN/Inf).

    ``fingerprint`` is the config fingerprint of the replica that blew up.
    """

    def __init__(self, message, step_index=None, replica_id=None, fingerprint=None):
        super().__init__(message)
        self.step_index = step_index
        self.replica_id = replica_id
        self.fingerprint = fingerprint


class InsufficientDataError(SpdeLabError):
    """An estimator had fewer samples than its contract requires."""

    def __init__(self, message, n_samples=0, occupancy=None):
        super().__init__(message)
        self.n_samples = n_samples
        self.occupancy = occupancy or {}


class ResolutionError(SpdeLabError):
    """A tabulated function ran out of resolution before the request was met."""


class ConstructionError(SpdeLabError):
    """A constrained function family could not be built; message names the bound."""


class ExtrapolationError(DomainError):
    """Tabulated coefficient evaluated outside its table range."""


class OracleError(SpdeLabError):
    """A quadrature oracle failed to converge; carries panel diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
