"""Exception types shared across the library."""


class JordanTpError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(JordanTpError):
    """Element coordinates do not match the model's ambient dimension."""


class ModelMismatchError(JordanTpError):
    """Operation mixed elements that belong to different models."""


class UnnormalizedParamError(JordanTpError):
    """Atom parameter is not normalized in the backend's relevant norm."""


class NotAtomError(JordanTpError):
    """Element is not a minimal extreme point of the unit interval."""


class UnsupportedModelError(JordanTpError):
    """Operation requires a capability this model does not have."""


class ConeProjectionError(JordanTpError):
    """Cone projection did not converge within its iteration budget."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class LinearProgramError(JordanTpError):
    """LP solver failed or returned an unusable status."""


class InfeasiblePointError(JordanTpError):
    """Query point lies outside the convex hull of the polytope."""
