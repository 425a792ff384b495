"""Exception types shared across the package."""


class TmopFitError(Exception):
    """Base class for all package-specific errors."""


class InvalidMeshError(TmopFitError):
    """A mesh is structurally unusable (e.g. nonpositive Jacobians)."""


class NonpositiveDeterminantError(TmopFitError):
    """det(T) <= 0 encountered at a quadrature point."""

    def __init__(self, element_id, value):
        self.element_id = element_id
        self.value = value
        super().__init__(
            f"nonpositive determinant {value:.3e} in element {element_id}"
        )


class SingularJacobianError(TmopFitError):
    """Element Jacobian is singular at an evaluation point."""


class CaseConfigError(TmopFitError):
    """A case's settings do not fit together."""


class EmptyMarkedSetError(TmopFitError):
    """Interface marking produced no nodes."""


class MeshParseError(TmopFitError):
    """Mesh file could not be parsed."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NonfiniteObjectiveError(TmopFitError):
    """F or its gradient is not finite where a solve starts."""


class TransferFailureError(TmopFitError):
    """Field transfer failed to locate one or more query points."""

    def __init__(self, points):
        self.points = list(points)
        super().__init__(
            f"could not locate {len(self.points)} point(s) in the source mesh"
        )
