"""Exception hierarchy.

Every domain error raised by the library derives from SymidxError and
carries a short machine-readable ``name`` used by the CLI error objects.
"""


class SymidxError(Exception):
    name = "error"

    def payload(self) -> dict:
        return {"error": self.name, "message": str(self)}


class DimensionError(SymidxError):
    name = "dimension"


class NotSymplecticError(SymidxError):
    name = "not-symplectic"


class InvalidPathError(SymidxError):
    name = "invalid-path"


class ParameterError(SymidxError):
    name = "parameter"


class AmbiguousClassificationError(SymidxError):
    """An eigenvalue sits within tol of a classification boundary."""

    name = "ambiguous-classification"

    def __init__(self, message, eigenvalues=()):
        super().__init__(message)
        self.eigenvalues = list(eigenvalues)

    def payload(self):
        d = super().payload()
        d["eigenvalues"] = [[z.real, z.imag] for z in self.eigenvalues]
        return d


class ResolutionError(SymidxError):
    """Loop or path too coarsely sampled for a degree computation."""

    name = "resolution"

    def __init__(self, message, interval=None):
        super().__init__(message)
        self.interval = interval

    def payload(self):
        d = super().payload()
        if self.interval is not None:
            d["interval"] = list(self.interval)
        return d


class EndpointDegenerateError(SymidxError):
    name = "endpoint-degenerate"


class IrregularCrossingError(SymidxError):
    name = "irregular-crossing"


class ExtensionError(SymidxError):
    name = "extension"


class ConvergenceError(SymidxError):
    name = "convergence"


class StepFailureError(SymidxError):
    name = "step-failure"

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class NoOrbitFoundError(SymidxError):
    name = "no-orbit-found"


class NotLagrangianError(SymidxError):
    name = "not-lagrangian"


class ComplexValidationError(SymidxError):
    name = "invalid-complex"


class DSquaredError(ComplexValidationError):
    name = "d-squared-nonzero"

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness

    def payload(self):
        d = super().payload()
        if self.witness is not None:
            d["witness"] = self.witness
        return d


class DegreeRuleError(ComplexValidationError):
    name = "degree-rule"


class ActionRuleError(ComplexValidationError):
    name = "action-increasing-boundary"


class UnsupportedError(SymidxError):
    name = "unsupported"


class FileFormatError(SymidxError):
    name = "file-format"


class UsageError(SymidxError):
    """A command line that does not parse (the CLI exits 2)."""

    name = "usage"
