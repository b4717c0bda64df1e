"""Exception hierarchy shared across the library.

Domain errors (everything below LogresError) map to CLI exit code 2;
ParseError maps to exit code 3.
"""


class LogresError(Exception):
    """Base class for all domain errors raised by this package."""


class NonCommuting(LogresError):
    """A family of operators required to commute does not."""


class IrrationalEigenvalue(LogresError):
    """A characteristic polynomial has no full linear factorization over Q(i)."""


class NotAFace(LogresError):
    """The given submonoid fails the face condition."""


class NotHollow(LogresError):
    """Operation requires a hollow model (ideal = all non-units)."""


class NotFlat(LogresError):
    """Operation requires an integrable (flat) connection."""


class NonConstant(LogresError):
    """Operation requires constant-coefficient connection data."""


class ModelMismatch(LogresError):
    """Two objects live over different models (P, K)."""


class InvalidObject(LogresError):
    """A graded module fails its axioms; see the attached report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConditionsFailed(LogresError):
    """Higgs-data conditions failed; .failed lists the condition indices (1..3)."""

    def __init__(self, failed):
        super().__init__("higgs conditions failed: %s" % (sorted(failed),))
        self.failed = sorted(failed)


class CyclicVectorNotFound(LogresError):
    """The deterministic cyclic-vector ladder was exhausted (a limit of the
    implementation, not a mathematical impossibility)."""


class NonUnitValue(LogresError):
    """A germ-map coordinate or splitting value is the zero function."""


class NotNcType(LogresError):
    """Operation requires a model whose monoid is free."""


class InvalidDeclaration(LogresError):
    """A well-formed declaration whose value the library rejects; names the
    declaration and its 1-based line."""

    def __init__(self, declaration, line, reason):
        super().__init__("%s (line %d): %s" % (declaration, line, reason))
        self.declaration = declaration
        self.line = line


class ParseError(LogresError):
    """Input text failed to parse; carries 1-based line/column."""

    def __init__(self, message, line, column, expected=()):
        super().__init__("%d:%d: %s" % (line, column, message))
        self.line = line
        self.column = column
        self.expected = tuple(expected)
