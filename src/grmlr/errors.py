"""Exception hierarchy shared by all grmlr modules."""


class GrmlrError(Exception):
    """Base class for all errors raised by this package."""


class MissingSite(GrmlrError):
    """A site id present in one input table is absent from another."""


class RowSumViolation(GrmlrError):
    """An abundance row does not sum to 1 within tolerance."""


class NegativeCount(GrmlrError):
    """A macrofauna count is negative or not an integer."""


class NegativeValue(GrmlrError):
    """An abundance value is negative."""


class UnknownLabel(GrmlrError):
    """A stage label is not in the allowed label set."""


class InvalidShape(GrmlrError):
    """Shape parameters are inconsistent or out of range."""


class InvalidValue(GrmlrError):
    """A cell could not be parsed as the expected numeric type."""


class LengthMismatch(GrmlrError):
    """Two paired vectors have different lengths."""


class TooFewSamples(GrmlrError):
    """Not enough samples for the requested statistic."""


class Misalignment(GrmlrError):
    """Site-indexed inputs do not share the same site ordering."""


class TaxaMismatch(GrmlrError):
    """Feature taxa do not match the model's taxa (names or order)."""


class MissingLabels(GrmlrError):
    """Training requested on a dataset without stage labels."""


class MissingMacrofauna(GrmlrError):
    """Graph mixing weight > 0 but macrofauna counts are absent."""


class EmptyClass(GrmlrError):
    """A class from the label set has no samples."""


class UnknownParameter(GrmlrError):
    """A grid axis names a parameter that is not a config field."""


class IoFailure(GrmlrError):
    """A file could not be read or written."""


class NonConvergenceWarning(UserWarning):
    """Optimizer hit the iteration cap with a large gradient norm."""
