"""Exception types shared across the library.

Every operation raises subclasses of LabelRegretError so callers (and the
command line front end) can distinguish usage problems from numerical ones.
"""


class LabelRegretError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# dataset ingestion and label drawing

class MissingLabelColumn(LabelRegretError):
    pass


class BadJsonFile(LabelRegretError):
    """A JSON input is malformed, lacks a key or holds a value of the wrong kind."""

    def __init__(self, path, key, problem: str):
        where = "" if key is None else f" key {key!r}"
        super().__init__(f"{path}:{where} {problem}")
        self.key = key


class NonNumericCell(LabelRegretError):
    def __init__(self, row: int, column: str, value: str = ""):
        super().__init__(f"non-numeric cell at data row {row}, column {column!r}: {value!r}")
        self.row = row
        self.column = column


class InvalidLabelValue(LabelRegretError):
    def __init__(self, row: int, value):
        super().__init__(f"label at data row {row} must be one of 0, 1, -1, +1; got {value!r}")
        self.row = row
        self.value = value


class EmptyDataset(LabelRegretError):
    pass


class FeatureNameMismatch(LabelRegretError):
    """A saved model's feature names differ from the data's feature columns."""


class ProbOutOfRange(LabelRegretError):
    def __init__(self, index: int, value: float):
        super().__init__(f"probability at index {index} is {value}, outside [0, 1]")
        self.index = index
        self.value = value


class DimensionMismatch(LabelRegretError):
    pass


class LengthMismatch(LabelRegretError):
    pass


# ---------------------------------------------------------------------------
# model fitting

class FitDiverged(LabelRegretError):
    """Parameter norm blew past the divergence guard; data is separable."""


class SingularHessian(LabelRegretError):
    """Newton system is rank deficient (collinear features, no ridge)."""


class NoConvergence(LabelRegretError):
    """Iteration budget exhausted with the gradient above tolerance."""


class SingleClass(LabelRegretError):
    """Ranking metric needs at least one positive and one negative label."""


# ---------------------------------------------------------------------------
# resampling estimators

class InitialFitFailed(LabelRegretError):
    pass


class TooFewResamples(LabelRegretError):
    pass


class RefitFallbackExhausted(LabelRegretError):
    """A resample could not be fit even after the ridge escalation ladder."""


class TooLarge(LabelRegretError):
    """Exhaustive enumeration rejected the input (2**n refits would be needed)."""


class ZeroNormPoint(LabelRegretError):
    def __init__(self, index: int):
        super().__init__(f"point {index} has zero Euclidean norm; the error bound is undefined")
        self.index = index


# ---------------------------------------------------------------------------
# experiment harness and configuration

class EmptyKeptSet(LabelRegretError):
    pass


class EmptyPool(LabelRegretError):
    pass


class UnknownConfigKey(LabelRegretError):
    def __init__(self, keys):
        super().__init__(f"unknown config keys: {sorted(keys)}")
        self.keys = tuple(sorted(keys))
