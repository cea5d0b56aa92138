"""Exception hierarchy shared across the toolkit.

Exit-code mapping for the CLI lives in cli.py: config errors exit 2,
data errors 3, numeric failures 4.
"""


class IcuStudyError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(IcuStudyError):
    """Bad or unknown configuration (unknown key, missing path, bad value)."""


class DataError(IcuStudyError):
    """Malformed or insufficient input data."""


class NumericError(IcuStudyError):
    """A numeric procedure could not produce a valid result."""


# --- data errors -----------------------------------------------------------

class UnsortedInput(DataError):
    """A supposedly sorted input is out of order; carries the row index."""

    def __init__(self, name: str, index: int):
        self.name = name
        self.index = index
        super().__init__(f"{name}: row {index} is smaller than its predecessor")


class UnknownSetReference(DataError):
    def __init__(self, label: str):
        self.label = label
        super().__init__(f"pipeline references unknown result set {label!r}")


class PredicateFailure(DataError):
    """A record lacks a field a predicate needs; carries the patient key."""

    def __init__(self, predicate: str, key, field: str):
        self.predicate = predicate
        self.key = key
        self.field = field
        super().__init__(
            f"predicate {predicate!r} needs field {field!r} missing on record {key}"
        )


class EmptyInput(DataError):
    pass


class ZeroMarginal(DataError):
    pass


class TooFewPatients(DataError):
    pass


class InvalidSpec(DataError):
    """Synthetic-cohort parameters are internally inconsistent."""


# --- numeric errors --------------------------------------------------------

class RankDeficient(NumericError):
    """Design matrix is rank deficient; names the dependent column."""

    def __init__(self, column: str):
        self.column = column
        super().__init__(f"design matrix is rank deficient; dependent column: {column}")


class NotConverged(NumericError):
    pass


class ZeroVariance(NumericError):
    pass


class InvalidDof(NumericError):
    pass


class DegenerateK(NumericError):
    pass


class ConstantVariable(NumericError):
    pass


class AllCellsEmptyForTreatment(NumericError):
    """No stratum has observations in both treatment arms."""
