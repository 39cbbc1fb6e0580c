"""Exception types shared across the package.

The CLI maps these to distinct exit codes, so library code should raise
ValidationError for malformed input data and ParameterError for out-of-range
configuration values rather than bare ValueError.
"""


class ValidationError(ValueError):
    """Input data violates a documented format or invariant."""


class ParameterError(ValueError):
    """A configuration value or algorithm parameter is out of range."""


class NumericalError(RuntimeError):
    """A computation broke an invariant that exact arithmetic guarantees."""
