"""Exception types shared across the package."""


class ErboundError(Exception):
    """Base class for all erbound errors."""


class SchemaError(ErboundError):
    """A record, value, or file does not conform to the feature schema."""


class DataError(ErboundError):
    """Malformed input data: bad CSV rows, unknown ids, non-finite features."""


class DegenerateDataError(DataError):
    """A computation received data with only one class or no usable pairs."""


class ConfigError(ErboundError):
    """Invalid or infeasible run configuration."""
