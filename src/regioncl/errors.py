"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A configuration value is out of range or unknown."""


class DataError(ValueError):
    """Malformed or inconsistent input data (parse and validation failures)."""


class ContractError(ValueError):
    """A caller violated an operation's precondition, a shape included."""


class TrainingAborted(RuntimeError):
    """Training stopped on a non-finite loss or gradient."""
