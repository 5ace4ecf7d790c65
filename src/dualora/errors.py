"""Exception types shared across the package.

An :class:`InputError` is the fault of input from outside the program (a
config, a dataset file, a command-line value); the CLI reports it in one line
and exits 2. The other classes signal a bug and keep their traceback.
"""


class InputError(ValueError):
    """Input from outside the program is not acceptable."""


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class InvalidRankError(InputError):
    """Requested low-rank size is impossible for the given dimensions."""


class InvalidInputError(InputError):
    """A numeric argument violates a documented precondition."""


class ProtocolError(RuntimeError):
    """Operation invoked outside the sequential-task protocol."""


class DataError(InputError):
    """Dataset or task data violates a structural requirement."""


class FormatError(InputError):
    """Binary file does not conform to the documented layout."""


class ConfigError(InputError):
    """Configuration value or key is not accepted."""


class DeterminismError(RuntimeError):
    """A closure expected to be deterministic produced differing values."""


class GraphError(RuntimeError):
    """Recorded computation is inconsistent with its parameters."""
