"""Error hierarchy shared by all modules.

Each error class carries the process exit code the CLI maps it to:
2 for malformed files, 3 for bad configuration, 4 for non-finite numerics.
"""


class EngineError(Exception):
    exit_code = 1


class FormatError(EngineError):
    """A binary artifact failed structural validation."""

    exit_code = 2


class BadMagicError(FormatError):
    pass


class BadVersionError(FormatError):
    pass


class TruncatedPayloadError(FormatError):
    pass


class MalformedArtifactError(FormatError):
    """An artifact's content breaks its format: a manifest other than the
    one `process` writes, an empty record, a record of the wrong shape."""


class ConfigError(EngineError):
    exit_code = 3


class NumericError(EngineError):
    """Non-finite values where finite ones are contractual."""

    exit_code = 4


class NonFiniteDataError(NumericError):
    """A file payload contained NaN or infinity."""
