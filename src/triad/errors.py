"""Exception types shared across the package."""


class TriadError(Exception):
    """Base class for all errors raised by this package."""


class InputError(TriadError):
    """An argument violates a documented precondition or invariant."""


class FormatError(TriadError):
    """A file does not conform to its declared on-disk format."""


class EmptyEvaluation(TriadError):
    """No pixels survive masking, so no metric can be computed."""


class ConfigError(TriadError):
    """A run configuration is missing, malformed, or inconsistent."""


class NumericalError(TriadError):
    """A computation failed for numerical reasons (e.g. nothing to triangulate)."""
