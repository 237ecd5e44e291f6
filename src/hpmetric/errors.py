"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: InputError, StructureError and an
unreadable or unwritable file (OSError) -> 2, NumericalError -> 3.
Verification failures are reported, not raised; they exit 1.
"""


class HpMetricError(Exception):
    """Base class for all package errors."""


class InputError(HpMetricError, ValueError):
    """Bad user input: parse errors, domain violations, usage errors.

    Also a ValueError, so callers that catch ValueError still catch it."""


class ParseError(InputError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class IrreducibilityError(InputError):
    """The support graph is not strongly connected."""


class NumericalError(HpMetricError):
    """A solve or factorization failed, or a residual exceeded tolerance."""


class SimulationDivergenceError(NumericalError):
    """A random walk exceeded the hard step cap."""


class StructureError(HpMetricError):
    """Claimed degenerate structure fails structural validation."""
