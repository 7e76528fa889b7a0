"""Typed errors shared across the package.

The split matters for the command line front end: InputError maps to exit
code 2 and InvariantViolation to 3. Exit code 1 is a malformed command
line, which `cli._Parser.error` refuses before any of these can be raised.
Everything else is a bug.
"""


class AoulabError(Exception):
    """Base class for all package errors."""


class InputError(AoulabError):
    """Well-formed input that fails a documented precondition.

    Carries an optional machine-checkable certificate of the failure.
    """

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class ShapeError(InputError):
    """Dimension or shape mismatch between operands."""


class NotPointedError(InputError):
    """A pointed cone was required; the offending lineality basis is attached."""

    def __init__(self, message: str, lineality=None):
        super().__init__(message, certificate=lineality)
        self.lineality = lineality


class StrictConeError(InputError):
    """Operation undefined on a cone with strict inequality rows; close it first."""


class PolyhedralRequired(InputError):
    """Operation defined only for polyhedral cones (sym_psd has its own oracles)."""


class SizeLimitError(InputError):
    """A documented size cap was exceeded."""


class InvariantViolation(AoulabError):
    """An internal exactness invariant failed; indicates a bug, never bad input."""


def require_holds(holds: bool, construction: str, *spaces) -> None:
    """The one check a construction ends with: raise InvariantViolation,
    naming the construction and the labels of its spaces, unless its result
    passed the checker that `verify` runs."""
    if not holds:
        names = ", ".join(s.label or f"{s.dim}-dim space" for s in spaces)
        raise InvariantViolation(f"{construction}({names}): result fails its check")
