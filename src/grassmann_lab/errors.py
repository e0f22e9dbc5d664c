"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: validation problems exit 2, budgeted
searches that end without a certificate exit 3, internal invariant
violations exit 4.
"""

from __future__ import annotations


class GrassmannLabError(Exception):
    """Base class for all package errors."""


class ValidationError(GrassmannLabError):
    """Bad parameters, malformed input, or a violated precondition."""


class CapExceededError(ValidationError):
    """A configured resource cap (field order, ambient dimension, graph size) was hit."""


class SchemaError(ValidationError):
    """Malformed JSON input; the message names the offending field."""


class NotIsometricError(ValidationError):
    """An embedding failed isometry verification.

    Carries the offending vertex pair so callers can report it.
    """

    def __init__(self, defect):
        self.defect = defect
        super().__init__(
            f"not isometric: vertices {defect.vertex_a:#x},{defect.vertex_b:#x} "
            f"have graph distance {defect.expected} but image distance {defect.actual}"
        )


class ClassificationError(ValidationError):
    """Input is not the image of an isometric Johnson-graph embedding."""


class BudgetExhaustedError(GrassmannLabError):
    """A search ran out of its node budget before reaching a certificate."""


class InternalInvariantError(GrassmannLabError):
    """A condition that should be impossible for valid inputs; indicates a bug."""
