"""Exception taxonomy shared by all layers.

The CLI maps these onto its exit-code contract: InputError -> 2,
PreconditionError / CertificationError -> 1, BudgetError -> 3.
"""


class InputError(ValueError):
    """Malformed input: dimension mismatch, unknown kind, bad document."""


class PreconditionError(RuntimeError):
    """A checked precondition (certification of an input) failed."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class CertificationError(RuntimeError):
    """A construction produced output that fails its target axioms."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class BudgetError(RuntimeError):
    """An enumeration, or the size of exact entries, would exceed its budget."""

    def __init__(self, message, needed=None, budget=None):
        super().__init__(message)
        self.needed = needed
        self.budget = budget


class UnsupportedError(InputError):
    """A generator cannot produce the requested kind/dimension."""
