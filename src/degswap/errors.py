"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Malformed or mutually inconsistent arguments (CLI exit code 2)."""


class RealizationError(InvalidInputError):
    """A degree sequence admits no realization.

    Carries the first violated feasibility condition in ``condition``.
    """

    def __init__(self, condition: str):
        super().__init__(condition)
        self.condition = condition


class ResourceLimitError(RuntimeError):
    """An exhaustive computation exceeded its configured bound (CLI exit code 3)."""


class InternalInconsistencyError(RuntimeError):
    """A structural guarantee was violated; indicates a bug, not bad input."""
