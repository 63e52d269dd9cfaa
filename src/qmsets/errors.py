"""Exception types shared across the library."""


class QmSetsError(Exception):
    """Base class for all library errors."""


class CompatibilityError(QmSetsError):
    """Operands live on different universes: every op raises this, before BasisError."""


class BasisError(QmSetsError):
    """Invalid basis, or a ket in the wrong basis for an operation on its universe."""


class BoundError(QmSetsError):
    """A configured enumeration bound was exceeded; `size`, when known, is the
    smallest bound that admits the input."""

    def __init__(self, message: str, size: int | None = None):
        self.size = size
        super().__init__(message)


class EmptyStateError(QmSetsError):
    """The empty set is not a legal state for probability conditioning."""


class GroupError(QmSetsError):
    """A set of permutations fails the group axioms."""


class ScenarioError(QmSetsError):
    """Scenario file syntax or semantic error."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
