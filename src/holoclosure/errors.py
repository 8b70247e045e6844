"""Shared exception types: resource budgets, semantic preconditions, internal invariants."""


class InputReadError(Exception):
    """The input file could not be opened or read."""


class ResourceLimitError(Exception):
    """A configured pair / degree / size budget was exceeded."""


class EmptySetError(Exception):
    """The input equations define the empty set (unit ideal)."""


class PointNotOnSetError(Exception):
    """A supplied point does not satisfy every defining equation."""


class NonSmoothPointError(Exception):
    """Jacobian rank at the point is below the expected codimension."""


class SamplingError(Exception):
    """No rational point on the variety was found within the retry budget."""


class InvariantError(Exception):
    """An internal consistency check failed: a defect in the toolkit, not in the input."""
