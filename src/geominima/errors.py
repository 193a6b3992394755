"""Exception types shared across the package."""


class GeominimaError(Exception):
    """Base class for all library errors."""


class InputError(GeominimaError, ValueError):
    """Malformed or out-of-contract arguments (non-unit directions, singular
    transforms, bad exponent ranges, mismatched grids)."""


class DomainError(GeominimaError, ValueError):
    """Arguments that are well formed but outside the mathematical domain of
    the operation (origin not interior, excluded exponent, missing curvature
    function)."""


class UnsupportedError(GeominimaError, NotImplementedError):
    """Operation not available for this representation or dimension."""


class GenerationError(GeominimaError, RuntimeError):
    """Random body generation failed to produce a valid instance."""
