"""Exception types shared across the package."""


class PatternError(ValueError):
    """Malformed pattern text or a sequence that is not a permutation."""


class NotIn132Class(ValueError):
    """The requested pattern contains (1,3,2).

    Every 132-avoiding permutation avoids such a pattern automatically,
    so the avoidance series degenerates to the Catalan numbers and is
    not a rational function; the symbolic engine refuses these inputs.
    """


class UnsupportedPattern(ValueError):
    """No exact closed form is implemented for this pattern/mode."""


class EnumerationCapExceeded(ValueError):
    """Requested n above an oracle safety cap."""
