"""Exception hierarchy shared by every module.

All validation failures raise a subclass of BratteliError so the CLI can map
them to exit status 2 uniformly.
"""

from __future__ import annotations


class BratteliError(Exception):
    pass


class ParseError(BratteliError):
    """Bad input text (substitution spec, path literal)."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class UnknownLetter(ParseError):
    pass


class EmptyRule(ParseError):
    pass


class NotPrimitive(BratteliError):
    """No power of the incidence matrix is strictly positive.  Either letter
    pair[1] occurs in no sigma^n(letter pair[0]), n >= 1, by index, or every
    letter reaches every letter and pair is None: then period is the gcd,
    at least 2, of the incidence graph's cycle lengths."""

    def __init__(self, message: str, pair: tuple[int, int] | None = None, period: int | None = None):
        super().__init__(message)
        self.pair = pair
        self.period = period


class PeriodicDetected(BratteliError):
    """Morse-Hedlund screen found p(n) <= n, so the subshift is periodic."""

    def __init__(self, n: int, complexity: int):
        super().__init__(f"periodic substitution: complexity p({n}) = {complexity} <= {n}")
        self.n = n
        self.complexity = complexity


class PatchTooLarge(BratteliError):
    """A decode would produce more tiles than the library allows; tiles past
    the ceiling where the count stops are reported as "more than" it."""

    def __init__(self, depth: int, tiles: int, limit: int, ceiling: int):
        count = f"more than {ceiling}" if tiles > ceiling else tiles
        super().__init__(f"decode at depth {depth} would produce {count} tiles, above the limit of {limit}")
        self.depth = depth
        self.tiles = tiles
        self.limit = limit


class DotTooLarge(BratteliError):
    """A DOT export would have more lines than the library allows."""

    def __init__(self, depth: int, lines: int, limit: int):
        super().__init__(f"dot export at depth {depth} would have {lines} lines, above the limit of {limit}")
        self.depth = depth
        self.lines = lines
        self.limit = limit


class NoRootAboveOne(BratteliError):
    pass


class FieldMismatch(BratteliError):
    pass


class SingularSystem(BratteliError):
    pass


class IllegalCollarProduced(BratteliError):
    pass


class UnpairedExtreme(BratteliError):
    pass


class IncompatibleHorizontal(BratteliError):
    pass
