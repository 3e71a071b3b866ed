"""Plain records: the library's small value types as __slots__ classes.  A record
lists its fields in __slots__, in constructor order, and sets them in its own
__init__; the base compares, hashes, prints, copies and pickles by those fields."""


class Record:
    __slots__ = ()
    __hash__ = None  # mutable records are unhashable

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in zip(self.__slots__, self._values()))})"

    def __reduce__(self):
        return type(self), self._values()


class Frozen(Record):
    """Immutable and hashable by value: __init__ sets the fields with `_fill`,
    through the slot descriptors, and later assignment is refused."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _fill(self, *values) -> None:
        for put, value in zip(self._setters, values):
            put(self, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __hash__(self):
        return hash(self._values())
