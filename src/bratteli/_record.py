"""Plain records: the library's small value types as __slots__ classes.  A record
lists its fields in __slots__, in constructor order, and sets them in its own
__init__; the base compares, hashes, prints, copies and pickles by those fields.
Frozen generates each class's `_fill` once: a straight call per field to its slot setter.
The two path classes are Frozen records too: a field that holds a diagram compares by
identity, so two paths are equal iff they share the diagram object and the normal form."""


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
        # _fill(self, f0, f1, ...): _set0(self, f0); _set1(self, f1); ...
        scope = {f"_set{i}": getattr(cls, name).__set__ for i, name in enumerate(cls.__slots__)}
        calls = "".join(f"\n    _set{i}(self, {name})" for i, name in enumerate(cls.__slots__))
        exec(f"def _fill(self, {', '.join(cls.__slots__)}):{calls}", scope)
        cls._fill = scope["_fill"]

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __hash__(self):
        return hash(self._values())
