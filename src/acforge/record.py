"""A base for the package's small immutable value classes.

A subclass names its fields in ``__slots__``, in the order of its
constructor's parameters, and sets them in ``__init__`` with ``set_field``
(records are frozen, so plain assignment raises).  Equality and hash go
by type and fields, so records of different classes never compare equal
and a record never equals a tuple; the repr is ``Name(field=value, ...)``.
Records are the classes whose constructor checks its fields, and the five
AC moves, which check nothing but need that equality: ``CyclicPermute(1, 2)``
is not ``Destabilize(1, 2)``.  The rest are ``typing.NamedTuple`` classes.
Neither form imports ``inspect``.  A Record class generates no code; a
NamedTuple class does, as ``collections.namedtuple`` evals one ``__new__``
for each class, about 100 us apiece at import.
"""

from __future__ import annotations

# sets a field of a record, past the frozen ``__setattr__``
set_field = object.__setattr__


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        """Copy and pickle through the constructor; by default they would
        set the slots through the frozen ``__setattr__``."""
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
