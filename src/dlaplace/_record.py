"""A base for the package's small immutable value types.

A subclass names its fields, in order, in ``__slots__`` and stores them
in ``__init__`` with ``object.__setattr__``.  It then equals an instance
of the same class with equal fields, hashes as the tuple of its fields,
prints as ``Name(field=value, ...)``, refuses assignment and deletion
with ``AttributeError``, and is copied and pickled through its
constructor.  Nothing is generated or executed when a subclass is
defined, so importing the package stays cheap.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Equality, hash, repr and immutability from the fields in __slots__."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # a tuple of the field values; every subclass has two or more
        cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._fields(self)
