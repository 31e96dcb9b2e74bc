"""The read-only base of the validated config records.

A record names its fields in `_fields`, in the order its constructor
takes them, and holds each in a slot.  Its `__init__` checks the
arguments, then stores them once with `_set`; after that, assigning or
deleting a field raises AttributeError.  `_replace` makes a changed copy
through the constructor, so the copy is checked as the original was.
Equality, hashing, repr and pickling go by the field values, so two
records of one class with equal fields are interchangeable.
"""

from __future__ import annotations


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _replace(self, **changes):
        values = [changes.pop(name, value) for name, value in zip(self._fields, self._values())]
        # a name that is not a field reaches the constructor as a keyword and fails there
        return type(self)(*values, **changes)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of read-only {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of read-only {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # rebuilt through the constructor, which checks the fields again
        return type(self), self._values()
