"""The base of the package's immutable records.

A record names its fields in __slots__, in order, and writes its own
__init__, which validates the arguments and ends with one call to the
base __init__, passing a value for each field in __slots__ order; the
base stores them.  It also gives the record what a frozen dataclass
would: equality and hash over the fields in order, a repr
Name(field=value, ...) over every field, and AttributeError on
assigning or deleting any attribute.  Copy and pickle rebuild a record
from its stored fields.  The base does this without the dataclasses
module, whose import and code generation cost a cold command more than
the command itself.
"""

__all__ = ["Record"]


class Record:
    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # object.__reduce_ex__ hands over the slots as (None, {name: value}).
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"
