"""The base of the records that must not act as tuples.

Most of the package's records are `typing.NamedTuple`s. The two whose
tuple behaviour would be wrong (a ring element that multiplies, a spec
that validates) derive from `Record`
instead: its fields are its `__slots__`, in order, set once by its
`__init__` through `_set` (or `object.__setattr__`, which skips `_set`'s
loop). Equality, hashing, the `Name(field=value, ...)` repr and pickling
read them, as for a frozen dataclass, and assigning or deleting a field
raises `FrozenRecord`.
"""

from __future__ import annotations

from .errors import FrozenRecord

_setattr = object.__setattr__


class Record:
    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            _setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenRecord(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenRecord(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
