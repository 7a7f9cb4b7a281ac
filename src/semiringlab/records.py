"""Plain value classes: field-wise equality, a readable repr, copies with changes.

The structures, ideals, weights and report rows are small records.  They
are written as plain classes rather than dataclasses because importing
``dataclasses`` loads ``inspect`` and building each dataclass runs ``exec``
on generated code, which together were about two thirds of the time to
import the command line.  Each class writes its own ``__init__`` (several
are built tens of thousands of times a run, and each validates its input)
and names its fields in ``_fields``, in constructor order.  ``==`` holds
between instances of the same class whose ``_compared`` fields (by default
all of ``_fields``) are equal; an instance of another class, even a
subclass, is never equal.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """A mutable record: not hashable, as a mutable value must not be."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if compared := cls._compared or cls._fields:
            cls._key = attrgetter(*compared)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # Unpickling calls the constructor, so a copy sent between processes
        # is validated again and never bypasses a read-only field.
        return type(self), self._values()

    def replace(self, **changes):
        """A copy with the named fields changed, built (and so validated) by the constructor."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})


class FrozenRecord(Record):
    """An immutable record: assigning or deleting an attribute raises AttributeError."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")
