"""Immutable records: the parameter, table and result classes of the package.

A record's fields are the parameters of its ``__init__``, in order; the
``__init__`` stores them and runs the class's checks, ``__post_init__``,
where it has any. A record compares, hashes and prints by its fields, and
none can be set or deleted; a value that ``__post_init__`` derives (with
``object.__setattr__``) is no field. Plain classes rather than dataclasses,
which generate and compile the source of their methods at every import.
"""
from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def replace(record: Record, **changes) -> Record:
    """A new record of ``record``'s class with ``changes`` to its fields,
    checked as any new record is."""
    values = {name: getattr(record, name) for name in record._fields}
    values.update(changes)
    return record.__class__(**values)
