"""The one base of polybox's immutable value classes.

A subclass names its fields once, as its own class annotations, and gets
what a frozen dataclass has: construction by position or keyword followed
by `__post_init__`, equality and hash over the fields, a `Name(field=...)`
repr and an AttributeError on assignment.  The dataclasses module is not
used: importing it (with inspect, ast, dis and tokenize) and building each
class's methods through exec cost every CLI process about 10 ms.
"""

from operator import attrgetter


class Frozen:
    """Base of a value class whose fields are its own class annotations."""

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        # the field values, or the one value of a one-field class
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            values = dict(zip(fields, args), **kwargs)
            if len(args) + len(kwargs) != len(fields) or values.keys() != set(fields):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
            args = [values[name] for name in fields]
        # object.__setattr__, not __dict__.update: a materialised __dict__
        # makes every later attribute read about three times slower
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        # a frozen dataclass hashes the tuple of its fields
        key = self._key(self)
        return hash(key if len(self._fields) > 1 else (key,))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
