"""Plain record classes: the fields of a record are its ``__init__``'s
parameters.

A read-only record's ``__init__`` writes its fields into ``self.__dict__``;
after that, ``Frozen`` refuses to assign or delete an attribute.  Records
compare and hash by identity, except ``Value`` records, whose fields are
values that compare and hash.  Nothing here generates code: a record costs
its class body at import.  ``whole`` checks a count field.
"""

import operator


def _field_names(cls) -> tuple:
    code = cls.__init__.__code__
    return code.co_varnames[1:code.co_argcount]


class Record:
    """A record whose repr names its fields, as its constructor takes them."""

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in _field_names(type(self)))
        return f"{type(self).__qualname__}({shown})"


class Frozen(Record):
    """A read-only record: assigning or deleting an attribute raises
    AttributeError.  ``functools.cached_property`` still works on it, since
    it writes to the instance ``__dict__`` directly."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Value(Frozen):
    """A read-only record equal to another of its class with equal fields,
    and hashed on them."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = operator.attrgetter(*_field_names(cls))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))


def whole(value, rule: str) -> int:
    """``value`` as an int; ValueError stating ``rule`` unless it is a whole
    number."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise ValueError(f"{rule}, got {value!r}")
    return n
