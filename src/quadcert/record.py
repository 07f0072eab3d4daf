"""Immutable records: values compared by their fields.

A record class lists its fields in `__slots__` (a tuple, in the order of its
`__init__` parameters) and sets each one once in its own `__init__`, after
validating its arguments, through `set_field`; after that every assignment
and deletion raises AttributeError. Two records are equal when they are of
one class and their fields are equal, and a record hashes, and prints, by its
fields. `cli` writes a record as the object of its fields.
"""

# object.__setattr__ passes the frozen __setattr__ below; bound once here, a
# call costs less than looking it up on `object` for every field
set_field = object.__setattr__


class Record:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a record")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self.__slots__
        return [getattr(self, f) for f in names] == [getattr(other, f) for f in names]

    def __hash__(self):
        return hash(tuple(getattr(self, f) for f in self.__slots__))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
