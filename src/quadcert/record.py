"""Immutable records: values compared by their fields.

A record class lists its fields in `__slots__` (a tuple). `Record.__init__`
sets them in that order: first from the values given by position, then the
rest by field name. It raises TypeError when a field is missing, a name is
not a field, a field is given both by position and by name, or there are
more values than fields. A class that validates its arguments has its own
`__init__`, taking exactly the fields, which checks them and then calls
`Record.__init__`. After that every assignment and deletion raises
AttributeError. Two records are equal when they are of one class and their
fields are equal, and a record hashes, and prints, by its fields. `cli`
writes a record as the object of its fields.
"""

# object.__setattr__ passes the frozen __setattr__ below; bound once here, a
# call costs less than looking it up on `object` for every field
set_field = object.__setattr__


class Record:
    __slots__ = ()

    def __init__(self, *values, **named):
        names = self.__slots__
        if len(values) > len(names):
            raise TypeError(f"{len(values)} values for the {len(names)} fields of a record")
        for name, value in zip(names, values):
            set_field(self, name, value)
        for name in names[len(values):]:
            if name not in named:
                raise TypeError(f"field {name!r} of a record is missing")
            set_field(self, name, named.pop(name))
        if named:
            raise TypeError(f"{next(iter(named))!r} is not a field of a record, or is given twice")

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
