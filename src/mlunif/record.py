"""Record classes: the annotated fields of a class body, in order, make its
constructor, equality and repr.

A subclass of `Record` declares `name: type` lines, with no defaults.  Its
constructor takes exactly the fields, positionally, and `__post_init__`
runs once they are set.  Two records are equal when they are of the same
class with equal fields; a `Record` is unhashable and a `FrozenRecord` is
immutable and hashed by its fields.  Nothing is compiled at run time, so
defining a record costs little more than defining a plain class.  A record
built in a hot loop, or one with a default, may define its own `__init__`
with the fields as parameters, in order.
"""

from operator import attrgetter


class Record:
    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = cls._fields = tuple(cls.__annotations__)
        # the field values as a tuple; attrgetter builds one only for two or
        # more names, and does it in C
        cls._values = staticmethod(attrgetter(*fields) if len(fields) > 1 else
                                   lambda record: tuple([getattr(record, f) for f in fields]))

    def __init__(self, *args):
        if len(args) != len(self._fields):
            raise TypeError("%s() takes %d arguments but %d were given"
                            % (type(self).__name__, len(self._fields), len(args)))
        for field, value in zip(self._fields, args):
            object.__setattr__(self, field, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (field, getattr(self, field)) for field in self._fields))


class FrozenRecord(Record):
    def __setattr__(self, name, value):
        raise AttributeError("cannot assign %r on a frozen record" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete %r from a frozen record" % name)

    def __hash__(self):
        return hash(self._values(self))
