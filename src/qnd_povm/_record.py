"""`Record`, the base of the package's immutable value types.

A value type's fields are the parameters of its `__init__`, which checks
them and stores them, in order, with `_keep`.  Records compare, hash and
print by their fields and refuse assignment and deletion, as a frozen
dataclass does, but compile no generated methods at import.  A
`functools.cached_property` still caches: it writes to the instance dict.
"""


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _keep(self, *values):
        # object.__setattr__, not vars(self): reading the dict out of the
        # instance makes every later attribute read about three times slower
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"
