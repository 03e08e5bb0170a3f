"""The immutable record base shared by arclift's input and result types."""

from operator import attrgetter


class Record:
    """An immutable record whose fields are its class's own annotations, in order.

    It gives what arclift used of frozen dataclasses: positional or keyword
    construction with class-level defaults, then __post_init__; the dataclass
    repr; equality and hash over the fields (identity with eq=False); and
    replace(), which builds and so validates again.  No __slots__, since
    cached_property needs __dict__.  `dataclasses` cost every `python -m
    arclift` about 20 ms of CPU of some 100 (Python 3.11): 7-13 ms to
    import it with inspect, ast, dis and tokenize, 8-14 ms to generate
    eleven classes.  Fields are set as the generated __init__ sets them,
    keeping attribute reads fast, and taken once as the _key that equality
    compares, as fast as the generated __eq__ (Poly._values compares a ring
    per value; two attrgetter calls per comparison were 1.5x slower).
    """

    def __init_subclass__(cls, eq=True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._getter = attrgetter(*cls._fields)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        cls, fields = type(self), self._fields
        rest = fields[len(args):]
        if len(args) > len(fields) or any(f not in kwargs and f not in cls.__dict__ for f in rest):
            raise TypeError(f"{cls.__name__} needs {fields}, got {len(args)} values and {sorted(kwargs)}")
        values = args + tuple(kwargs.pop(f, cls.__dict__.get(f)) for f in rest)
        if kwargs:
            raise TypeError(f"{cls.__name__} got unexpected or repeated fields {sorted(kwargs)}")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)
        if hasattr(self, "__post_init__"):
            self.__post_init__()
        object.__setattr__(self, "_key", self._getter(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of {type(self).__name__}")

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def replace(self, **changes):
        """A new record with these fields changed, built and validated like any other."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields}, **changes})
