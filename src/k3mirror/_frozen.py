"""The base of the package's value types: frozen records on ``__slots__``.

``Frozen`` gives a subclass what ``@dataclass(frozen=True)`` would, without
importing ``dataclasses`` (and with it ``inspect``) on every cold start.
"""

_set = object.__setattr__


class Frozen:
    """A subclass names its fields, in constructor order, in ``__slots__``
    and the defaults of trailing fields in ``_defaults``.

    Construction takes the fields positionally or by keyword and then calls
    ``self.__post_init__()``, which may validate and normalise fields through
    ``object.__setattr__``; ``_known`` builds a value the library derived, valid
    by construction, without that call.  Equality and hash compare the field values of
    instances of one class; the repr is ``Name(field=value, ...)``;
    assignment and deletion raise ``AttributeError``; pickle and copy rebuild
    an instance through its constructor.
    """

    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)
        self.__post_init__()

    @classmethod
    def _known(cls, *values):
        """The instance with these stored field values, in slot order, unchecked."""
        obj = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            _set(obj, name, value)
        return obj

    @classmethod
    def _bind(cls, args, kwargs):
        fields = cls.__slots__
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments "
                            f"but {len(args)} were given")
        values = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            problem = "multiple values for" if name in fields else "an unexpected keyword"
            raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")
        return values

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()
