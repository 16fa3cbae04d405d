"""A small base class for the package's value types.

It stands in for ``@dataclass`` to keep process start-up short: importing
:mod:`dataclasses` pulls in ``inspect`` and ``ast``, and each decorated
class compiles its methods with ``exec`` when it is created.

>>> class Point(Record, frozen=True):
...     x: int
...     y: int = 0
>>> Point(1)
Point(x=1, y=0)
>>> Point(1, 0) == Point(x=1) and hash(Point(1)) == hash(Point(1, 0))
True
"""

from __future__ import annotations

from operator import attrgetter


def _refuse_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _make_init(cls, names: tuple, defaults: tuple, store, post_init):
    """A constructor taking ``names`` in order or by keyword; the last ``len(defaults)`` are optional.

    It stores the fields one by one with ``store``, not through
    ``__dict__``, so instances keep CPython's compact attribute storage,
    which reads faster.
    """
    required = len(names) - len(defaults)

    def bind(args: tuple, kwargs: dict) -> list:
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given")
        values = list(args)
        for i in range(len(args), len(names)):
            if names[i] in kwargs:
                values.append(kwargs.pop(names[i]))
            elif i >= required:
                values.append(defaults[i - required])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {names[i]!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {next(iter(kwargs))!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or not required <= len(args) <= len(names):
            args = bind(args, kwargs)
        elif len(args) < len(names):
            args += defaults[len(args) - required:]
        for key, value in zip(names, args):
            store(self, key, value)
        if post_init is not None:
            post_init(self)

    return __init__


class Record:
    """Fields are the names a subclass annotates in its own body, in order.

    A class attribute of the same name is the field's default; as for a
    function's parameters, fields with defaults come last.  A name that
    starts with ``_`` is derived state, set by ``__post_init__``: it is
    not a constructor argument and takes no part in equality, hashing or
    ``repr``.  Equality holds only between instances of the same class.
    ``frozen=True`` refuses assignment and makes instances hashable;
    otherwise they are mutable and unhashable.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__
        names = tuple(n for n in own.get("__annotations__", ()) if not n.startswith("_"))
        required = sum(n not in own for n in names)
        if any(n in own for n in names[:required]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
        cls._fields = names
        # What equality and hashing compare: the class, then the field values.
        cls._key = attrgetter("__class__", *names)
        if frozen:
            cls.__setattr__ = _refuse_setattr
            cls.__delattr__ = _refuse_delattr
            store = object.__setattr__  # around the class's own refusal
        else:
            cls.__hash__ = None
            store = setattr
        defaults = tuple(own[n] for n in names[required:])
        cls.__init__ = _make_init(cls, names, defaults, store, getattr(cls, "__post_init__", None))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"
