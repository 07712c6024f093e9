"""The base of the package's frozen records.  A subclass's fields are its
annotated names, its bases' first, class attributes their defaults; it gets
an ``__init__`` that ends in ``__post_init__`` if there is one, an ``__eq__``
for its own class and a ``__hash__`` of the field tuple, compiled for its
fields as ``dataclasses`` compiles them.  Setting or deleting an attribute
raises ``AttributeError``."""


class _Record:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        fields, scope = {}, {"_set": object.__setattr__}
        for c in reversed(cls.__mro__):
            for n in getattr(c, "__annotations__", {}):
                fields[n] = n
                if n in vars(c) and n not in vars(c).get("__slots__", ()):
                    fields[n], scope[f"_d_{n}"] = f"{n}=_d_{n}", vars(c)[n]
        values = "".join(f"self.{n}," for n in fields)
        exec(
            f"def __init__(self, {', '.join(fields.values())}):\n"
            + "".join(f" _set(self, {n!r}, {n})\n" for n in fields)
            + (" self.__post_init__()\n" if hasattr(cls, "__post_init__") else "")
            + "def __eq__(self, other):\n if other.__class__ is self.__class__:\n"
            + f"  return ({values}) == ({values.replace('self.', 'other.')})\n return NotImplemented\n"
            + f"def __hash__(self):\n return hash(({values}))\n",
            scope,
        )
        for name in ("__init__", "__eq__", "__hash__"):
            scope[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, scope[name])
        cls.__match_args__ = tuple(fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is frozen")

    __delattr__ = __setattr__

    def __getstate__(self) -> list:
        return [getattr(self, n) for n in self.__match_args__]

    def __setstate__(self, state: list) -> None:
        self.__init__(*state)
