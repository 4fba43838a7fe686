"""Record classes: the part of the standard data-class decorator that the
package uses, without its import (which loads ``inspect``) and with one
compile per class instead of six.

``@record`` and ``@record(frozen=True)`` take the fields from the class
annotations, in order, with class-level defaults, and add a
positional-or-keyword ``__init__`` that ends by calling ``__post_init__``
when the class has one, ``__repr__`` as ``Name(f=v, ...)``, ``__eq__`` on
the same class only, and ``__match_args__``.  A frozen record hashes as the
tuple of its fields and refuses assignment and deletion; a plain one is
unhashable.
"""


def record(cls=None, /, *, frozen=False):
    if cls is None:
        return lambda cls: _build(cls, frozen)
    return _build(cls, frozen)


def _build(cls, frozen: bool):
    names = tuple(cls.__dict__.get("__annotations__", ()))
    params = ", ".join(f"{n}=_cls.{n}" if n in cls.__dict__ else n
                       for n in names)
    store = "_init(self, {0!r}, {0})" if frozen else "self.{0} = {0}"
    body = [store.format(n) for n in names]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    mine = "".join(f"self.{n}, " for n in names)
    theirs = "".join(f"other.{n}, " for n in names)
    source = (
        f"def __init__(self, {params}):\n {'; '.join(body) or 'pass'}\n"
        "def __eq__(self, other):\n"
        " if other.__class__ is self.__class__:\n"
        f"  return ({mine}) == ({theirs})\n"
        " return NotImplemented\n"
        f"def __hash__(self):\n return hash(({mine}))\n")
    namespace = {"_cls": cls, "_init": object.__setattr__}
    exec(source, namespace)

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({fields})"

    cls.__init__ = namespace["__init__"]
    cls.__repr__ = __repr__
    cls.__eq__ = namespace["__eq__"]
    cls.__hash__ = namespace["__hash__"] if frozen else None
    cls.__match_args__ = names
    if frozen:
        cls.__setattr__ = _refuse_assignment
        cls.__delattr__ = _refuse_deletion
    return cls


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")
