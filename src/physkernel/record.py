"""Record classes: the part of :mod:`dataclasses` this package uses.

``@record`` reads the fields from the class body's annotations, in order; a
class attribute of the same name is the field's default.  It adds the
methods that ``dataclasses.dataclass`` adds for the same options, unless the
class body defines them:

* ``__init__`` taking the fields in order, then calling ``__post_init__``
  when the class has one;
* ``__repr__``, ``Name(field=value, ...)``;
* for a value class (``eq=True``), ``__eq__`` over the fields; a frozen value
  class hashes its fields and a mutable one is unhashable;
* for ``frozen=True``, ``__setattr__`` and ``__delattr__`` that raise
  :class:`FrozenInstanceError`.

:func:`replace` copies a record with some fields changed.

Why not ``dataclasses``: importing it (and ``inspect``) costs about 10 ms,
and a frozen dataclass runs six ``exec`` calls.  The package now has 73
record classes; over the 74 it had when this was measured, that was about
60 ms of every cold command-line start, which compiles without a bytecode
cache.  ``@record`` runs one ``exec`` per class, about a sixth of that.
"""

from __future__ import annotations

__all__ = ["FrozenInstanceError", "record", "replace"]


class FrozenInstanceError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a frozen record."""


def _repr(self) -> str:
    shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._record_fields)
    return f"{self.__class__.__qualname__}({shown})"


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls=None, /, *, frozen: bool = False, eq: bool = True):
    """Class decorator: make ``cls`` a record (see the module docstring)."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen, eq=eq)
    fields = tuple(cls.__annotations__)
    # The generated code names each default, which this namespace holds.
    namespace = {f"_default_{f}": cls.__dict__[f]
                 for f in fields if f in cls.__dict__}
    # A frozen record sets its fields through object.__setattr__, which its
    # own __setattr__ does not stop.  Writing to self.__dict__ instead is
    # faster but makes CPython (3.11 and later) give each instance a dict
    # of its own, 64 bytes more per AST node.
    namespace["_set"] = object.__setattr__
    assign = "_set(self, {0!r}, {0})" if frozen else "self.{0} = {0}"
    params = ", ".join(["self"] + [
        f"{f}=_default_{f}" if f"_default_{f}" in namespace else f
        for f in fields])
    source = [f"def __init__({params}):"]
    source += ["    " + assign.format(f) for f in fields] or ["    pass"]
    if hasattr(cls, "__post_init__"):
        source.append("    self.__post_init__()")
    if eq:
        mine = "".join(f"self.{f}, " for f in fields)
        other = "".join(f"other.{f}, " for f in fields)
        source += [
            "def __eq__(self, other):",
            "    if other.__class__ is self.__class__:",
            f"        return ({mine}) == ({other})",
            "    return NotImplemented",
        ]
        if frozen:
            source += ["def __hash__(self):", f"    return hash(({mine}))"]
    exec("\n".join(source), namespace)
    methods = {"__init__": namespace["__init__"], "__repr__": _repr}
    if eq:
        methods["__eq__"] = namespace["__eq__"]
        methods["__hash__"] = namespace.get("__hash__")
    if frozen:
        methods["__setattr__"] = _frozen_setattr
        methods["__delattr__"] = _frozen_delattr
    for name, fn in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, fn)
    cls._record_fields = fields
    return cls


def replace(obj, /, **changes):
    """A copy of the record ``obj`` with the named fields changed."""
    for f in obj._record_fields:
        if f not in changes:
            changes[f] = getattr(obj, f)
    return obj.__class__(**changes)
