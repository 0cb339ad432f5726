"""Record classes against stdlib ``dataclasses``, the reference they mirror.

Each kind of record the package defines is declared twice from one class
body, once with ``@record`` and once with ``@dataclass`` under the same
options; the two must agree on ``repr``, ``==``, ``hash``, ``replace`` and
``__post_init__``, and a frozen one must refuse assignment and deletion.
"""

import dataclasses
import inspect
from fractions import Fraction

import pytest

from physkernel.record import record, replace


def _classes(decorate):
    @decorate(frozen=True)
    class Value:
        """A frozen value class with defaults and ``__post_init__``."""

        name: str
        amount: Fraction = Fraction(0)
        unit: str | None = None

        def __post_init__(self):
            if isinstance(self.amount, int):
                object.__setattr__(self, "amount", Fraction(self.amount))

    @decorate(frozen=True, eq=False)
    class Node:
        """An identity node, like the AST's."""

        lhs: object
        rhs: object = None

    @decorate
    class Mutable:
        goal: str
        hyps: list

    @decorate(frozen=True)
    class Empty:
        pass

    return Value, Node, Mutable, Empty


MINE = _classes(record)
THEIRS = _classes(dataclasses.dataclass)
SAMPLES = {  # constructor arguments per class, in the order of _classes
    "Value": [("a",), ("a", 3), ("a", Fraction(1, 2), "m"), ("b", 0, None)],
    "Node": [(1,), (1, (2, 3)), ("x", None)],
    "Mutable": [("g", []), ("g", [1, 2])],
    "Empty": [()],
}


@pytest.mark.parametrize("index", range(4))
def test_records_match_dataclasses(index):
    mine, theirs = MINE[index], THEIRS[index]
    assert mine.__qualname__ == theirs.__qualname__
    ours = list(inspect.signature(mine).parameters.values())
    ref = list(inspect.signature(theirs).parameters.values())
    assert [(p.name, p.default) for p in ours] == [
        (p.name, p.default) for p in ref]
    samples = SAMPLES[mine.__name__]
    built = [(mine(*args), theirs(*args)) for args in samples]
    for a, b in built:
        assert repr(a) == repr(b)
        assert (a == a) is (b == b) is True
        assert (a == object()) is (b == object()) is False
        if theirs.__hash__ is None:
            assert mine.__hash__ is None
        elif theirs.__eq__ is object.__eq__:
            assert hash(a) == object.__hash__(a)
        else:
            assert hash(a) == hash(b)
    for (a1, b1) in built:
        for (a2, b2) in built:
            assert (a1 == a2) == (b1 == b2)
            assert (a1 == mine(*samples[0])) == (b1 == theirs(*samples[0]))
    fields = [f.name for f in dataclasses.fields(theirs)]
    for a, b in built:
        for f in fields:
            value = getattr(b, f)
            changes = {f: 7 if isinstance(value, (int, Fraction)) else "z"}
            assert repr(replace(a, **changes)) == repr(
                dataclasses.replace(b, **changes))
        assert repr(replace(a)) == repr(dataclasses.replace(b))
        assert replace(a) is not a


@pytest.mark.parametrize("index", [0, 1, 3])
def test_frozen_records_refuse_assignment_and_deletion(index):
    obj = MINE[index](*SAMPLES[MINE[index].__name__][-1])
    for name in ("lhs", "name", "other"):
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
        with pytest.raises(AttributeError):
            delattr(obj, name)


def test_replace_refuses_an_unknown_field():
    value = MINE[0]("a")
    with pytest.raises(TypeError):
        replace(value, weight=1)
    with pytest.raises(TypeError):
        dataclasses.replace(THEIRS[0]("a"), weight=1)


def test_a_class_body_keeps_its_own_methods():
    @record(frozen=True)
    class Shown:
        x: int

        def __repr__(self):
            return "shown"

    assert repr(Shown(1)) == "shown"
    assert Shown(1) == Shown(1) and hash(Shown(1)) == hash((1,))
