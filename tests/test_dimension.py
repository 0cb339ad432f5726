"""Dimension algebra against an independent 7-tuple oracle.

The oracle below manipulates plain tuples of Fractions with no knowledge
of the Dimension class, so agreement is evidence the class implements the
free abelian group over the seven base dimensions correctly.  The class
keeps each exponent as an ``int`` where it is integral; the oracle keeps
``Fraction`` throughout, and the two must still agree on every value and
every rendering.
"""

import random
from fractions import Fraction

import pytest

from physkernel.dimension import DIMENSIONLESS, BaseDim, Dimension
from physkernel.errors import DimensionOverflow

N_GROUP_LAW_CASES = 1200

# Independent SI reference vectors in (T, L, M, I, Θ, N, J) order.
SI_TABLE = {
    "speed":        (-1, 1, 0, 0, 0, 0, 0),
    "acceleration": (-2, 1, 0, 0, 0, 0, 0),
    "force":        (-2, 1, 1, 0, 0, 0, 0),
    "energy":       (-2, 2, 1, 0, 0, 0, 0),
    "power":        (-3, 2, 1, 0, 0, 0, 0),
    "pressure":     (-2, -1, 1, 0, 0, 0, 0),
    "charge":       (1, 0, 0, 1, 0, 0, 0),
    "voltage":      (-3, 2, 1, -1, 0, 0, 0),
    "capacitance":  (4, -2, -1, 2, 0, 0, 0),
    "resistance":   (-3, 2, 1, -2, 0, 0, 0),
}


def t_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def t_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def mk(vec):
    return Dimension.from_map(
        {BaseDim(i): Fraction(e) for i, e in enumerate(vec) if e})


def assert_normal(d):
    """Every exponent is an int, or a Fraction that is not integral."""
    for e in d.exponents:
        assert type(e) is int or (type(e) is Fraction and e.denominator != 1), \
            repr(e)


ORACLE_ORDER = ((2, "M"), (1, "L"), (0, "T"), (3, "I"), (4, "Θ"), (5, "N"),
                (6, "J"))


def oracle_render(vec):
    parts = []
    for i, symbol in ORACLE_ORDER:
        e = Fraction(vec[i])
        if e == 1:
            parts.append(symbol)
        elif e.denominator == 1 and e:
            parts.append(f"{symbol}^{e.numerator}")
        elif e:
            parts.append(f"{symbol}^{e.numerator}/{e.denominator}")
    return " ".join(parts) or "1"


def rand_vec(rng, denom_max=4):
    return tuple(
        Fraction(rng.randint(-6, 6), rng.randint(1, denom_max))
        for _ in range(7))


def test_si_reference_vectors():
    # force = mass * acceleration, energy = force * length, etc.
    f = SI_TABLE
    assert t_mul((0, 0, 1, 0, 0, 0, 0), f["acceleration"]) == f["force"]
    assert t_mul(f["force"], (0, 1, 0, 0, 0, 0, 0)) == f["energy"]
    assert t_div(f["energy"], (1, 0, 0, 0, 0, 0, 0)) == f["power"]
    assert t_div(f["charge"], f["voltage"]) == f["capacitance"]
    for vec in f.values():
        d = mk(vec)
        assert tuple(d.exponents) == tuple(Fraction(e) for e in vec)


def test_group_laws_bulk():
    rng = random.Random(20240817)
    for case in range(N_GROUP_LAW_CASES):
        a, b, c = (rand_vec(rng) for _ in range(3))
        da, db_, dc = mk(a), mk(b), mk(c)
        # closure + associativity + commutativity against the tuple oracle
        assert tuple((da.combine(db_)).exponents) == t_mul(a, b)
        assert da.combine(db_) == db_.combine(da)
        assert (da.combine(db_)).combine(dc) == da.combine(db_.combine(dc))
        # identity and inverses
        assert da.combine(DIMENSIONLESS) == da
        assert da.combine(da.invert()) == DIMENSIONLESS
        assert tuple(da.combine(db_.invert()).exponents) == t_div(a, b)
        # integer and fractional powers distribute over exponents
        k = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert tuple(da.scale(k).exponents) == tuple(x * k for x in a)
        # every result is in normal form and renders as the oracle does
        results = {
            a: da, t_mul(a, b): da.combine(db_),
            tuple(-x for x in a): da.invert(),
            t_div(a, b): da.combine(db_.invert()),
            tuple(x * k for x in a): da.scale(k),
            tuple(x * k.numerator for x in a): da.scale(k.numerator),
        }
        for vec, d in results.items():
            assert_normal(d)
            assert d.render() == oracle_render(vec)
            assert d == Dimension(vec) and hash(d) == hash(Dimension(vec))


def test_render_conventions():
    force = mk(SI_TABLE["force"])
    assert force.render() == "M L T^-2"
    assert DIMENSIONLESS.render() == "1"
    assert mk((0, 1, 0, 0, 0, 0, 0)).render() == "L"
    half = Dimension.from_map({BaseDim.LENGTH: Fraction(1, 2)})
    assert half.render() == "L^1/2"


def test_equality_and_hash():
    a = mk(SI_TABLE["energy"])
    b = mk((0, 0, 1, 0, 0, 0, 0)).combine(mk((-2, 2, 0, 0, 0, 0, 0)))
    assert a == b and hash(a) == hash(b)
    assert a != mk(SI_TABLE["power"])


def test_overflow_guard():
    big = Dimension.from_map({BaseDim.MASS: Fraction(2**40)})
    with pytest.raises(DimensionOverflow):
        big.scale(Fraction(2**40))


def mass(e):
    return Dimension.from_map({BaseDim.MASS: e})


@pytest.mark.parametrize("sign", [1, -1])
def test_overflow_fires_at_exactly_two_to_the_63(sign):
    top = 2**63 - 1
    # construction, as an int, an integral Fraction and a numerator or
    # denominator of a Fraction
    for e in (top, Fraction(top), Fraction(top, 2), Fraction(1, top)):
        assert_normal(mass(sign * e))
    for e in (2**63, Fraction(2**63), Fraction(2**63, 3), Fraction(1, 2**63)):
        with pytest.raises(DimensionOverflow):
            mass(sign * e)
    with pytest.raises(DimensionOverflow):
        Dimension((0, 0, sign * 2**63, 0, 0, 0, 0))
    # combine
    half = mass(sign * 2**62)
    assert half.combine(mass(sign * (2**62 - 1))).exponents[2] == sign * top
    with pytest.raises(DimensionOverflow):
        half.combine(half)
    third = mass(sign * Fraction(2**63 - 2, 3))
    assert third.combine(mass(sign * Fraction(1, 3))).exponents[2] \
        == sign * Fraction(top, 3)
    with pytest.raises(DimensionOverflow):
        mass(sign * Fraction(top, 3)).combine(mass(sign * Fraction(1, 3)))
    # scale, by an int and by a Fraction
    assert mass(top).scale(sign).exponents[2] == sign * top
    for factor in (2, Fraction(2), Fraction(-2)):
        with pytest.raises(DimensionOverflow):
            half.scale(sign * factor)
    with pytest.raises(DimensionOverflow):
        mass(Fraction(1, 2**62)).scale(sign * Fraction(1, 2))
    assert mass(Fraction(1, top)).scale(sign).exponents[2] \
        == sign * Fraction(1, top)
    # invert cannot leave the range: it is symmetric
    assert mass(top).invert().exponents[2] == -top


def test_dimensionless_is_identity_for_every_named_vector():
    for vec in SI_TABLE.values():
        d = mk(vec)
        assert d.combine(d.invert()) == DIMENSIONLESS
        assert d.scale(Fraction(0)) == DIMENSIONLESS
