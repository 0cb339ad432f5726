"""Built-in unit database against an independently written SI table."""

from fractions import Fraction

import pytest

from physkernel.dimension import BaseDim, Dimension
from physkernel.errors import UnknownIdentifier
from physkernel.quantity import Quantity
from physkernel.unitdb import Topic, builtin_database

# (T, L, M, I, Θ, N, J) exponents, written from the SI brochure, not from
# the package source.
EXPECTED_UNITS = {
    "second":   (1, 0, 0, 0, 0, 0, 0),
    "meter":    (0, 1, 0, 0, 0, 0, 0),
    "kilogram": (0, 0, 1, 0, 0, 0, 0),
    "ampere":   (0, 0, 0, 1, 0, 0, 0),
    "kelvin":   (0, 0, 0, 0, 1, 0, 0),
    "mole":     (0, 0, 0, 0, 0, 1, 0),
    "candela":  (0, 0, 0, 0, 0, 0, 1),
    "hertz":    (-1, 0, 0, 0, 0, 0, 0),
    "newton":   (-2, 1, 1, 0, 0, 0, 0),
    "pascal":   (-2, -1, 1, 0, 0, 0, 0),
    "joule":    (-2, 2, 1, 0, 0, 0, 0),
    "watt":     (-3, 2, 1, 0, 0, 0, 0),
    "coulomb":  (1, 0, 0, 1, 0, 0, 0),
    "volt":     (-3, 2, 1, -1, 0, 0, 0),
    "farad":    (4, -2, -1, 2, 0, 0, 0),
    "ohm":      (-3, 2, 1, -2, 0, 0, 0),
    "gram":     (0, 0, 1, 0, 0, 0, 0),
}

EXPECTED_PREFIXES = {
    "yocto": -24, "zepto": -21, "atto": -18, "femto": -15, "pico": -12,
    "nano": -9, "micro": -6, "milli": -3, "centi": -2, "deci": -1,
    "deca": 1, "hecto": 2, "kilo": 3, "mega": 6, "giga": 9, "tera": 12,
    "peta": 15, "exa": 18, "zetta": 21, "yotta": 24,
}


def test_unit_exponent_vectors(db):
    assert set(EXPECTED_UNITS) == set(db.units)
    for name, vec in EXPECTED_UNITS.items():
        assert tuple(db.unit(name).dim.exponents) == \
            tuple(Fraction(e) for e in vec), name


def test_only_gram_is_scaled(db):
    for name in EXPECTED_UNITS:
        expected = Fraction(1, 1000) if name == "gram" else Fraction(1)
        assert db.units[name].scale == expected, name


def test_prefix_factors(db):
    assert set(EXPECTED_PREFIXES) == set(db.prefixes)
    for name, exp in EXPECTED_PREFIXES.items():
        factor = db.prefix(name)
        assert factor == Fraction(10) ** exp, name


def test_prefix_acts_on_value_not_dimension(db):
    meter = db.unit("meter")
    q = Quantity(Fraction(5), meter.dim)
    scaled = q.smul(db.prefix("nano"))
    assert scaled.dim == meter.dim
    assert scaled.val() == Fraction(5, 10**9)


def test_builtin_constants(db):
    g = db.constant("g")
    assert g.val() == Fraction(49, 5)
    assert g.dim == db.kind("Acceleration")
    K = db.constant("K")
    assert K.val() == Fraction(9 * 10**9)
    # K has the dimension of force·length²/charge²
    force = db.kind("Force")
    length = db.kind("Length")
    charge = db.kind("Charge")
    assert K.dim == force.combine(length.scale(2)).combine(
        charge.scale(2).invert())
    assert not isinstance(db.constant("pi").value, Fraction)


def test_pi_alias_tracks_override(db):
    three = Quantity.scalar(Fraction(3))
    db2 = db.with_constants({"π": three})
    assert db2.constant("pi").val() == Fraction(3)
    assert db2.constant("π").val() == Fraction(3)
    db3 = db.with_constants({"pi": three})
    assert db3.constant("π").val() == Fraction(3)
    assert "pi" in db3.overridden


def test_override_leaves_base_database_untouched(db):
    db.with_constants({"g": Quantity.scalar(Fraction(10))})
    assert db.constant("g").val() == Fraction(49, 5)


def test_unknown_names_get_suggestions(db):
    with pytest.raises(UnknownIdentifier) as e:
        db.unit("metre")
    assert "meter" in str(e.value)
    with pytest.raises(UnknownIdentifier):
        db.kind("Forse")


def test_kinds_cover_corpus_vocabulary(db):
    for kind in ("Real", "Time", "Length", "Mass", "Speed", "Acceleration",
                 "Force", "Pressure", "Volume", "Temperature", "Charge",
                 "Voltage", "Capacitance", "ElectricField"):
        db.kind(kind)
    assert db.kind("Real").is_dimensionless


def test_topics_enumeration():
    assert {t.value for t in Topic} == {
        "mechanics", "waves-acoustics", "thermodynamics",
        "electromagnetism", "optics", "modern-physics"}


def test_render_table_mentions_everything(db):
    table = db.render_table()
    for name in list(EXPECTED_UNITS) + list(EXPECTED_PREFIXES):
        assert name in table
