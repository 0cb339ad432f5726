"""The unit, prefix, constant, and kind database.

All entries live in one flat namespace per category; the six topic labels
(mechanics, waves & acoustics, thermodynamics, electromagnetism, optics,
modern physics) are metadata tags on definitions, not lookup scopes.

Units carry an exact rational scale relative to the coherent SI unit of their
dimension; every coherent SI unit in the built-in table has scale exactly 1
(``gram``, at 1/1000, is the deliberate non-coherent exception).  Derived
units are written down as decompositions over the base units, so their
dimension vectors are computed, not hand-copied.

Physical constants are quantities.  ``g`` (standard gravity, the schoolbook
exact 49/5 m/s^2) and ``K`` (the Coulomb constant, the schoolbook exact
9*10^9 N m^2/C^2) are overridable per corpus file or per run; ``pi`` is the
one approximate constant.  Constant overrides never mutate a database: they
produce a derived view that records what was overridden.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .dimension import DIMENSIONLESS, BaseDim, Dimension
from .errors import UnknownIdentifier
from .quantity import PRECISION, Approx, Quantity, dec_pi
from .record import record

__all__ = [
    "Topic",
    "UnitDef",
    "PrefixDef",
    "ConstantDef",
    "KindDef",
    "UnitDatabase",
    "builtin_database",
]


class Topic(enum.Enum):
    """The six topic tags used to label definitions and corpus entries."""

    MECHANICS = "mechanics"
    WAVES_ACOUSTICS = "waves-acoustics"
    THERMODYNAMICS = "thermodynamics"
    ELECTROMAGNETISM = "electromagnetism"
    OPTICS = "optics"
    MODERN_PHYSICS = "modern-physics"


@record(frozen=True)
class UnitDef:
    name: str
    dim: Dimension
    scale: Fraction  # exact factor relative to the coherent SI unit
    topic: Topic


@record(frozen=True)
class PrefixDef:
    name: str
    factor: Fraction  # a power of ten with exponent in [-24, 24]


@record(frozen=True)
class ConstantDef:
    name: str
    quantity: Quantity
    topic: Topic
    overridable: bool = False


@record(frozen=True)
class KindDef:
    """A named dimension alias usable in declarations and casts."""

    name: str
    dim: Dimension
    topic: Topic


@record(frozen=True)
class UnitDatabase:
    units: dict[str, UnitDef]
    prefixes: dict[str, PrefixDef]
    constants: dict[str, ConstantDef]
    kinds: dict[str, KindDef]
    overridden: tuple[str, ...] = ()

    # -- lookups -------------------------------------------------------------

    def unit(self, name: str) -> Quantity:
        d = self.units.get(name)
        if d is None:
            raise UnknownIdentifier(name, "unit", self.units)
        return Quantity(d.scale, d.dim)

    def prefix(self, name: str) -> Fraction:
        d = self.prefixes.get(name)
        if d is None:
            raise UnknownIdentifier(name, "prefix", self.prefixes)
        return d.factor

    def constant(self, name: str) -> Quantity:
        d = self.constants.get(name)
        if d is None:
            raise UnknownIdentifier(name, "constant", self.constants)
        return d.quantity

    def kind(self, name: str) -> Dimension:
        d = self.kinds.get(name)
        if d is None:
            raise UnknownIdentifier(name, "kind", self.kinds)
        return d.dim

    # -- derived views ---------------------------------------------------------

    def with_constants(self, overrides: dict[str, Quantity]) -> "UnitDatabase":
        """A view with the given constants re-valued (or added).

        Overriding never mutates this database; the derived view records the
        overridden names so reports can echo them.
        """
        if not overrides:
            return self
        # Alias spellings (π/pi) are kept in sync: overriding either one
        # re-values both, and the canonical spelling is what gets recorded.
        normalized = {CONSTANT_ALIASES.get(n, n): q for n, q in overrides.items()}
        for alias, canon in CONSTANT_ALIASES.items():
            if canon in normalized:
                normalized[alias] = normalized[canon]
        constants = dict(self.constants)
        for name, q in normalized.items():
            old = constants.get(name)
            topic = old.topic if old else Topic.MECHANICS
            constants[name] = ConstantDef(name, q, topic, overridable=True)
        recorded = {CONSTANT_ALIASES.get(n, n) for n in overrides}
        return UnitDatabase(
            units=self.units,
            prefixes=self.prefixes,
            constants=constants,
            kinds=self.kinds,
            overridden=tuple(sorted(set(self.overridden) | recorded)),
        )

    # -- documentation -----------------------------------------------------------

    def render_table(self) -> str:
        """A plain-text reference table of everything in the database."""
        out = ["# Units", ""]
        for name in sorted(self.units):
            u = self.units[name]
            scale = "" if u.scale == 1 else f"  (scale {u.scale})"
            out.append(f"{name:<12} {u.dim.render():<24} [{u.topic.value}]{scale}")
        out += ["", "# Prefixes", ""]
        for name, p in sorted(self.prefixes.items(),
                              key=lambda kv: kv[1].factor):
            out.append(f"{name:<12} 10^{_prefix_exp(p.factor)}")
        out += ["", "# Constants", ""]
        for name in sorted(self.constants):
            c = self.constants[name]
            tag = " (overridable)" if c.overridable else ""
            out.append(f"{name:<12} {c.quantity.render()}{tag}")
        out += ["", "# Kinds", ""]
        for name in sorted(self.kinds):
            k = self.kinds[name]
            out.append(f"{name:<16} {k.dim.render():<24} [{k.topic.value}]")
        return "\n".join(out)


def _prefix_exp(factor: Fraction) -> int:
    if factor >= 1:
        return len(str(factor.numerator)) - 1
    return 1 - len(str(factor.denominator))


# ---------------------------------------------------------------------------
# the built-in table
# ---------------------------------------------------------------------------

_T = BaseDim.TIME
_L = BaseDim.LENGTH
_M = BaseDim.MASS
_I = BaseDim.CURRENT
_TH = BaseDim.TEMPERATURE
_N = BaseDim.AMOUNT
_J = BaseDim.LUMINOUS_INTENSITY

_BASE_UNITS: list[tuple[str, BaseDim, Topic]] = [
    ("second", _T, Topic.MECHANICS),
    ("meter", _L, Topic.MECHANICS),
    ("kilogram", _M, Topic.MECHANICS),
    ("ampere", _I, Topic.ELECTROMAGNETISM),
    ("kelvin", _TH, Topic.THERMODYNAMICS),
    ("mole", _N, Topic.THERMODYNAMICS),
    ("candela", _J, Topic.OPTICS),
]

# Derived units as decompositions over base units: name -> ({base: exp}, topic).
_DERIVED_UNITS: dict[str, tuple[dict[BaseDim, int], Topic]] = {
    "hertz": ({_T: -1}, Topic.WAVES_ACOUSTICS),
    "newton": ({_M: 1, _L: 1, _T: -2}, Topic.MECHANICS),
    "pascal": ({_M: 1, _L: -1, _T: -2}, Topic.MECHANICS),
    "joule": ({_M: 1, _L: 2, _T: -2}, Topic.MECHANICS),
    "watt": ({_M: 1, _L: 2, _T: -3}, Topic.MECHANICS),
    "coulomb": ({_T: 1, _I: 1}, Topic.ELECTROMAGNETISM),
    "volt": ({_M: 1, _L: 2, _T: -3, _I: -1}, Topic.ELECTROMAGNETISM),
    "farad": ({_M: -1, _L: -2, _T: 4, _I: 2}, Topic.ELECTROMAGNETISM),
    "ohm": ({_M: 1, _L: 2, _T: -3, _I: -2}, Topic.ELECTROMAGNETISM),
}

_PREFIXES: dict[str, int] = {
    "yocto": -24, "zepto": -21, "atto": -18, "femto": -15, "pico": -12,
    "nano": -9, "micro": -6, "milli": -3, "centi": -2, "deci": -1,
    "deca": 1, "hecto": 2, "kilo": 3, "mega": 6, "giga": 9,
    "tera": 12, "peta": 15, "exa": 18, "zetta": 21, "yotta": 24,
}

# Alternative spellings that denote the same constant.  Overrides and
# symbolic reasoning normalize through this map so the spellings never
# diverge.
CONSTANT_ALIASES: dict[str, str] = {"π": "pi"}

_KINDS: dict[str, tuple[dict[BaseDim, int], Topic]] = {
    "Real": ({}, Topic.MECHANICS),
    "Time": ({_T: 1}, Topic.MECHANICS),
    "Length": ({_L: 1}, Topic.MECHANICS),
    "Mass": ({_M: 1}, Topic.MECHANICS),
    "Current": ({_I: 1}, Topic.ELECTROMAGNETISM),
    "Temperature": ({_TH: 1}, Topic.THERMODYNAMICS),
    "Amount": ({_N: 1}, Topic.THERMODYNAMICS),
    "LuminousIntensity": ({_J: 1}, Topic.OPTICS),
    "Area": ({_L: 2}, Topic.MECHANICS),
    "Volume": ({_L: 3}, Topic.MECHANICS),
    "Speed": ({_L: 1, _T: -1}, Topic.MECHANICS),
    "Acceleration": ({_L: 1, _T: -2}, Topic.MECHANICS),
    "Momentum": ({_M: 1, _L: 1, _T: -1}, Topic.MECHANICS),
    "Force": ({_M: 1, _L: 1, _T: -2}, Topic.MECHANICS),
    "Energy": ({_M: 1, _L: 2, _T: -2}, Topic.MECHANICS),
    "Power": ({_M: 1, _L: 2, _T: -3}, Topic.MECHANICS),
    "Pressure": ({_M: 1, _L: -1, _T: -2}, Topic.MECHANICS),
    "Frequency": ({_T: -1}, Topic.WAVES_ACOUSTICS),
    "Charge": ({_T: 1, _I: 1}, Topic.ELECTROMAGNETISM),
    "Voltage": ({_M: 1, _L: 2, _T: -3, _I: -1}, Topic.ELECTROMAGNETISM),
    "Capacitance": ({_M: -1, _L: -2, _T: 4, _I: 2}, Topic.ELECTROMAGNETISM),
    "Resistance": ({_M: 1, _L: 2, _T: -3, _I: -2}, Topic.ELECTROMAGNETISM),
    "ElectricField": ({_M: 1, _L: 1, _T: -3, _I: -1}, Topic.ELECTROMAGNETISM),
}


def _build() -> UnitDatabase:
    units: dict[str, UnitDef] = {}
    for name, b, topic in _BASE_UNITS:
        units[name] = UnitDef(name, Dimension.base(b), Fraction(1), topic)
    for name, (decomp, topic) in _DERIVED_UNITS.items():
        units[name] = UnitDef(name, Dimension.from_map(decomp), Fraction(1),
                              topic)
    units["gram"] = UnitDef("gram", Dimension.base(_M), Fraction(1, 1000),
                            Topic.MECHANICS)

    prefixes = {
        name: PrefixDef(name, Fraction(10) ** k) for name, k in _PREFIXES.items()
    }

    kinds = {}
    for name, (decomp, topic) in _KINDS.items():
        kinds[name] = KindDef(name, Dimension.from_map(decomp), topic)
    kinds["ℝ"] = KindDef("ℝ", DIMENSIONLESS, Topic.MECHANICS)

    g = Quantity(Fraction(49, 5), kinds["Acceleration"].dim)
    coulomb_const_dim = (kinds["Force"].dim
                         .combine(kinds["Area"].dim)
                         .combine(kinds["Charge"].dim.scale(2).invert()))
    constants = {
        "g": ConstantDef("g", g, Topic.MECHANICS, overridable=True),
        "K": ConstantDef(
            "K", Quantity(Fraction(9_000_000_000), coulomb_const_dim),
            Topic.ELECTROMAGNETISM, overridable=True),
        "pi": ConstantDef(
            "pi", Quantity(Approx(dec_pi(), PRECISION), DIMENSIONLESS),
            Topic.MECHANICS),
    }
    constants["π"] = ConstantDef("π", constants["pi"].quantity, Topic.MECHANICS)

    return UnitDatabase(units=units, prefixes=prefixes,
                        constants=constants, kinds=kinds)


_BUILTIN = _build()


def builtin_database() -> UnitDatabase:
    """The shared built-in database (immutable; overrides derive views)."""
    return _BUILTIN
