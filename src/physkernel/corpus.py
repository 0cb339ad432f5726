"""Benchmark corpus loading and validation.

A corpus is a directory tree of the form::

    corpus/
        manifest.json
        mechanics/
            two_block_acceleration_identity.phys
            rope_friction_turns.phys
        electromagnetism/
            parallel_plate_capacitance.phys
        ...

Each ``.phys`` file holds one statement in the surface syntax, preceded by
front-matter lines (``name:``, ``level:``, ``topic:``, ``source:``, and
optionally ``constants:``).  The manifest assigns every entry an expected
verification tier:

``auto``
    the automatic prover must close the statement on its own;
``script``
    a hand-written derivation script, stored next to the statement as
    ``<name>.script``, must check;
``dimcheck-only``
    the statement is dimensionally homogeneous but is not expected to be
    provable by the bundled engine (it still participates in dimension
    checking and in evaluation runs).

Loading is strict: every inconsistency found (unparsable file, a name that
disagrees with its filename, a topic that disagrees with its directory,
manifest entries without files or files without manifest entries, duplicate
names, missing or orphaned script files) is collected and reported in a
single :class:`~physkernel.errors.CorpusValidationError` so a broken corpus
can be repaired in one pass.
"""

from __future__ import annotations

import enum
import json
from pathlib import Path

from .errors import CorpusValidationError, ParseError
from .lang import nodes as N
from .lang.parser import parse_statement
from .record import record
from .unitdb import Topic, UnitDatabase, builtin_database

__all__ = ["Tier", "CorpusEntry", "load_corpus", "corpus_stats"]


class Tier(enum.Enum):
    """Expected verification tier of a corpus entry."""

    AUTO = "auto"
    SCRIPT = "script"
    DIMCHECK_ONLY = "dimcheck-only"


@record(frozen=True)
class CorpusEntry:
    """One benchmark statement together with its corpus metadata."""

    name: str
    topic: str
    tier: Tier
    path: Path
    text: str
    statement: N.Statement
    script_text: str | None = None

    @property
    def level(self) -> str | None:
        return self.statement.level


_TOPIC_VALUES = frozenset(t.value for t in Topic)


def _manifest_tiers(root: Path, problems: list[str]) -> dict[str, Tier]:
    path = root / "manifest.json"
    if not path.is_file():
        problems.append(f"missing manifest: {path}")
        return {}
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        problems.append(f"{path}: unreadable manifest ({exc})")
        return {}
    entries = raw.get("entries") if isinstance(raw, dict) else None
    if not isinstance(entries, dict):
        problems.append(f"{path}: manifest must be an object with an"
                        " \"entries\" mapping")
        return {}
    tiers: dict[str, Tier] = {}
    for name, meta in sorted(entries.items()):
        expected = meta.get("expected") if isinstance(meta, dict) else None
        try:
            tiers[name] = Tier(expected)
        except ValueError:
            problems.append(
                f"{path}: entry {name!r} has invalid expected tier"
                f" {expected!r} (choose from"
                f" {', '.join(t.value for t in Tier)})")
    return tiers


def load_corpus(root: str | Path,
                db: UnitDatabase | None = None) -> tuple[CorpusEntry, ...]:
    """Load and validate every entry under ``root``.

    Returns entries sorted by (topic, name); the result is a pure function
    of the directory contents.  Raises CorpusValidationError listing *all*
    problems found, not just the first.
    """
    root = Path(root)
    db = db or builtin_database()
    problems: list[str] = []
    if not root.is_dir():
        raise CorpusValidationError([f"corpus root is not a directory: {root}"])

    tiers = _manifest_tiers(root, problems)
    seen: dict[str, Path] = {}
    entries: list[CorpusEntry] = []

    for path in sorted(root.rglob("*.phys")):
        rel = path.relative_to(root)
        topic_dir = rel.parts[0] if len(rel.parts) == 2 else None
        if topic_dir is None:
            problems.append(f"{rel}: statements must live exactly one"
                            " topic directory below the corpus root")
            continue
        if topic_dir not in _TOPIC_VALUES:
            problems.append(f"{rel}: unknown topic directory {topic_dir!r}")
            continue
        stem = path.stem
        if stem in seen:
            problems.append(f"{rel}: duplicate entry name {stem!r} (also at"
                            f" {seen[stem].relative_to(root)})")
            continue
        seen[stem] = path

        try:
            text = path.read_text(encoding="utf-8")
            stmt = parse_statement(text, db)
        except (OSError, UnicodeDecodeError, ParseError) as exc:
            problems.append(f"{rel}: {exc}")
            continue
        if stmt.name != stem:
            problems.append(f"{rel}: statement is named {stmt.name!r}; the"
                            f" filename requires {stem!r}")
            continue
        if stmt.topic != topic_dir:
            problems.append(f"{rel}: statement topic {stmt.topic!r} does not"
                            f" match its directory {topic_dir!r}")
            continue
        if stem not in tiers:
            problems.append(f"{rel}: entry is missing from manifest.json")
            continue
        tier = tiers[stem]

        script_path = path.with_suffix(".script")
        script_text: str | None = None
        if tier is Tier.SCRIPT:
            if not script_path.is_file():
                problems.append(f"{rel}: expected tier is 'script' but"
                                f" {script_path.name} is missing")
                continue
            try:
                script_text = script_path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                problems.append(f"{rel.with_suffix('.script')}: {exc}")
                continue
        elif script_path.is_file():
            problems.append(f"{rel}: has a script file but its expected tier"
                            f" is {tier.value!r}")
            continue

        entries.append(CorpusEntry(stem, topic_dir, tier, path, text, stmt,
                                   script_text))

    for name in sorted(set(tiers) - set(seen)):
        problems.append(f"manifest.json: entry {name!r} has no .phys file")
    if not entries and not problems:
        problems.append(f"corpus has no entries: {root}")

    if problems:
        raise CorpusValidationError(problems)
    entries.sort(key=lambda e: (e.topic, e.name))
    return tuple(entries)


def corpus_stats(entries: tuple[CorpusEntry, ...]) -> dict[str, dict[str, int]]:
    """Entry counts keyed by topic and by expected tier."""
    by_topic: dict[str, int] = {}
    by_tier: dict[str, int] = {}
    for e in entries:
        by_topic[e.topic] = by_topic.get(e.topic, 0) + 1
        by_tier[e.tier.value] = by_tier.get(e.tier.value, 0) + 1
    return {"topics": dict(sorted(by_topic.items())),
            "tiers": dict(sorted(by_tier.items()))}
