"""Corpus loading: strict validation that aggregates every problem at once."""

import json
import shutil
import textwrap

import pytest

from physkernel.corpus import CorpusEntry, Tier, corpus_stats, load_corpus
from physkernel.errors import CorpusValidationError

GOOD_STMT = """\
name: {name}
level: basic
topic: {topic}
source: synthetic fixture

theorem {name}
  (u : Real)
  (hu := u = 1)
  : u = 1
"""


def make_corpus(root, entries, manifest=None):
    """entries: list of (topic, name, tier) triples."""
    manifest_entries = {}
    for topic, name, tier in entries:
        d = root / topic
        d.mkdir(parents=True, exist_ok=True)
        (d / f"{name}.phys").write_text(
            GOOD_STMT.format(name=name, topic=topic), encoding="utf-8")
        manifest_entries[name] = {"expected": tier}
    if manifest is None:
        manifest = {"entries": manifest_entries}
    (root / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return root


def problems_of(root, db):
    with pytest.raises(CorpusValidationError) as exc:
        load_corpus(root, db)
    return exc.value.problems


def test_bundled_corpus_loads(db, corpus_dir):
    entries = load_corpus(corpus_dir, db)
    assert len(entries) >= 8
    assert all(isinstance(e, CorpusEntry) for e in entries)
    names = [e.name for e in entries]
    assert len(set(names)) == len(names)
    keys = [(e.topic, e.name) for e in entries]
    assert keys == sorted(keys)
    assert all(e.level in {"basic", "intermediate", "advanced"}
               for e in entries)
    stats = corpus_stats(entries)
    assert sum(stats["topics"].values()) == len(entries)
    assert sum(stats["tiers"].values()) == len(entries)
    assert stats["tiers"].get("auto", 0) >= 7


def test_loading_is_deterministic(db, corpus_dir):
    a = load_corpus(corpus_dir, db)
    b = load_corpus(corpus_dir, db)
    assert [e.name for e in a] == [e.name for e in b]
    assert all(x.text == y.text for x, y in zip(a, b))


def test_valid_synthetic_corpus(tmp_path, db):
    root = make_corpus(tmp_path, [("mechanics", "one", "auto"),
                                  ("optics", "two", "dimcheck-only")])
    entries = load_corpus(root, db)
    assert [(e.name, e.tier) for e in entries] == [
        ("one", Tier.AUTO), ("two", Tier.DIMCHECK_ONLY)]


def test_missing_manifest(tmp_path, db):
    root = make_corpus(tmp_path, [("mechanics", "one", "auto")])
    (root / "manifest.json").unlink()
    assert any("missing manifest" in p for p in problems_of(root, db))


def test_unreadable_manifest(tmp_path, db):
    root = make_corpus(tmp_path, [("mechanics", "one", "auto")])
    (root / "manifest.json").write_text("{not json", encoding="utf-8")
    assert any("unreadable manifest" in p for p in problems_of(root, db))


def test_manifest_shape_must_be_entries_mapping(tmp_path, db):
    root = make_corpus(tmp_path, [("mechanics", "one", "auto")],
                       manifest=["one"])
    assert any("entries" in p for p in problems_of(root, db))


def test_invalid_tier_value(tmp_path, db):
    root = make_corpus(tmp_path, [("mechanics", "one", "handwave")])
    probs = problems_of(root, db)
    assert any("invalid expected tier" in p for p in probs)


def test_file_depth_and_topic_rules(tmp_path, db):
    root = make_corpus(tmp_path, [("mechanics", "one", "auto")])
    # Too shallow, too deep, and a directory that is not a topic.
    (root / "stray.phys").write_text("x", encoding="utf-8")
    deep = root / "mechanics" / "sub"
    deep.mkdir()
    (deep / "buried.phys").write_text("x", encoding="utf-8")
    weird = root / "alchemy"
    weird.mkdir()
    (weird / "lead_to_gold.phys").write_text(
        GOOD_STMT.format(name="lead_to_gold", topic="alchemy"),
        encoding="utf-8")
    probs = problems_of(root, db)
    assert any("one topic directory" in p and "stray" in p for p in probs)
    assert any("one topic directory" in p and "buried" in p for p in probs)
    assert any("unknown topic directory" in p for p in probs)


def test_duplicate_names_across_topics(tmp_path, db):
    root = make_corpus(tmp_path, [("mechanics", "same", "auto")])
    d = root / "optics"
    d.mkdir()
    (d / "same.phys").write_text(
        GOOD_STMT.format(name="same", topic="optics"), encoding="utf-8")
    assert any("duplicate entry name" in p for p in problems_of(root, db))


def test_unparsable_statement(tmp_path, db):
    root = make_corpus(tmp_path, [("mechanics", "one", "auto")])
    (root / "mechanics" / "one.phys").write_text("theorem ???", encoding="utf-8")
    assert any("one.phys" in p for p in problems_of(root, db))


def test_name_and_topic_must_match_location(tmp_path, db):
    root = make_corpus(tmp_path, [("mechanics", "one", "auto"),
                                  ("optics", "two", "auto")])
    # Rename the file so the statement name no longer matches.
    src = root / "mechanics" / "one.phys"
    src.rename(root / "mechanics" / "other.phys")
    # Move the second file so its declared topic no longer matches.
    two = root / "optics" / "two.phys"
    (root / "waves-acoustics").mkdir()
    two.rename(root / "waves-acoustics" / "two.phys")
    probs = problems_of(root, db)
    assert any("filename requires" in p for p in probs)
    assert any("does not match its directory" in p for p in probs)


def test_manifest_and_files_must_agree(tmp_path, db):
    root = make_corpus(tmp_path, [("mechanics", "one", "auto")])
    manifest = {"entries": {"one": {"expected": "auto"},
                            "ghost": {"expected": "auto"}}}
    (root / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    (root / "mechanics" / "extra.phys").write_text(
        GOOD_STMT.format(name="extra", topic="mechanics"), encoding="utf-8")
    probs = problems_of(root, db)
    assert any("missing from manifest" in p for p in probs)
    assert any("'ghost' has no .phys file" in p for p in probs)


def test_script_files_must_match_tier(tmp_path, db):
    root = make_corpus(tmp_path, [("mechanics", "one", "script"),
                                  ("mechanics", "two", "auto")])
    # 'one' is script-tier but has no .script; 'two' has a stray .script.
    (root / "mechanics" / "two.script").write_text("ring\n", encoding="utf-8")
    probs = problems_of(root, db)
    assert any("one.script is missing" in p for p in probs)
    assert any("has a script file but" in p for p in probs)


def test_script_tier_round_trip(tmp_path, db):
    root = make_corpus(tmp_path, [("mechanics", "one", "script")])
    (root / "mechanics" / "one.script").write_text("subst hu\nring\n",
                                                   encoding="utf-8")
    entries = load_corpus(root, db)
    assert entries[0].tier is Tier.SCRIPT
    assert entries[0].script_text == "subst hu\nring\n"


def test_problems_aggregate_in_one_pass(tmp_path, db):
    root = make_corpus(tmp_path, [("mechanics", "one", "bogus")])
    (root / "stray.phys").write_text("x", encoding="utf-8")
    (root / "mechanics" / "broken.phys").write_text("theorem ???",
                                                    encoding="utf-8")
    probs = problems_of(root, db)
    assert len(probs) >= 3  # tier + depth + parse, all reported together


def test_missing_root_directory(tmp_path, db):
    with pytest.raises(CorpusValidationError, match="not a directory"):
        load_corpus(tmp_path / "nowhere", db)


def test_non_utf8_files_are_problems_not_exceptions(tmp_path, db):
    root = make_corpus(tmp_path, [("mechanics", "one", "script"),
                                  ("mechanics", "two", "auto"),
                                  ("optics", "three", "auto")])
    (root / "mechanics" / "one.script").write_bytes(b"ring\xff\n")
    (root / "mechanics" / "two.phys").write_bytes(b"theorem two\xff")
    three = root / "optics" / "three.phys"
    three.unlink()
    three.mkdir()  # a directory, not a file
    probs = problems_of(root, db)
    assert [p.split(": ", 1)[0] for p in probs] == [
        "mechanics/one.script", "mechanics/two.phys", "optics/three.phys"]
    assert all("can't decode byte 0xff" in p for p in probs[:2])
    assert "Is a directory" in probs[2]
    (root / "manifest.json").write_bytes(b'{"entries": {}}\xff')
    assert any("unreadable manifest" in p and "0xff" in p
               for p in problems_of(root, db))
