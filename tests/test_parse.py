"""The series/poly grammar against its recorded corpus (tests/parse_corpus.py)."""

import json

import parse_corpus


def test_every_recorded_parse_is_unchanged():
    """Same value, or same error class, message and position, for every input, field and mode."""
    recorded = json.loads(parse_corpus.GOLDEN.read_text(encoding="utf-8"))
    now = parse_corpus.outcomes()
    assert len(now) == len(recorded)
    changed = [(e["text"], e["field"], e["mode"]) for e, new in zip(recorded, now) if e != new]
    assert changed == []
