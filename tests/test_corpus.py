"""The byte-identity gate: every corpus config (tests/corpus.py) still
produces the output bytes whose digests tests/corpus_digests.json holds."""

import json

import corpus


def test_corpus_digests_unchanged():
    recorded = json.loads(corpus.DIGESTS.read_text())
    now = corpus.digests()
    assert list(now) == list(recorded)
    moved = [name for name in now if now[name] != recorded[name]]
    assert not moved, f"{len(moved)} of {len(now)} corpus digests moved: {moved[:10]}"
