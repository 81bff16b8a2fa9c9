"""Every answer of the corpus in ``answer_corpus.py`` against its pin."""

import json
import time

from answer_corpus import PINS, compute


def test_answers_unchanged():
    pinned = json.loads(PINS.read_text())
    t0 = time.monotonic()
    got = compute()
    elapsed = time.monotonic() - t0
    assert sorted(got) == sorted(pinned), sorted(set(got) ^ set(pinned))[:10]
    moved = [name for name in pinned if got[name] != pinned[name]]
    assert not moved, f"{len(moved)} answers moved, the first: {moved[:10]}"
    assert elapsed < 5, elapsed
