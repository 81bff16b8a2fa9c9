"""The benchmark's answers, checked with the tests: every pool member of every
``bench/workloads.py`` workload is run once at seed 0 and checked against its
block of ``bench/pins.json``, as ``bench/run.py`` checks each op.  A change
that moves a pinned answer then fails here first.  Nothing under ``bench/``
is written."""

import json
import types
from pathlib import Path

import pytest

import anticonc
import anticonc.cli  # noqa: F401  (the package does not import its CLI itself)

BENCH = Path(__file__).resolve().parents[1] / "bench"
# run from its source, so that no bytecode cache is written under bench/
workloads = types.ModuleType("workloads")
_source = BENCH / "workloads.py"
exec(compile(_source.read_text(encoding="utf-8"), str(_source), "exec"), vars(workloads))
PINS = json.loads((BENCH / "pins.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_bench_pins(name, monkeypatch):
    monkeypatch.delenv("ANTICONC_PRECISION_BITS", raising=False)  # the pins assume the default
    wl = workloads.WORKLOADS[name](anticonc, 0, PINS[name])
    failed = {}
    for item in wl.items():
        verdict = wl.check(item, wl.run(item))
        if verdict != "ok":
            failed[item.key] = verdict
    assert not failed
    assert {item.key for item in wl.items()} == PINS[name].keys()
