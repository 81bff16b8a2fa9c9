"""The functions in ``src`` that no shipped path reaches.

What ships is the CLI and the README quick start.  A fresh interpreter runs
every ``answer_corpus.CLI_RUNS`` member (``--config`` runs included) and the
quick start under ``sys.setprofile``, and the functions it never calls are
pinned below, each with the reason it is kept.  New dead code then fails this
test, and so does a listed function that a shipped path starts to reach.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# function (module-qualified) -> why it is kept though no shipped path calls it
UNREACHED = {
    "anticonc.__dir__": "dir(anticonc) lists the names imported on first access",
    "anticonc.errors.InvariantViolated.__init__": "raised only when an internal check fails",
    "anticonc.errors.Record.__eq__": "records compare by fields for library callers",
    "anticonc.errors.Record.__hash__": "records hash by fields for library callers",
    "anticonc.errors.Record.__reduce__": "records pickle and copy through their fields",
    "anticonc.errors.Record.__repr__": "records show their fields for library callers",
    "anticonc.errors.Record.__setattr__": "refuses assigning or deleting a field",
    "anticonc.errors.Record._values": "the fields that ==, hash and pickling read",
    "anticonc.lemmas._binomial_draw": "bench/run.py replays Monte Carlo draws through it",
    "anticonc.subsetsum.CubeSet.from_vectors": "the README API; bench/workloads.py builds with it",
    "anticonc.subsetsum.CubeSet.vectors": "the README API; bench/workloads.py reads it",
    "anticonc.subsetsum.SumProfile.__init__": "the validated constructor for callers",
    "anticonc.subsetsum.SumProfile.as_dict": "the README API; bench/run.py reads it",
    "anticonc.subsetsum.SumProfile.from_counts": "the README API; bench/run.py builds with it",
    "anticonc.subsetsum._integer": "as_weights on entries that are not ints; the CLI passes ints",
}

# Runs in a fresh interpreter, so that import-time calls are seen and no
# other test's calls are.  The library's layers are imported under the
# profile, as the commands import them; the corpus module is not, since its
# own setup builds inputs the way no shipped path does.
TRACE = r"""
import importlib, inspect, json, sys
from pathlib import Path

src = Path(sys.argv[1]) / "anticonc"
reached = set()

def note(frame, event, arg):
    if event == "call":
        reached.add(frame.f_code)

sys.setprofile(note)
for layer in ("cli", "errors", "frontier", "lemmas", "numerics", "subsetsum", "sumsets"):
    importlib.import_module(f"anticonc.{layer}")
sys.setprofile(None)
import answer_corpus, test_readme
sys.setprofile(note)
for argv in answer_corpus.CLI_RUNS:
    answer_corpus._cli_answer(argv)
exec(test_readme.quick_start(), {})
sys.setprofile(None)

def module(path):
    stem = Path(path).stem
    return "anticonc" if stem == "__init__" else f"anticonc.{stem}"

def functions(code):
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                yield const
            yield from functions(const)

every = {
    f"{module(path)}.{code.co_qualname}"
    for path in src.glob("*.py")
    for code in functions(compile(path.read_text(encoding="utf-8"), str(path), "exec"))
}
seen = {
    f"{module(code.co_filename)}.{code.co_qualname}"
    for code in reached
    if Path(code.co_filename).parent == src
}
print(json.dumps(sorted(every - seen)))
"""


@pytest.mark.skipif(sys.version_info < (3, 11), reason="needs code.co_qualname")
def test_unreached_functions_are_the_pinned_ones():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (SRC, TESTS)))}
    res = subprocess.run([sys.executable, "-c", TRACE, str(SRC)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    unreached = set(json.loads(res.stdout.splitlines()[-1]))
    assert sorted(unreached - UNREACHED.keys()) == [], "newly unreached"
    assert sorted(UNREACHED.keys() - unreached) == [], "now reached"
