"""Tracing of the anticonc layers from outside the library, for the traced run.

The tracer replaces every public function of each layer module with a
wrapper that records a span (id, name, start, end, parent, op id) around the
call.  Wrappers are installed into every module namespace (and module-level
dict) that refers to the original, so calls between layers and inside a
layer are traced too, since Python resolves globals at call time.  Nothing
in the library is edited: uninstalling puts the originals back.

Self and busy time are aggregated online, so memory stays bounded however
long the run is; only the first ``keep`` raw spans are kept for the
spans file written at exit.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time

LAYERS = ("subsetsum", "frontier", "lemmas", "sumsets", "numerics", "cli")

# Typed library errors: counted once, at the innermost span they cross.
ERROR_NAMES = (
    "TooLarge",
    "CapacityExceeded",
    "BudgetExceeded",
    "BadParams",
    "Undecidable",
    "InvariantViolated",
)


class Stat:
    __slots__ = ("calls", "busy_ns", "self_ns", "depth")

    def __init__(self):
        self.calls = 0
        self.busy_ns = 0  # outermost calls only, so recursion is not double counted
        self.self_ns = 0
        self.depth = 0


class Tracer:
    """Span recorder for one process; create it, ``install`` it, and call
    ``uninstall`` before the process ends."""

    def __init__(self, package, *, keep: int = 200_000, record=()):
        self.package = package
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.error_types = tuple(getattr(package.errors, n) for n in ERROR_NAMES)
        self.keep = keep
        self.active = False
        self.op = -1
        self.spans: list = []
        self.dropped = 0
        self.stats: dict = {}
        self.errors = {layer: 0 for layer in LAYERS}
        self.records = {name: [] for name in record}
        self._stack: list = []  # [span_id, stat, name, start_ns, child_ns]
        self._next_id = 0
        self._patched: list = []  # (namespace, key, original)

    # -- installation -------------------------------------------------

    def _public_functions(self):
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    yield layer, f"{layer}.{name}", obj

    def install(self):
        wrappers = {}
        for layer, qual, fn in self._public_functions():
            wrappers[id(fn)] = (fn, self._wrap(layer, qual, fn))
        namespaces = [vars(self.package)] + [vars(m) for m in self.modules.values()]
        for ns in namespaces:
            for key, value in list(ns.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((ns, key, value))
                    ns[key] = hit[1]
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k2, v2 in list(value.items()):
                        hit = wrappers.get(id(v2))
                        if hit is not None and hit[0] is v2:
                            self._patched.append((value, k2, v2))
                            value[k2] = hit[1]

    def uninstall(self):
        for ns, key, original in reversed(self._patched):
            ns[key] = original
        self._patched.clear()

    # -- recording ----------------------------------------------------

    def _stat(self, qual):
        st = self.stats.get(qual)
        if st is None:
            st = self.stats[qual] = Stat()
        return st

    def _enter(self, qual):
        st = self._stat(qual)
        st.calls += 1
        st.depth += 1
        sid = self._next_id
        self._next_id += 1
        self._stack.append([sid, st, qual, time.perf_counter_ns(), 0])

    def _exit(self):
        end = time.perf_counter_ns()
        sid, st, qual, start, child = self._stack.pop()
        dur = end - start
        st.depth -= 1
        if st.depth == 0:
            st.busy_ns += dur
        st.self_ns += dur - child
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][4] += dur
        if len(self.spans) < self.keep:
            self.spans.append((sid, qual, start, end, parent, self.op))
        else:
            self.dropped += 1
        return dur

    def _error(self, layer, exc):
        if isinstance(exc, self.error_types) and not getattr(
            exc, "_bench_counted", False
        ):
            exc._bench_counted = True
            self.errors[layer] += 1

    def _wrap(self, layer, qual, fn):
        tracer = self
        recorded = qual in self.records

        if inspect.isgeneratorfunction(fn):
            # The span runs from the first next() to exhaustion; callers in
            # the library consume these generators in one statement.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer.active:
                    yield from fn(*args, **kwargs)
                    return
                tracer._enter(qual)
                try:
                    yield from fn(*args, **kwargs)
                except BaseException as exc:
                    tracer._error(layer, exc)
                    raise
                finally:
                    tracer._exit()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._enter(qual)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                tracer._error(layer, exc)
                raise
            finally:
                dur = tracer._exit()
                if recorded:
                    tracer.records[qual].append((args, kwargs, result, dur))

        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """A harness span, the root of one op."""
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    # -- results ------------------------------------------------------

    def busy_s(self, qual) -> float:
        st = self.stats.get(qual)
        return st.busy_ns / 1e9 if st else 0.0

    def self_s(self, qual) -> float:
        st = self.stats.get(qual)
        return st.self_ns / 1e9 if st else 0.0

    def layer_self_s(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for qual, st in self.stats.items():
            layer = qual.split(".", 1)[0]
            if layer in out:
                out[layer] += st.self_ns / 1e9
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start_ns", "end_ns", "parent", "op"],
                    "spans": self.spans,
                    "dropped": self.dropped,
                    "functions": {
                        qual: {"calls": st.calls, "busy_ns": st.busy_ns, "self_ns": st.self_ns}
                        for qual, st in sorted(self.stats.items())
                    },
                    "errors": self.errors,
                },
                fh,
            )
            fh.write("\n")
