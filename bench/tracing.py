"""Span tracing around the calls into each k0mf layer.

``Tracer.install`` replaces a fixed set of public k0mf functions with
wrappers that record one span per call: name, start, end, parent span
and document id, plus a per-call note (matrix cells, whether an LP was
infeasible, a key of the lattice returned). Each function is replaced
in every k0mf module that holds a reference to it, because callers look
names up in their own module (``certify`` imports ``lp_feasible``, and
``exactlinalg`` calls its own ``hermite_normal_form``). ``uninstall``
puts every original back.

A generator (``enumerate_lattice_points``) gets one span whose busy time
is summed over its ``next()`` calls only, and whose count is the number
of points it yielded; the time its consumer spends filtering those
points stays with the consumer.

A span's self time is its busy time minus the busy time of its child
spans. Calls on one thread never overlap, so that difference is exactly
the part of the span no child covers.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable

MARK = "__bench_traced__"

# (module, attribute) of each traced function; the span name is
# "<module>.<attribute>" with the package prefix dropped.
TARGETS = (
    ("k0mf.cli", "main"),
    ("k0mf.bratteli", "parse"),
    ("k0mf.kaction", "verify_action"),
    ("k0mf.kaction", "coboundary_stage_lattice"),
    ("k0mf.certify", "find_positive_coboundary"),
    ("k0mf.certify", "find_invariant_state"),
    ("k0mf.certify", "verify_witness"),
    ("k0mf.certify", "verify_state_certificate"),
    ("k0mf.exactlinalg", "hermite_normal_form"),
    ("k0mf.exactlinalg", "smith_normal_form"),
    ("k0mf.exactlinalg", "rank"),
    ("k0mf.exactlinalg", "lp_feasible"),
    ("k0mf.exactlinalg", "enumerate_lattice_points"),
)
GENERATORS = {"exactlinalg.enumerate_lattice_points"}


def _note(name: str, args: tuple, result: Any) -> Any:
    """What a span records besides its times."""
    if name == "exactlinalg.hermite_normal_form":
        return args[0].rows * args[0].cols
    if name == "exactlinalg.lp_feasible":
        return type(result).__name__ == "Infeasible"
    if name == "kaction.coboundary_stage_lattice":
        return hash((result.rows, result.cols, result.entries))
    return None


class Tracer:
    """Spans of the calls made while installed, kept in memory.

    ``spans[i]`` is ``[name, parent index or -1, doc, start_ns, end_ns,
    busy_ns, note]``; for a generator ``note`` is the number of items
    yielded and ``busy_ns`` the time spent inside ``next()``.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.doc = ""
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- wrappers ----------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.doc, 0, 0, 0, None])
        return sid

    def _wrap_call(self, name: str, fn: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = self._open(name)
            span = self.spans[sid]
            self._stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                span[3], span[4], span[5] = start, end, end - start
            span[6] = _note(name, args, result)
            return result

        setattr(traced, MARK, fn)
        return traced

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = self._open(name)
            return self._drive(sid, fn(*args, **kwargs))

        setattr(traced, MARK, fn)
        return traced

    def _drive(self, sid: int, inner: Any) -> Any:
        span = self.spans[sid]
        busy = count = 0
        span[3] = perf_counter_ns()
        try:
            while True:
                self._stack.append(sid)
                start = perf_counter_ns()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    busy += perf_counter_ns() - start
                    self._stack.pop()
                count += 1
                yield item
        finally:
            span[4], span[5], span[6] = perf_counter_ns(), busy, count

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever a k0mf module refers to it, and
        ``InductiveSystem.transfer`` on its class."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "k0mf" or n.startswith("k0mf.")]
        for home, attr in TARGETS:
            original = getattr(sys.modules[home], attr)
            name = f"{home.removeprefix('k0mf.')}.{attr}"
            wrap = self._wrap_generator if name in GENERATORS else self._wrap_call
            traced = wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, traced)
        cls = sys.modules["k0mf.dimgroup"].InductiveSystem
        self._patches.append((cls, "transfer", cls.transfer))
        cls.transfer = self._wrap_call("dimgroup.transfer", cls.transfer)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        keys = ("name", "parent", "doc", "start_ns", "end_ns", "busy_ns", "note")
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **dict(zip(keys, span))}) + "\n")


def installed_wrappers() -> list[str]:
    """Every k0mf attribute that is still a tracing wrapper."""
    found = []
    for n, module in sorted(sys.modules.items()):
        if n != "k0mf" and not n.startswith("k0mf."):
            continue
        for key, value in vars(module).items():
            if hasattr(value, MARK):
                found.append(f"{n}.{key}")
            if isinstance(value, type):
                found.extend(
                    f"{n}.{key}.{k}" for k, v in vars(value).items() if hasattr(v, MARK)
                )
    return found


class Layers:
    """Per-layer totals over a list of spans."""

    def __init__(self, spans: list[list]) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.busy_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.notes: dict[str, list] = defaultdict(list)
        child_ns = [0] * len(spans)
        for span in spans:
            if span[1] >= 0:
                child_ns[span[1]] += span[5]
        for span, covered in zip(spans, child_ns):
            name = span[0]
            self.calls[name] += 1
            self.busy_ns[name] += span[5]
            self.self_ns[name] += span[5] - covered
            self.notes[name].append(span[6])

    def summary(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, busy s, self s), largest self time first."""
        rows = [
            (name, self.calls[name], self.busy_ns[name] / 1e9, self.self_ns[name] / 1e9)
            for name in self.calls
        ]
        return sorted(rows, key=lambda row: -row[3])


def lp_parents(spans: list[list]) -> list[str]:
    """For each ``lp_feasible`` span, the search that asked for it:
    "cone" under ``find_positive_coboundary``, "state" under
    ``find_invariant_state``, else "other"."""
    out = []
    for span in spans:
        if span[0] != "exactlinalg.lp_feasible":
            continue
        parent, kind = span[1], "other"
        while parent >= 0:
            pname = spans[parent][0]
            if pname == "certify.find_positive_coboundary":
                kind = "cone"
                break
            if pname == "certify.find_invariant_state":
                kind = "state"
                break
            parent = spans[parent][1]
        out.append(kind)
    return out
