"""Outside-in span tracing for the benchmark's traced run.

The library's own ``repro.obs`` spans are not used: the benchmark wraps the
public (and a few module-level) functions of each layer from here, records
one in-memory span per call, and restores every wrapped attribute when the
traced phase ends.  A function imported by name into other modules is
replaced in every loaded ``repro`` module that holds it, so calls through any
of those names are seen.

A span is ``(name, start, end, parent, call)``: ``parent`` is the index of
the enclosing span (or ``-1``) and ``call`` the workload call it belongs to.
A layer's *self time* is its span's duration minus the part of that interval
covered by its direct child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterable, List, Tuple

__all__ = ["Span", "Tracer", "self_times", "inclusive_times", "resolve"]


class Span:
    __slots__ = ("name", "start", "end", "parent", "call")

    def __init__(self, name: str, start: float, parent: int, call: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.call = call

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "call": self.call,
        }


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Per span name: total duration minus the time its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    totals: Dict[str, float] = {}
    for index, span in enumerate(spans):
        covered = _covered(children.get(index, ()), span.start, span.end)
        totals[span.name] = totals.get(span.name, 0.0) + span.duration - covered
    return totals


def inclusive_times(spans: List[Span]) -> Dict[str, float]:
    """Per span name: total duration of its outermost spans.

    A span nested (at any depth) inside a span of the same name -- a
    recursive call -- is not counted again.
    """
    totals: Dict[str, float] = {}
    for span in spans:
        parent = span.parent
        nested = False
        while parent >= 0:
            if spans[parent].name == span.name:
                nested = True
                break
            parent = spans[parent].parent
        if not nested:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
    return totals


def resolve(path: str) -> Tuple[Any, str]:
    """``"pkg.module:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, qualified = path.partition(":")
    owner: Any = sys.modules.get(module_name)
    if owner is None:
        owner = __import__(module_name, fromlist=["_"])
    *owners, attribute = qualified.split(".")
    for name in owners:
        owner = getattr(owner, name)
    if attribute not in vars(owner):
        raise AttributeError(f"{path} is not defined on {owner!r}")
    return owner, attribute


class Tracer:
    """Records spans and counters through wrappers it installs and removes.

    Use as a context manager: wrappers installed with :meth:`wrap` are live
    only inside the ``with`` block and the original attributes are put back
    on exit, even when the block raises.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self.call = 0
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._pending: List[Tuple[Any, Callable[..., Any]]] = []
        self._active: Counter = Counter()
        self.missing: List[str] = []

    # -- spans ------------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent, self.call))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def finish(self, index: int) -> None:
        self.spans[index].end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("spans closed out of order")

    def timed(self, name: str, fn: Callable[..., Any], *args, **kwargs) -> Any:
        """Call ``fn`` inside a span named ``name``."""
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.finish(index)

    # -- wrappers ---------------------------------------------------------
    def wrap(
        self,
        target: "str | Tuple[Any, str]",
        name: str | None = None,
        *,
        count: str | None = None,
        on_result: Callable[["Tracer", Any], None] | None = None,
        on_args: Callable[["Tracer", tuple, dict], Tuple[tuple, dict]] | None = None,
    ) -> None:
        """Schedule ``target`` to be wrapped while the tracer is active.

        ``target`` is ``"module:attr"``, ``"module:Class.method"`` or an
        ``(owner, attribute)`` pair.  With ``name`` every call records a span
        of that name; with ``count`` every outermost call (not re-entered
        through the same counter) bumps ``counters[count]``.  ``on_args`` may
        rewrite the arguments (for example to count the rows an iterable
        yields); ``on_result`` sees every return value.
        """

        def make(original: Callable[..., Any]) -> Callable[..., Any]:
            tracer = self
            active = self._active

            def wrapper(*args, **kwargs):
                if on_args is not None:
                    args, kwargs = on_args(tracer, args, kwargs)
                if count is not None:
                    if not active[count]:
                        tracer.counters[count] += 1
                    active[count] += 1
                index = tracer.begin(name) if name is not None else -1
                try:
                    result = original(*args, **kwargs)
                finally:
                    if index >= 0:
                        tracer.finish(index)
                    if count is not None:
                        active[count] -= 1
                if on_result is not None:
                    on_result(tracer, result)
                return result

            wrapper.__wrapped__ = original
            return wrapper

        self._pending.append((target, make))

    def __enter__(self) -> "Tracer":
        try:
            for target, make in self._pending:
                try:
                    owner, attribute = resolve(target) if isinstance(target, str) else target
                    vars(owner)[attribute]
                except (ImportError, AttributeError, KeyError):
                    # A later refactor may rename a layer function: report it
                    # instead of failing the run, and its metrics read zero.
                    self.missing.append(str(target))
                    continue
                original = vars(owner)[attribute]
                self._replace_everywhere(owner, attribute, original, make(original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _replace_everywhere(self, owner: Any, attribute: str, original, wrapper) -> None:
        self._set(owner, attribute, wrapper)
        if isinstance(owner, type):
            return
        # Module-level function: rebind every ``from module import name`` copy.
        for module_name, module in list(sys.modules.items()):
            if module is owner or not module_name.startswith(("repro", "perfbench")):
                continue
            namespace = getattr(module, "__dict__", {})
            for key, value in list(namespace.items()):
                if value is original:
                    self._set(module, key, wrapper)

    def _set(self, owner: Any, attribute: str, value: Any) -> None:
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        """Put every wrapped attribute back (last patched, first restored)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- output -----------------------------------------------------------
    def write(self, path) -> None:
        """Write the spans as JSON lines (one span per line)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")
