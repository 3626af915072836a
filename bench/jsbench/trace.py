"""Spans around the calls into each jointseg layer, recorded from outside.

``Tracer.install`` wraps a fixed list of public functions and methods and
rebinds every name under which jointseg modules reach them, so calls made
inside the program (``train`` calling ``total_loss``, ``segment_scene``
calling ``predict_block``) pass through the wrappers. ``Tracer.uninstall``
puts every original back. Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at top level
    run: str
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span, its duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.duration - _covered(kids) for s, kids in zip(spans, children)]


def covered_within(spans: list[Span], lo: float, hi: float, names: set[str]) -> float:
    """Time in [lo, hi] covered by the spans with one of ``names``."""
    return _covered([(max(s.start, lo), min(s.end, hi)) for s in spans
                     if s.end > lo and s.start < hi and s.name in names])


# A count hook maps (args, kwargs, result) to numbers stored on the span.
CountHook = Callable[[tuple, dict, Any], dict]


@dataclass
class Target:
    """One function or method to wrap: ``owner.attr`` gets span ``name``."""

    module: str
    attr: str  # "func" or "Class.method"
    name: str
    before: CountHook | None = None  # runs before the call, outside the span
    after: CountHook | None = None   # runs after the call, outside the span


class Tracer:
    """Records spans while installed; a ``with`` block uninstalls on exit."""

    def __init__(self, run_id: str = "run"):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any, bool]] = []  # owner, attr, original, owned

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            counts = target.before(args, kwargs, None) if target.before else {}
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(target.name, time.perf_counter(), 0.0, parent, tracer.run_id, counts)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if target.after:
                span.counts.update(target.after(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target.name)
        return traced

    # -- installing --------------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        """Wrap each target and rebind every module global that refers to it."""
        modules = jointseg_modules()
        try:
            for t in targets:
                owner_name, _, member = t.attr.rpartition(".")
                owner = importlib.import_module(t.module)
                if owner_name:
                    cls = getattr(owner, owner_name)
                    original = getattr(cls, member)
                    self._set(cls, member, self._wrap(original, t))
                    continue
                original = getattr(owner, member)
                wrapper = self._wrap(original, t)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, name, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _set(self, owner, attr: str, value) -> None:
        owned = attr in vars(owner)
        self._patched.append((owner, attr, vars(owner).get(attr), owned))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original, owned = self._patched.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                    "parent": s.parent, "run": s.run, **s.counts}) + "\n")


def jointseg_modules() -> list:
    import jointseg

    mods = [jointseg]
    for info in pkgutil.iter_modules(jointseg.__path__):
        mods.append(importlib.import_module(f"jointseg.{info.name}"))
    return mods

