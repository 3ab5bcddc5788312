"""In-memory span recorder for the traced benchmark run.

Spans are taken from outside the library: `instrument` replaces a function
at every binding its callers look it up through (module attributes across
the package, class attributes, and function registries held in module-level
dicts), so nothing under ``src/`` changes.  A target that does not exist
reports zero calls instead of failing, so a later change that deletes a
function leaves the benchmark running.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None


@dataclass(frozen=True)
class Target:
    """One traced function.

    ``name`` is the span name, ``<layer>.<function>``; ``path`` locates the
    function as ``<module>.<attribute>[.<attribute>]`` under the package.
    ``observe(counts, args, kwargs, result)`` adds counters after each call.
    """

    name: str
    path: str
    observe: Callable | None = None


class Tracer:
    """Records nested spans in memory; one tracer per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._ids = itertools.count()

    @contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent))

    def wrap(self, fn: Callable, target: Target) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(target.name):
                result = fn(*args, **kwargs)
            if target.observe is not None:
                target.observe(self.counts, args, kwargs, result)
            return result
        return traced


def _package_modules(package: str) -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def _resolve(path: str, package: str):
    """(owner, attribute) for a dotted path, or None when any part is missing."""
    module_name, *attrs = path.split(".")
    try:
        owner = importlib.import_module(f"{package}.{module_name}")
    except ImportError:
        return None
    for attr in attrs[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    if not attrs or not hasattr(owner, attrs[-1]):
        return None
    return owner, attrs[-1]


@contextmanager
def instrument(tracer: Tracer, targets, package: str = "kgperiodic"):
    """Wrap every target at each of its bindings; restore them on exit."""
    undo: list[Callable[[], None]] = []
    try:
        for target in targets:
            found = _resolve(target.path, package)
            if found is None:
                continue
            owner, attr = found
            if inspect.isclass(owner):
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(tracer.wrap(raw.__func__, target))
                else:
                    new = tracer.wrap(raw, target)
                setattr(owner, attr, new)
                undo.append(functools.partial(setattr, owner, attr, raw))
                continue
            fn = getattr(owner, attr)
            wrapped = tracer.wrap(fn, target)
            for module in _package_modules(package):
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapped)
                        undo.append(functools.partial(setattr, module, key, fn))
                    elif isinstance(value, dict):
                        _patch_registry(value, fn, wrapped, undo)
        yield tracer
    finally:
        for step in reversed(undo):
            step()


def _patch_registry(registry: dict, fn, wrapped, undo) -> None:
    """Swap ``fn`` inside a dict of functions or of tuples holding functions."""
    for key, value in list(registry.items()):
        if value is fn:
            new = wrapped
        elif isinstance(value, tuple) and any(v is fn for v in value):
            new = tuple(wrapped if v is fn else v for v in value)
        else:
            continue
        registry[key] = new
        undo.append(functools.partial(registry.__setitem__, key, value))


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end)
            for s in spans}


def layer_self_times(spans) -> dict[str, float]:
    """Layer (span-name prefix) -> summed self time of its spans."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name.split(".", 1)[0]] += own[s.id]
    return dict(out)


def function_totals(spans) -> dict[str, tuple[float, int]]:
    """Span name -> (seconds, calls).

    Seconds count only the outermost span of a name, so a function that
    re-enters itself is not counted twice; every span counts as a call.
    """
    by_id = {s.id: s for s in spans}
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        calls[s.name] += 1
        p = s.parent
        while p in by_id and by_id[p].name != s.name:
            p = by_id[p].parent
        if p not in by_id:
            seconds[s.name] += s.end - s.start
    return {name: (seconds[name], calls[name]) for name in calls}
