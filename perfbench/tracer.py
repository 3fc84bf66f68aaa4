"""Outside-in span tracer for the benchmark's traced pass.

The tracer never edits the program: :meth:`Tracer.install` replaces a
function *where its callers look it up* (a class attribute, or a module
global of the calling module) with a wrapper that records one span per
call, and :meth:`Tracer.uninstall` puts every original back.  A target
that no longer exists is recorded as absent instead of failing, so a later
change that deletes a wrapped function shows up as a missing layer, not as
a crash.

Spans are kept in memory as four parallel arrays (name index, parent span,
start, end) and written once, at the end, as one JSON object by
:func:`write_spans`.  Every wrapped function is synchronous, so even under
asyncio a span's children run strictly inside it and one stack gives the
parent links.

A span's *self time* is its duration minus the part of its interval that
its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class Tracer:
    """Records spans of wrapped calls; see the module docstring."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        #: Span names whose every target was missing when installed.
        self.absent: List[str] = []

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A wrapper around ``fn`` recording one span named ``name`` per
        call."""
        nid = self.name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- patching --------------------------------------------------------

    def install(self, name: str, targets: Sequence[str]) -> bool:
        """Wrap every ``"module:Owner.attr"`` / ``"module:attr"`` target
        under span ``name``.  Returns False (and records ``name`` as
        absent) when none of the targets exists."""
        found = False
        for target in targets:
            resolved = _resolve(target)
            if resolved is None:
                continue
            owner, attr, original = resolved
            setattr(owner, attr, self.wrap(name, original))
            self._patched.append((owner, attr, original))
            found = True
        if not found:
            self.absent.append(name)
        return found

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.span_start)

    def summary(self) -> Dict[str, Tuple[int, float]]:
        """``{name: (calls, self_s)}`` over every recorded span; names
        installed but never called read ``(0, 0.0)``, absent ones are
        missing."""
        own = self_times(self.span_parent, self.span_start, self.span_end)
        calls = [0] * len(self.names)
        totals = [0.0] * len(self.names)
        for nid, t in zip(self.span_name, own):
            calls[nid] += 1
            totals[nid] += t
        return {n: (calls[i], totals[i]) for i, n in enumerate(self.names)}


def _resolve(target: str) -> Optional[Tuple[object, str, object]]:
    """``(owner, attr, current value)`` for a target spec, or None when
    the module, owner or attribute is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner: object = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        # Only an attribute the class defines itself: patching an
        # inherited one would shadow the base for this class alone.
        original = owner.__dict__.get(attr)
    else:
        original = getattr(owner, attr, None)
    if original is None or not callable(original):
        return None
    return owner, attr, original


def self_times(
    parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]
) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    Spans are indexed in start order (a child always starts after its
    parent and after its earlier siblings), so one pass that tracks, per
    parent, how far its children have already covered is enough to take
    the union even if siblings overlapped."""
    n = len(starts)
    covered = [0.0] * n
    reach = [float("-inf")] * n
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], reach[p])
        if ends[i] > lo:
            covered[p] += ends[i] - lo
        if ends[i] > reach[p]:
            reach[p] = ends[i]
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


def write_spans(tracer: Tracer, path: str) -> None:
    """Write every span once, as one JSON object: the span names, and per
    span its name index, parent span index (-1 for none), start and end."""
    with open(path, "w") as out:
        json.dump({
            "names": tracer.names,
            "name": tracer.span_name.tolist(),
            "parent": tracer.span_parent.tolist(),
            "start": tracer.span_start.tolist(),
            "end": tracer.span_end.tolist(),
        }, out)
