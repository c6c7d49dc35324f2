"""In-memory spans around spdelab's public functions, recorded from outside.

A :class:`Recorder` replaces a public name in the namespace where its caller
looks it up (``spdelab.cli.simulate``, ``spdelab.solver.sigma_eval``, ...) by
a wrapper that records one span per call: role, start, end, thread and
parent.  Nothing under ``src/`` changes.  A name that no longer exists is
listed in ``Recorder.absent`` instead of raising, so the benchmark survives
renames; metrics that depend only on absent names are reported as absent.

Spans opened on a thread with no open span of its own (the replica pool's
workers) take the current op's root span as parent.  Spans stay in memory
until :meth:`Recorder.dump` writes them once the run ends.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass(slots=True)
class Span:
    sid: int
    parent: int | None
    role: str
    start: float
    end: float
    thread: int
    amount: float = 0.0  # layer-specific quantity: bytes, leg-steps


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.present_roles: set[str] = {"cli"}
        self.root: int | None = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int | None, list[int]]:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, stack

    def _close(self, sid, parent, stack, role, start, amount=0.0) -> None:
        end = time.perf_counter()
        stack.pop()
        span = Span(sid, parent, role, start, end, threading.get_ident(), amount)
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, role: str, as_root: bool = False):
        """Record a span around a block; ``as_root`` makes it the parent of
        spans opened on threads that have none open."""
        sid, parent, stack = self._open()
        if as_root:
            self.root = sid
        start = time.perf_counter()
        try:
            yield sid
        finally:
            self._close(sid, parent, stack, role, start)
            if as_root:
                self.root = None

    def patch(self, owner, attr: str, role, roles=(), measure=None, label=None) -> None:
        """Wrap ``owner.attr``.  ``role`` is a name or a function of the call's
        (args, kwargs) giving one; ``roles`` lists the names it can give.
        ``measure(args, kwargs, result)`` sets the span's amount."""
        fn = getattr(owner, attr, None)
        if not callable(fn):
            self.absent.append(label or f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self.present_roles.update(roles or (role,))
        role_of = role if callable(role) else (lambda args, kwargs: role)
        rec = self

        def wrapper(*args, **kwargs):
            sid, parent, stack = rec._open()
            start = time.perf_counter()
            result, done = None, False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                amount = measure(args, kwargs, result) if measure is not None and done else 0.0
                rec._close(sid, parent, stack, role_of(args, kwargs), start, amount)

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, fn))

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent, "fields": list(Span.__slots__)}, fh)
            fh.write("\n")
            for s in self.spans:
                fh.write(json.dumps([s.sid, s.parent, s.role, s.start, s.end, s.thread, s.amount]))
                fh.write("\n")


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
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
    """Each span's duration minus the part of it that its children cover.

    Children on other threads count too, so a parent waiting on a pool has
    no self time while a worker runs."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: (s.end - s.start) - covered_length(children[s.sid], s.start, s.end)
        for s in spans
    }


def role_totals(spans) -> dict[str, dict[str, float]]:
    """Per role: number of calls, summed self time and summed amount."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "amount": 0.0})
    for s in spans:
        row = out[s.role]
        row["calls"] += 1
        row["self_s"] += own[s.sid]
        row["amount"] += s.amount
    return dict(out)


def retained_nbytes(obj, _seen=None, _depth=0) -> int:
    """Bytes of the numpy arrays reachable from ``obj`` (each array once)."""
    seen = set() if _seen is None else _seen
    if id(obj) in seen or _depth > 8:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        items = obj
    elif isinstance(obj, dict):
        items = obj.values()
    elif hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return 0
    return sum(retained_nbytes(x, seen, _depth + 1) for x in items)


def path_size(args, kwargs, result=None) -> int:
    """Size of the first path-like argument of a call, once it has run."""
    for x in list(args) + list(kwargs.values()):
        if isinstance(x, (str, os.PathLike)):
            return os.path.getsize(x)
    return 0
