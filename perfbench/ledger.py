"""Span ledger for the traced run: wraps each layer's public functions
from outside the program and attributes wall time to layers.

Every wrapper records one span (name, layer, start, end, parent span,
op id, thread) and keeps it in memory; :meth:`Ledger.write` writes them
out when the run ends.  Self time is computed as spans close: a span's
duration minus the time its child spans cover.  The benchmark's own
``bench.op`` span is the root of every measured operation, so the layer
self times plus the ``bench`` layer's self time (time inside an op that
no layer accounts for) add up to the summed op walls exactly.

A name is patched where its caller looks it up (``repro.core.plan.
ffty_pack_real``, ``repro.core.api.run_spmd``, ...): patching only the
defining module would miss callers that imported the name.  Methods are
patched on their class, which every caller reaches through the instance.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

LAYERS = ("fft", "core", "simmpi", "tuning", "exec", "serve", "obs", "apps")


@dataclass
class Target:
    """One patched name: ``module:attr`` or ``module:Class.method``."""

    where: str
    layer: str
    span: str
    #: workloads on which this wrapper must fire at least once
    fires_on: tuple[str, ...]
    #: ``note(ledger, args, kwargs, result)``: computed counts (bytes, flops)
    note: Callable[..., None] | None = None


@dataclass
class _Frame:
    span_id: int
    child_s: float = 0.0


@dataclass
class Ledger:
    """In-memory span store plus per-layer aggregates."""

    max_spans: int = 400_000
    spans: list[tuple] = field(default_factory=list)
    dropped: int = 0
    self_s: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    #: per span name: [calls, summed duration, summed self time]
    by_name: dict[str, list] = field(default_factory=dict)
    #: span names whose individual durations are kept (for medians)
    keep: tuple[str, ...] = ("simmpi.run_spmd",)
    kept: dict[str, list[float]] = field(default_factory=dict)
    op_walls: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._open_ops = 0
        self._next_op = 0
        self._patches: list[tuple[Any, str, Any]] = []
        self._fired: dict[str, int] = {}
        self._ids = itertools.count()

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _close(self, stack, frame, name, layer, t0, t1, op_id) -> None:
        dur = t1 - t0
        own = dur - frame.child_s
        parent = stack[-1].span_id if stack else -1
        with self._lock:
            if parent < 0 and layer != "bench":
                # No parent on this thread: the span ran on behalf of a
                # request that waits in another thread (the in-process
                # plan server's handler threads).  Its duration already
                # lies inside that request's span, so deduct it there.
                own -= dur
            self.self_s[layer] = self.self_s.get(layer, 0.0) + own
            self.calls[layer] = self.calls.get(layer, 0) + 1
            row = self.by_name.get(name)
            if row is None:
                row = self.by_name[name] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += dur
            row[2] += dur - frame.child_s
            if name in self.keep:
                self.kept.setdefault(name, []).append(dur)
            if len(self.spans) < self.max_spans:
                self.spans.append((frame.span_id, name, layer, t0, t1, parent,
                                   op_id, threading.get_ident()))
            else:
                self.dropped += 1
        if stack:
            stack[-1].child_s += dur

    @contextmanager
    def op(self):
        """Root span of one measured operation (layer ``bench``)."""
        with self._lock:
            self._open_ops += 1
            op_id = self._next_op
            self._next_op += 1
        stack = self._stack()
        self._tls.op_id = op_id
        frame = _Frame(next(self._ids))
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield op_id
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self._close(stack, frame, "bench.op", "bench", t0, t1, op_id)
            with self._lock:
                self.op_walls.append(t1 - t0)
                self._open_ops -= 1
            self._tls.op_id = None

    def add_self(self, layer: str, seconds: float) -> None:
        with self._lock:
            self.self_s[layer] = self.self_s.get(layer, 0.0) + seconds

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        ledger = self
        name, layer, note = target.span, target.layer, target.note
        fired = self._fired

        def traced(*args, **kwargs):
            if not ledger._open_ops:
                return fn(*args, **kwargs)
            stack = ledger._stack()
            frame = _Frame(next(ledger._ids))
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                ledger._close(stack, frame, name, layer, t0, t1,
                              getattr(ledger._tls, "op_id", None))
                fired[target.where] = fired.get(target.where, 0) + 1
            if note is not None:
                # computed counts are bookkeeping, not layer work: their
                # cost is charged to the bench layer, not the caller
                n0 = time.perf_counter()
                note(ledger, args, kwargs, result)
                spent = time.perf_counter() - n0
                if stack:
                    stack[-1].child_s += spent
                    ledger.add_self("bench", spent)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        for target in targets:
            module_name, attr = target.where.split(":")
            owner: Any = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if isinstance(owner, type) \
                else getattr(owner, leaf)
            self._patches.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, target))
            self._fired.setdefault(target.where, 0)

    def uninstall(self) -> None:
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)

    def fired(self, where: str) -> int:
        return self._fired.get(where, 0)

    # -- output --------------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return list(self.kept.get(name, ()))

    def total(self, name: str) -> float:
        row = self.by_name.get(name)
        return row[1] if row else 0.0

    def self_time(self, name: str) -> float:
        row = self.by_name.get(name)
        return row[2] if row else 0.0

    def count(self, name: str) -> int:
        row = self.by_name.get(name)
        return row[0] if row else 0

    def write(self, path: Path, meta: dict) -> int:
        """Write spans as JSONL (one meta line, then one line per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"kind": "meta", "spans_dropped": self.dropped,
                                 **meta}) + "\n")
            for sid, name, layer, t0, t1, parent, op_id, tid in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "layer": layer,
                    "start": t0, "end": t1,
                    "parent": parent, "op": op_id, "thread": tid,
                }) + "\n")
        return len(self.spans)
