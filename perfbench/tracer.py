"""Span tracing of the engine's layers from outside ``src/``.

The benchmark's traced run wraps the public functions each layer exposes
(see :data:`TARGETS`) so that every call records a span: name, start,
end, parent span and op id.  Spans are kept in memory and written out
when the run ends; per-layer self time (a span's duration minus the part
its child spans cover) is accumulated as the spans close.

Functions that callers import by name are wrapped at the importing
module (``repro.core.session.parse``, ``repro.planner.lower.contract``),
because rebinding the defining module's attribute would leave the
caller's reference untouched and record nothing.  Each thread keeps its
own span stack, so server-executor and prefetch threads do not corrupt
parentage.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

#: ``(module, attribute path, span name)``: the calls the traced run
#: wraps.  An attribute path with a dot names a method on a class.
TARGETS: list[tuple[str, str, str]] = [
    ("repro.core.session", "parse", "comprehension.parse"),
    ("repro.core.session", "desugar", "comprehension.desugar"),
    ("repro.core.session", "normalize", "comprehension.normalize"),
    ("repro.core.session", "SacSession.compile", "session.compile"),
    ("repro.core.session", "plan_state", "planner.plan_state"),
    ("repro.core.session", "lower", "planner.lower"),
    ("repro.planner.lower", "contract", "planner.contract"),
    ("repro.planner.lower", "combine_tiles", "planner.combine_tiles"),
    ("repro.planner.tiling", "contract", "planner.contract"),
    ("repro.engine.scheduler", "DAGScheduler.run_job", "scheduler.run_job"),
    ("repro.engine.shuffle", "ShuffleManager.shuffle", "shuffle.shuffle"),
    ("repro.engine.serialization", "RecordSizeAccountant.batch_size",
     "serialization.batch_size"),
    ("repro.engine.block_manager", "BlockManager.get", "block_manager.get"),
    ("repro.engine.block_manager", "BlockManager.get_managed",
     "block_manager.get"),
    ("repro.engine.block_manager", "BlockManager.put", "block_manager.put"),
    ("repro.engine.block_manager", "BlockManager.put_managed",
     "block_manager.put"),
    ("repro.storage.objectstore", "InMemoryStore.put", "objectstore.put"),
    ("repro.storage.objectstore", "InMemoryStore.get", "objectstore.get"),
    ("repro.storage.tiled", "TiledMatrix.from_numpy", "storage.from_numpy"),
    ("repro.storage.tiled", "TiledVector.from_numpy", "storage.from_numpy"),
    ("repro.storage.tiled", "TiledMatrix.materialize", "storage.materialize"),
    ("repro.storage.tiled", "TiledVector.materialize", "storage.materialize"),
    ("repro.storage.tiled", "TiledMatrix.to_numpy", "storage.to_numpy"),
    ("repro.storage.tiled", "TiledVector.to_numpy", "storage.to_numpy"),
    ("repro.serve", "QueryService.submit", "serve.submit"),
    ("repro.serve", "render_result", "serve.render"),
]


class Tracer:
    """In-memory span recorder with per-thread span stacks.

    A span is recorded only while an op is running: on a thread that
    entered :meth:`op`, on a server thread serving a tenant whose client
    is inside an op, or on a helper thread (the spill prefetcher) while
    any op is running.  Work the benchmark does between ops — oracle
    checks, set-up — is not traced.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._tenant_ops: dict[str, int] = {}
        self._active_ops = 0
        #: ``(span id, parent id, op id, thread id, name, start, end)``.
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.total_seconds: dict[str, float] = defaultdict(float)
        #: Self time of spans that ran inside an op on the op's thread;
        #: divided by op wall this is the span coverage.
        self.covered_seconds = 0.0

    @contextmanager
    def op(self, op_id: int, tenant: Optional[str] = None) -> Iterator[None]:
        """Mark this thread (and ``tenant``'s server calls) as running an op."""
        self._local.op = op_id
        with self._lock:
            self._active_ops += 1
            if tenant is not None:
                self._tenant_ops[tenant] = op_id
        try:
            yield
        finally:
            self._local.op = None
            with self._lock:
                self._active_ops -= 1
                if tenant is not None:
                    self._tenant_ops.pop(tenant, None)

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            local = tracer._local
            op = getattr(local, "op", None)
            if op is None and not tracer._active_ops:
                return fn(*args, **kwargs)
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1][0] if stack else 0
            frame = [next(tracer._ids), 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer._record(
                    name, frame[0], parent, op, start, end,
                    duration - frame[1],
                )

        return traced

    def wrap_submit(self, fn: Callable) -> Callable:
        """``QueryService.submit`` runs on a server thread: tag its spans
        with the op of the client whose tenant it serves."""
        tracer = self
        inner = self.wrap("serve.submit", fn)

        @functools.wraps(fn)
        def traced(service: Any, tenant: str, *args: Any, **kwargs: Any) -> Any:
            with tracer._lock:
                op = tracer._tenant_ops.get(tenant)
            local = tracer._local
            previous = getattr(local, "op", None)
            local.op = op if op is not None else previous
            try:
                return inner(service, tenant, *args, **kwargs)
            finally:
                local.op = previous

        return traced

    def _record(
        self, name: str, span_id: int, parent: int, op: Optional[int],
        start: float, end: float, self_time: float,
    ) -> None:
        with self._lock:
            self.spans.append(
                (span_id, parent, op, threading.get_ident(), name, start, end)
            )
            self.calls[name] += 1
            self.self_seconds[name] += self_time
            self.total_seconds[name] += end - start
            if op is not None:
                self.covered_seconds += self_time

    def write(self, path: str) -> None:
        """Write every span as one JSON array per line (gzip)."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write(json.dumps(
                ["span_id", "parent_id", "op", "thread", "name", "start", "end"]
            ) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _resolve(module_name: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wrap every :data:`TARGETS` entry for the duration of the block."""
    undo: list[tuple[Any, str, Any]] = []
    try:
        for module_name, path, name in TARGETS:
            owner, attr = _resolve(module_name, path)
            # Read the raw attribute so classmethods keep their binding.
            original = (
                owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr)
            )
            if isinstance(original, classmethod):
                wrapped: Any = classmethod(tracer.wrap(name, original.__func__))
            elif name == "serve.submit":
                wrapped = tracer.wrap_submit(original)
            else:
                wrapped = tracer.wrap(name, original)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
