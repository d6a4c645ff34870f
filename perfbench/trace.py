"""Per-layer tracing for the traced run: self time and counts per layer.

Every hook wraps a call *into* a layer from outside it — a method of the
durable engine, WAL, outbox, engine, rule or database object the server
builds — so the program itself is unchanged.  Each wrapped call is a
span; spans nest along the call stack, and a layer's self time is its
spans' duration minus the part covered by child spans.  The event loop's
iterations are the outermost spans (``serve``), and the selector wait
inside them is ``serve.idle``; so over the traced window the self times
sum to the window's wall time, up to the time spent between loop
iterations, which is reported as ``bench.unaccounted_share``.

The window opens at the first backend call and closes when the FLUSH
backend call returns, after the last sink delivery.
"""

from __future__ import annotations

import asyncio
import functools
import os
from collections import Counter, defaultdict
from time import perf_counter

#: Span names, in report order; ``unaccounted`` is time in no span.
LAYERS = (
    "serve",
    "serve.idle",
    "durable",
    "wal",
    "engine",
    "rules.condition",
    "rules.actions",
    "sql",
    "outbox",
    "sink",
    "checkpoint",
)


class Tracer:
    """Exclusive-time accounting over nested spans.

    Each transition (span enter or exit) charges the time since the last
    transition to the innermost open span, which is exactly "duration
    minus child spans" summed over that layer's spans.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.active = False
        self.window_start = 0.0
        self.window_end = 0.0
        self._stack: list[str] = []
        self._last = 0.0

    def _charge(self, now: float) -> None:
        top = self._stack[-1] if self._stack else "unaccounted"
        self.self_s[top] += now - self._last
        self._last = now

    def start(self) -> None:
        """Open the window from inside a loop iteration."""
        now = perf_counter()
        self.active = True
        self.window_start = self._last = now
        self._stack = ["serve"]

    def stop(self) -> None:
        now = perf_counter()
        self._charge(now)
        self.window_end = now
        self.active = False
        self._stack = []

    def enter(self, name: str) -> None:
        self._charge(perf_counter())
        self._stack.append(name)
        self.calls[name] += 1

    def exit(self) -> None:
        self._charge(perf_counter())
        self._stack.pop()

    @property
    def wall_s(self) -> float:
        return self.window_end - self.window_start


def _wrap(tracer: Tracer, owner, attribute: str, name: str, before=None):
    """Replace ``owner.attribute`` with a traced call of the original."""
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        if not tracer.active:
            return original(*args, **kwargs)
        if before is not None:
            before(*args, **kwargs)
        tracer.enter(name)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.exit()

    setattr(owner, attribute, traced)


class LayerCounts:
    """Counts taken at the same boundaries the spans wrap."""

    def __init__(self) -> None:
        self.observations = 0
        self.submit_calls = 0
        self.sql_parses = 0
        self.checkpoint_bytes = 0
        self.journal_bytes = 0
        self._journal_size = 0


def instrument_server(tracer: Tracer, durable, loop) -> LayerCounts:
    """Hook the event loop and every layer under the durable backend.

    Call before building the :class:`~repro.serve.CepServer`, which
    inspects ``submit_many``'s signature (kept by ``functools.wraps``).
    """
    counts = LayerCounts()
    run_once = loop._run_once
    select = loop._selector.select

    def traced_run_once():
        if tracer.active:
            tracer.enter("serve")
            try:
                return run_once()
            finally:
                if tracer.active:
                    tracer.exit()
        run_once()
        if tracer.active:  # the window opened inside this iteration
            tracer.exit()

    def traced_select(timeout=None):
        if not tracer.active:
            return select(timeout)
        tracer.enter("serve.idle")
        try:
            return select(timeout)
        finally:
            tracer.exit()

    loop._run_once = traced_run_once
    loop._selector.select = traced_select

    submit_many = durable.submit_many
    flush = durable.flush

    @functools.wraps(submit_many)
    def traced_submit_many(observations, **kwargs):
        if not tracer.active:
            tracer.start()
        observations = list(observations)
        counts.observations += len(observations)
        counts.submit_calls += 1
        tracer.enter("durable")
        try:
            return submit_many(observations, **kwargs)
        finally:
            tracer.exit()

    @functools.wraps(flush)
    def traced_flush(**kwargs):
        if not tracer.active:
            return flush(**kwargs)
        tracer.enter("durable")
        try:
            return flush(**kwargs)
        finally:
            tracer.exit()
            tracer.stop()

    durable.submit_many = traced_submit_many
    durable.flush = traced_flush

    for method in ("append", "append_many"):
        _wrap(tracer, durable.wal, method, "wal")
    engine = durable.engine
    for method in ("submit", "flush"):
        _wrap(tracer, engine, method, "engine")
    for rule in engine.rules:
        _wrap(tracer, rule, "evaluate_condition", "rules.condition")
        _wrap(tracer, rule, "execute_actions", "rules.actions")

    def count_parse(statement, *_args, **_kwargs):
        if isinstance(statement, str):
            counts.sql_parses += 1

    _wrap(tracer, engine.store.database, "execute", "sql", before=count_parse)

    outbox = durable.outbox
    _wrap(tracer, outbox, "deliver", "outbox")
    _wrap(tracer, outbox, "sink", "sink")
    compact = outbox.compact

    @functools.wraps(compact)
    def counted_compact(up_to_seq):
        # Compaction rewrites the journal: count what was appended since
        # the last rewrite, then the rewritten file itself.
        finish_journal_count(counts, outbox)
        dropped = compact(up_to_seq)
        if dropped:
            counts._journal_size = os.path.getsize(outbox.path)
            counts.journal_bytes += counts._journal_size
        return dropped

    outbox.compact = counted_compact

    checkpoint_now = durable.checkpoint_now

    @functools.wraps(checkpoint_now)
    def traced_checkpoint():
        if not tracer.active:
            return checkpoint_now()
        tracer.enter("checkpoint")
        try:
            path = checkpoint_now()
        finally:
            tracer.exit()
        if path is not None:
            counts.checkpoint_bytes += os.path.getsize(path)
        return path

    durable.checkpoint_now = traced_checkpoint
    return counts


def finish_journal_count(counts: LayerCounts, outbox) -> None:
    """Add the journal bytes appended since the last compaction."""
    counts.journal_bytes += os.path.getsize(outbox.path) - counts._journal_size
    counts._journal_size = os.path.getsize(outbox.path)


class StampedQueue(asyncio.Queue):
    """The server's submit queue, recording each item's wait in it."""

    def __init__(self, maxsize: int) -> None:
        super().__init__(maxsize)
        self._stamps: dict[int, float] = {}
        self.waits: list[float] = []

    def put_nowait(self, item) -> None:
        super().put_nowait(item)
        if item is not None:
            self._stamps[id(item)] = perf_counter()

    def get_nowait(self):
        item = super().get_nowait()
        stamp = self._stamps.pop(id(item), None)
        if stamp is not None:
            self.waits.append(perf_counter() - stamp)
        return item
