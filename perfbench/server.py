"""The benchmark's server process: DurableEngine + CepServer + sink.

Run by ``perfbench/run.py`` as ``python3 -m perfbench.server ...`` from
the repository root.  It builds the workload's engine factory, wraps it
in a :class:`~repro.resilience.durability.DurableEngine` whose sink
audits every delivery, serves it over TCP, and prints two lines on
stdout: ``READY <port> <prep_s>`` once it listens (``prep_s`` is the
time spent building the scenario, which set-up time excludes), and
``RESULT <json>`` after its one client session has closed.

For a ``closed`` phase it then probes recovery: ``DurableEngine.recover``
on the closed directory with a sink, timed; which deliveries replay
ran again after the clean close; and the recovered store's row count
against the live store's.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import resource
import sys
import time
from types import SimpleNamespace

from perfbench.workloads import (
    CHECKPOINT_EVERY,
    FSYNC,
    build_server_side,
    digest,
    get_workload,
    percentile,
)

#: Recoveries timed per closed phase; the load generator reports the
#: fastest of every closed phase's timings.
RECOVERIES = 2


class SinkAudit:
    """The external effect: records every delivery and checks its key.

    Each delivery is kept as a tuple of plain values, not the detection
    object, so the audit does not grow the heap the server's garbage
    collector walks with instance trees the program itself has dropped.

    ``drop`` (1-based) makes the sink lose that delivery — it returns
    without recording it, as a broken sink would — so the self-tests can
    prove the gate catches a lost delivery.
    """

    def __init__(self, drop: int = 0, triggers: bool = False) -> None:
        #: ``(rule_id, time, sorted bindings, revision, trigger)`` per delivery
        self.records: list[tuple] = []
        self.seqs: list[int] = []
        self.ordinals: list[int] = []
        self.times: list[float] = []
        self.key_violations = 0
        self.calls = 0
        self._last = (-1, -1)
        self._drop = drop
        self._triggers = triggers

    def __call__(self, detection, seq: int, ordinal: int) -> None:
        now = time.monotonic()
        self.calls += 1
        if self.calls == self._drop:
            return
        if (seq, ordinal) <= self._last:
            self.key_violations += 1
        self._last = (seq, ordinal)
        self.records.append((
            detection.rule.rule_id,
            detection.time,
            tuple(sorted(detection.bindings.items())),
            getattr(detection, "revision", None),
            _trigger(detection) if self._triggers else None,
        ))
        self.seqs.append(seq)
        self.ordinals.append(ordinal)
        self.times.append(now)

    def canonical(self) -> list:
        """The deliveries in :func:`repro.scenarios.canon_detections` form."""
        return [(rule, round(at, 9), bindings)
                for rule, at, bindings, _rev, _trig in self.records]

    def detections(self) -> list:
        """Stand-ins carrying what a pack verifier reads of a detection."""
        return [
            SimpleNamespace(rule=SimpleNamespace(rule_id=rule), time=at,
                            bindings=dict(bindings))
            for rule, at, bindings, _rev, _trig in self.records
        ]


class ReplaySink:
    """The sink of a recovery probe: the keys replay delivers again."""

    def __init__(self) -> None:
        self.keys: list[tuple[int, int]] = []

    def __call__(self, detection, seq: int, ordinal: int) -> None:
        self.keys.append((seq, ordinal))


def _trigger(detection):
    """The canonically last leaf reading, as ``(reader, obj, timestamp)``."""
    leaves = list(detection.instance.observations())
    if not leaves:
        return None
    last = max(leaves, key=lambda o: (o.timestamp, str(o.reader), str(o.obj)))
    return (str(last.reader), str(last.obj), last.timestamp)


def _store_rows(store) -> int:
    return sum(store.counts().values())


async def _serve(args, durable) -> dict:
    from repro.serve import CepServer, ServeConfig

    server = CepServer(durable, config=ServeConfig())
    if args.stamp_queue:
        from perfbench.trace import StampedQueue

        server._queue = StampedQueue(server.config.submit_queue)
    port = await server.serve_tcp("127.0.0.1", 0)
    print(f"READY {port} {args.prep_s!r}", flush=True)
    while server.stats.sessions_closed < 1:
        await asyncio.sleep(0.02)
    await server.close()
    client_id = f"perfbench-{args.phase}"
    result = {
        "bytes_in": server.stats.bytes_in,
        "server_frontier": server.client_frontier(client_id),
        "durable_frontier": durable.client_frontiers.get(client_id, -1),
    }
    if args.stamp_queue:
        waits = server._queue.waits
        result["queue_wait_p99_ms"] = (
            percentile(waits, 0.99) * 1e3 if waits else 0.0
        )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--phase", choices=("closed", "open", "setup"), required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--stamp-queue", action="store_true")
    parser.add_argument("--drop-delivery", type=int, default=0)
    parser.add_argument(
        "--verify", action="store_true",
        help="also run the pack's own store oracle (slow on large packs)",
    )
    args = parser.parse_args(argv)

    from repro.resilience.durability import DurableEngine

    workload = get_workload(args.workload)
    started = time.perf_counter()
    side = build_server_side(workload, args.seed, args.size)
    args.prep_s = time.perf_counter() - started

    sink = SinkAudit(
        args.drop_delivery, triggers=workload.revise_horizon is not None
    )
    durable = DurableEngine(
        side.factory,
        args.dir,
        fsync=FSYNC,
        checkpoint_every=CHECKPOINT_EVERY,
        sink=sink,
        confidence=workload.confidence,
    )
    loop = asyncio.new_event_loop()
    tracer = counts = None
    if args.trace:
        from perfbench.trace import Tracer, instrument_server

        tracer = Tracer()
        counts = instrument_server(tracer, durable, loop)
    try:
        served = loop.run_until_complete(_serve(args, durable))
    finally:
        loop.close()
        durable.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.phase == "setup":
        print("RESULT {}", flush=True)
        return 0

    engine = durable.engine
    stats = engine.stats
    live_rows = _store_rows(engine.store)
    per_rule: dict[str, int] = {}
    for rule_id, *_rest in sink.records:
        per_rule[rule_id] = per_rule.get(rule_id, 0) + 1
    checks = (
        side.verify(engine.store, sink.detections())
        if args.verify and side.verify
        else []
    )
    result = {
        **served,
        "peak_rss_mb": peak_rss_mb,
        "per_rule": dict(sorted(per_rule.items())),
        "digest": digest(sink.canonical()),
        "checks": checks,
        "key_violations": sink.key_violations,
        "sink_calls": sink.calls,
        "seqs": sink.seqs,
        "times": sink.times,
        "triggers": (
            [record[4] for record in sink.records]
            if workload.revise_horizon is not None
            else None
        ),
        "store_rows": live_rows,
        "store_digest": hashlib.sha256(
            json.dumps(engine.store.database.dump(), default=repr).encode()
        ).hexdigest(),
        "wal_records": durable.wal.appended,
        "wal_bytes": durable.wal.bytes_written,
        "wal_fsyncs": durable.wal.fsyncs,
        "outbox_deliveries": durable.outbox.delivered,
        "outbox_held": durable.outbox.held,
        "outbox_cancelled": durable.outbox.cancelled,
        "checkpoints": durable.checkpoints_written,
        "detections": stats.detections,
        "provisional": stats.speculative,
        "revised": stats.revised,
        "retracted": stats.retracted,
        "dropped_too_late": stats.dropped_too_late,
        # A final at revision 1 went provisional -> final with no revise
        # or retract in between: the provisional was right.
        "finalised_unchanged": sum(
            1 for record in sink.records if record[3] == 1
        ),
    }
    if tracer is not None:
        from perfbench.trace import finish_journal_count

        finish_journal_count(counts, durable.outbox)
        result["trace"] = {
            "wall_s": tracer.wall_s,
            "self_s": dict(tracer.self_s),
            "calls": dict(tracer.calls),
            "observations": counts.observations,
            "submit_calls": counts.submit_calls,
            "sql_parses": counts.sql_parses,
            "checkpoint_bytes": counts.checkpoint_bytes,
            "journal_bytes": counts.journal_bytes,
        }
    if args.phase == "closed" and not args.trace:
        # Recover as a serving process would: with a sink, so the outbox
        # journal is loaded and replayed deliveries are deduplicated
        # against it (and, under REVISE, the parked set is restored).
        # A replayed key the sink already had is a duplicate, which the
        # gate fails.  A key the run never delivered is a detection that
        # only the recovered engine makes: its store lacks the rows the
        # checkpoint does not cover (ROADMAP item 1), so it is reported
        # with the lost rows and not gated.  The first recovery acks
        # those in the journal, so later ones must deliver nothing.
        delivered = set(zip(sink.seqs, sink.ordinals))
        timings = []
        duplicates = 0
        fabricated = None
        # A serving process recovers with an empty heap.  This one still
        # holds the served engine and the sink's records, so freeze them
        # out of the collector's passes, and start each recovery from a
        # clean collector state.
        gc.collect()
        gc.freeze()
        for _ in range(RECOVERIES):
            replay_sink = ReplaySink()
            gc.collect()
            started = time.perf_counter()
            recovered, _report = DurableEngine.recover(
                side.factory,
                args.dir,
                fsync=FSYNC,
                checkpoint_every=CHECKPOINT_EVERY,
                sink=replay_sink,
                confidence=workload.confidence,
            )
            timings.append(time.perf_counter() - started)
            replayed = set(replay_sink.keys)
            duplicates += len(replay_sink.keys) - len(replayed - delivered)
            if fabricated is None:
                fabricated = len(replayed - delivered)
            delivered |= replayed
            recovered_rows = _store_rows(recovered.engine.store)
            recovered.close()
        result["recover_s"] = timings
        result["recover_duplicates"] = duplicates
        result["recover_fabricated"] = fabricated
        result["store_rows_lost"] = live_rows - recovered_rows
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
