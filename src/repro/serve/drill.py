"""One drill harness for the end-to-end exactly-once drills.

The paper's bridge claim — physical readings become exactly the
virtual-world events and effects an in-order run would produce — is
proven end to end by four drills, each a *preset* of this harness:

* ``python -m repro chaos serve`` (:func:`run_chaos_serve_drill`) — a
  v1 JSON client and a v2 binary client push disjoint slices of a
  scenario-pack stream through a seeded :class:`ChaosProxy`
  (fragmentation, XOR corruption, resets, stalls) into a durable server
  that is hard-killed and recovered mid-stream;
* ``python -m repro chaos skew`` (:func:`run_chaos_skew_drill`) — a
  seeded :class:`~repro.resilience.chaos.ChaosInjector` skews, delays
  and duplicates a packing + smart-shelf stream into a REVISE-mode
  durable server whose outbox holds actions until detections seal; the
  server is hard-killed with speculation live;
* ``python -m repro chaos cluster`` (:func:`run_cluster_drill`) — a
  router fans a multi-line packing stream out to shard workers, one of
  which is SIGKILLed mid-stream with batches in flight and respawned
  with ``DurableEngine.recover``;
* ``python -m repro smoke`` (:func:`run_smoke_drill`) — an open-world
  generated workload (:mod:`repro.workload`) through the durable server
  or the cluster, audited in O(1) memory.

The harness owns what the presets share: the check collector and report
wrapper (:func:`_run`), the durable-server topology and its kill step
(:class:`_ServerTopology`), the cluster topology
(:class:`_ClusterTopology`), the exactly-once sink audit
(:class:`_SinkAudit`), WAL and worker-sink read-back and slice
submission.  Each preset keeps only its workload builder, its fault
source, its phase script and its own checks.

Every workload and fault schedule is a pure function of the seed
(timing interleavings vary, correctness must not), so a failing run is
reproducible from the seed echoed in its report.
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
import time
from typing import TYPE_CHECKING, Any, Awaitable, Callable, Optional

from .client import AsyncClient, RetryConfig, tcp_connector
from .cluster import SINK_FILENAME, Cluster
from .faults import ChaosProxy, NetworkFaultPlan
from .protocol import DetectionFrame
from .server import CepServer, ServeConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..resilience.chaos import ChaosConfig
    from ..workload.shaping import ShapingConfig

__all__ = [
    "cluster_program",
    "default_fault_plan",
    "read_worker_sinks",
    "run_chaos_serve_drill",
    "run_chaos_skew_drill",
    "run_cluster_drill",
    "run_smoke_drill",
]

_HOST = "127.0.0.1"

#: Reconnect policy for clients that must ride out a server kill.
_RETRY = RetryConfig(
    max_attempts=80, backoff_base=0.01, backoff_max=0.2, op_timeout=30.0
)

_Check = Callable[..., None]


# -- harness -----------------------------------------------------------------


def _run(
    prefix: str,
    directory: Optional[str],
    timeout: float,
    report_path: Optional[str],
    body: Callable[[str, _Check], Awaitable[dict]],
) -> dict:
    """Run ``body(directory, check)`` and finish its report.

    ``check(name, ok, detail)`` records one invariant.  The wrapper adds
    the verdict (``ok``), the itemized ``checks`` and the ``directory``,
    and writes the JSON report to ``report_path`` when one is given.
    """
    if directory is None:
        directory = tempfile.mkdtemp(prefix=prefix)
    checks: dict[str, dict] = {}

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks[name] = {"ok": bool(ok), "detail": detail}

    report = asyncio.run(asyncio.wait_for(body(directory, check), timeout))
    report.update(
        ok=all(entry["ok"] for entry in checks.values()),
        checks=checks,
        directory=directory,
    )
    if report_path:
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        report["report_path"] = report_path
    return report


async def _quietly(
    awaitable: Awaitable, timeout: Optional[float] = None
) -> None:
    """A teardown step whose failure must not mask the drill's outcome."""
    try:
        await asyncio.wait_for(awaitable, timeout)
    except Exception:
        pass


class _SinkAudit:
    """Exactly-once audit of sink deliveries; :meth:`record` is the sink.

    Delivery keys ``(seq, ordinal)`` must strictly increase per shard —
    an O(1)-memory check that holds at millions of deliveries.  With
    ``keep=True`` every delivery is also retained, so a preset can count
    unique keys and compare the delivered detections with its baseline.
    """

    def __init__(self, keep: bool = False) -> None:
        self.count = 0
        self.per_rule: dict[str, int] = {}
        self.monotonic = True
        self.deliveries: Optional[list] = [] if keep else None
        self._last: dict[str, tuple[int, int]] = {}

    def record(
        self, detection: Any, seq: int, ordinal: int, shard: str = ""
    ) -> None:
        key = (seq, ordinal)
        if key <= self._last.get(shard, (-1, -1)):
            self.monotonic = False
        self._last[shard] = key
        self.count += 1
        rule = getattr(detection.rule, "rule_id", detection.rule)
        self.per_rule[rule] = self.per_rule.get(rule, 0) + 1
        if self.deliveries is not None:
            self.deliveries.append((shard, seq, ordinal, detection))

    @property
    def detections(self) -> list:
        return [detection for *_, detection in self.deliveries]

    @property
    def unique_keys(self) -> int:
        return len({delivery[:3] for delivery in self.deliveries})

    def check_no_duplicates(self, check: _Check) -> None:
        check(
            "sink_no_duplicates",
            self.unique_keys == self.count,
            f"{self.count} deliveries, {self.unique_keys} unique keys",
        )


def _obs_key(observation: Any) -> tuple:
    extra = getattr(observation, "extra", None)
    return (
        observation.reader,
        observation.obj,
        observation.timestamp,
        tuple(sorted(extra.items())) if extra else None,
    )


def _wal_records(directory: str) -> list[tuple[Any, Any]]:
    """``(client provenance, observation)`` per WAL record, in log order.

    Either side may be ``None``: a flush marker carries provenance but
    no observation.
    """
    from ..resilience.durability import decode_payload, read_wal
    from ..resilience.durability.engine import CLIENT_KEY, WAL_SUBDIR

    return [
        (record.payload.get(CLIENT_KEY), decode_payload(record.payload))
        for record in read_wal(os.path.join(directory, WAL_SUBDIR))
    ]


def read_worker_sinks(directory: str, plan: Any):
    """Yield ``(shard, DetectionFrame)`` per cluster worker-sink delivery.

    Reads each shard's :data:`~repro.serve.cluster.SINK_FILENAME` file
    (written by :func:`~repro.serve.cluster.file_sink`) in shard-name
    order; a shard that never delivered has no file.
    """
    for shard, node in sorted(plan.assignment.items()):
        path = os.path.join(directory, node, shard, SINK_FILENAME)
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                yield shard, DetectionFrame.from_payload(json.loads(line))


def _split(stream: list, parts: int) -> list:
    """``parts`` consecutive slices of ``stream`` (trailing ones may be empty)."""
    size = max(1, -(-len(stream) // parts))
    return [stream[i * size : (i + 1) * size] for i in range(parts)]


async def _submit_slice(client: AsyncClient, observations: list) -> None:
    """Submit one slice observation by observation, then await its acks.

    Small writes keep a fault proxy fed with many distinct chunks, which
    is what its fault rates act on.
    """
    for observation in observations:
        await client.submit(observation)
    await client.drain()


class _ServerTopology:
    """A durable :class:`CepServer` on TCP, optionally behind a proxy.

    :meth:`kill_during` is the shared kill step: hard-kill the server
    (:meth:`CepServer.abort` drops the submit queue; sessions die
    without BYE) while a phase is in flight, ``DurableEngine.recover``
    the directory, serve it on a fresh port and retarget the proxy or
    the clients' connector.  Clients then reconnect and resend their
    unacked buffers without operator help.  ``async with`` closes the
    clients, the proxy, the server and the engine.
    """

    def __init__(
        self,
        factory: Callable,
        directory: str,
        *,
        config: Optional[ServeConfig] = None,
        plan: Optional[NetworkFaultPlan] = None,
        **durable_kwargs: Any,
    ) -> None:
        from ..resilience.durability import DurableEngine

        self.factory = factory
        self.directory = directory
        self.config = config if config is not None else ServeConfig()
        self.plan = plan
        # checkpoint_every=0: no checkpoints means no WAL pruning, so the
        # post-mortem can read the whole stream back from the log.
        self.durable_kwargs = dict(checkpoint_every=0, **durable_kwargs)
        self.durable = DurableEngine(factory, directory, **self.durable_kwargs)
        self.servers = [CepServer(self.durable, config=self.config)]
        self.proxy: Optional[ChaosProxy] = None
        self.clients: list[AsyncClient] = []
        self.recovery = None
        self.port = 0  # what clients dial: the proxy, else the server

    @property
    def server(self) -> CepServer:
        return self.servers[-1]

    async def __aenter__(self) -> _ServerTopology:
        port = await self.server.serve_tcp(_HOST, 0)
        if self.plan is None:
            self.port = port
        else:
            self.proxy = ChaosProxy(self.plan, _HOST, port)
            self.port = await self.proxy.start()
        return self

    async def __aexit__(self, *_exc: Any) -> None:
        for client in self.clients:
            await _quietly(client.close(), 2.0)
        if self.proxy is not None:
            await self.proxy.close()
        await _quietly(self.server.close())
        self.durable.close()

    def client(self, client_id: str, **kwargs: Any) -> AsyncClient:
        client = AsyncClient(self._dial, client_id=client_id, **kwargs)
        self.clients.append(client)
        return client

    async def _dial(self):
        return await tcp_connector(_HOST, self.port)()

    async def kill_during(self, phase: Awaitable) -> None:
        """Kill and recover the server while ``phase`` runs; await it."""
        from ..resilience.durability import DurableEngine

        pump = asyncio.ensure_future(phase)
        await asyncio.sleep(0.05)
        await self.server.abort()
        self.durable, self.recovery = DurableEngine.recover(
            self.factory, self.directory, **self.durable_kwargs
        )
        self.servers.append(CepServer(self.durable, config=self.config))
        port = await self.server.serve_tcp(_HOST, 0)
        if self.proxy is None:
            self.port = port
        else:
            self.proxy.retarget(port=port)
        await pump

    def frontier(self, client: AsyncClient) -> tuple[int, int]:
        """``(server, durable WAL)`` views of ``client``'s ack frontier."""
        return (
            self.server.client_frontier(client.client_id),
            self.durable.client_frontiers.get(client.client_id, -1),
        )

    def recovery_report(self) -> dict:
        recovery = self.recovery
        return {
            "replayed_records": recovery.replayed_records,
            "suppressed_deliveries": recovery.suppressed_deliveries,
            "redelivered": recovery.redelivered,
            "torn_bytes_truncated": recovery.torn_bytes_truncated,
        }


class _ClusterTopology:
    """Router + shard workers with file sinks, and one client in front.

    The kill step's :attr:`victim` is the node owning the plan's first
    shard, so a kill provably lands on live traffic.  :meth:`stop` shuts
    the cluster down cleanly and audits the worker sinks on disk;
    ``async with`` tears down whatever is still up.
    """

    def __init__(
        self,
        program: str,
        *,
        workers: int,
        directory: str,
        inprocess: bool = False,
    ) -> None:
        self.directory = directory
        self.cluster = Cluster(
            program,
            workers=workers,
            directory=directory,
            sink=True,
            inprocess=inprocess,
        )
        self.client: Optional[AsyncClient] = None

    async def __aenter__(self) -> _ClusterTopology:
        return self

    async def __aexit__(self, *_exc: Any) -> None:
        if self.client is not None:
            await _quietly(self.client.close(), 2.0)
        await _quietly(self.cluster.stop())

    async def connect(self, **client_kwargs: Any) -> AsyncClient:
        port = await self.cluster.start()
        self.client = AsyncClient(tcp_connector(_HOST, port), **client_kwargs)
        await self.client.connect()
        return self.client

    @property
    def victim(self) -> str:
        plan = self.cluster.plan
        return plan.assignment[sorted(plan.assignment)[0]]

    async def stop(self, keep: bool = False) -> _SinkAudit:
        """Close the client, stop the cluster, audit the worker sinks."""
        await asyncio.wait_for(self.client.close(), 5)
        self.client = None
        await self.cluster.stop()
        audit = _SinkAudit(keep)
        for shard, frame in read_worker_sinks(
            self.directory, self.cluster.plan
        ):
            audit.record(frame, frame.seq, frame.ordinal, shard)
        return audit

    def check_frontier(
        self, check: _Check, name: str, flush_seq: int, submitted: int
    ) -> None:
        """The flush seq closed the stream and the router routed all of it."""
        routed = self.cluster.router.stats.routed
        check(
            name,
            flush_seq == submitted and routed == submitted,
            f"flush_seq={flush_seq} routed={routed} stream={submitted}",
        )


# -- preset: chaos serve -----------------------------------------------------


def default_fault_plan(seed: int = 7) -> NetworkFaultPlan:
    """The standard drill mix: hostile but survivable.

    Rates are per transport chunk and deliberately high — a soak with a
    few dozen chunks must still fire every fault class.
    """
    return NetworkFaultPlan(
        seed=seed,
        jitter=0.002,
        fragment_rate=0.35,
        fragment_cuts=6,
        stall_rate=0.08,
        stall_seconds=0.01,
        reset_rate=0.12,
        corrupt_rate=0.08,
    )


def _pack_workload(scenario: str, seed: int, cases: int):
    """(factory, stream, baseline_detections) for one scenario-pack run.

    Any registered pack works, so the soak can exercise SQL-conditioned
    rules (``returns-fraud``) or pseudo-event TSEQs (``cold-chain``),
    not just packing.
    """
    from ..scenarios import canon_detections, get_pack

    run = get_pack(scenario).build(seed=seed, size=cases)
    factory = run.engine_factory()
    stream = list(run.observations)
    return factory, stream, canon_detections(factory().run(stream))


def run_chaos_serve_drill(
    seed: int = 7,
    cases: int = 20,
    plan: Optional[NetworkFaultPlan] = None,
    *,
    directory: Optional[str] = None,
    heartbeat_interval: float = 0.05,
    idle_deadline: float = 2.0,
    timeout: float = 120.0,
    report_path: Optional[str] = None,
    scenario: str = "packing",
) -> dict:
    """Run the chaos soak drill; returns (and optionally writes) its report.

    Audited against an in-process baseline run of the same rules over
    the same stream: the WAL holds the stream byte for byte with
    contiguous per-client provenance; the sink received every baseline
    detection exactly once; client/server/durable frontiers agree; every
    fault class fired; the v2 peer was pinged and the v1 peer never was.

    ``scenario`` names any registered scenario pack.  The same ``seed``
    replays the same fault schedule — echo it with every failure.
    """
    if plan is None:
        plan = default_fault_plan(seed)
    elif plan.seed != seed:
        plan = plan.reseeded(seed)

    async def body(directory: str, check: _Check) -> dict:
        from ..scenarios import canon_detections

        factory, stream, baseline = _pack_workload(scenario, seed, cases)
        slices = _split(stream, 4)
        audit = _SinkAudit(keep=True)
        config = ServeConfig(
            heartbeat_interval=heartbeat_interval, idle_deadline=idle_deadline
        )
        async with _ServerTopology(
            factory, directory, config=config, plan=plan, sink=audit.record
        ) as topo:
            v1 = topo.client(
                f"drill-v1-{seed}", batch_size=4, retry=_RETRY, protocol_version=1
            )
            v2 = topo.client(
                f"drill-v2-{seed}", batch_size=4, retry=_RETRY, codec="binary"
            )
            await v1.connect()
            await v2.connect()

            # Phases are serialized (each slice fully acked before the next
            # client starts) so the backend applies the baseline order even
            # though two clients share the stream.  The kill lands while v2
            # is mid-slice: whatever sat unapplied in the submit queue
            # vanishes; v2 resends it from its unacked buffer after the
            # recovered server tells it the durable frontier at WELCOME.
            await _submit_slice(v1, slices[0])
            await _submit_slice(v2, slices[1])
            await topo.kill_during(_submit_slice(v2, slices[2]))
            await _submit_slice(v1, slices[3])

            # Let the link go quiet so the server's liveness loop probes the
            # idle v2 session; a chaos reset can kill the session mid-wait,
            # so reconnect (no data moves — the pending buffer is empty).
            loop = asyncio.get_running_loop()
            ping_deadline = loop.time() + 10.0
            while v2.heartbeats == 0 and loop.time() < ping_deadline:
                if not v2._connected:
                    await v2.connect()
                await asyncio.sleep(heartbeat_interval)

            # One end-of-stream flush, exactly like the baseline run's.
            await v2.flush()
            await v1.drain()

            # 1. WAL == stream, byte for byte, in order; per-client
            #    provenance is a contiguous sequence.
            records = _wal_records(directory)
            wal_obs = [_obs_key(o) for _, o in records if o is not None]
            check(
                "wal_matches_stream",
                wal_obs == [_obs_key(o) for o in stream],
                f"wal={len(wal_obs)} stream={len(stream)}",
            )
            provenance: dict[str, list[int]] = {}
            for client, _ in records:
                if client:
                    provenance.setdefault(client[0], []).append(client[1])
            contiguous = all(
                seqs == list(range(seqs[0], seqs[0] + len(seqs)))
                for seqs in provenance.values()
            )
            check(
                "client_provenance_contiguous",
                contiguous and set(provenance) == {v1.client_id, v2.client_id},
                str({k: len(v) for k, v in provenance.items()}),
            )

            # 2. Exactly-once detections at the sink.
            audit.check_no_duplicates(check)
            delivered = canon_detections(audit.detections)
            check(
                "detections_match_baseline",
                delivered == baseline,
                f"delivered={len(delivered)} baseline={len(baseline)}",
            )

            # 3. Frontier agreement: client, server record, durable WAL.
            for client in (v1, v2):
                server_view, durable_view = topo.frontier(client)
                check(
                    f"frontier_{client.client_id}",
                    client.last_acked == server_view == durable_view,
                    f"client={client.last_acked} server={server_view} "
                    f"wal={durable_view}",
                )

            # 4. The plan actually fired — and no corrupt frame was decoded
            #    (if one had been, checks 1-3 could not all hold).
            stats = topo.proxy.stats
            check(
                "faults_fired",
                stats.fragments > 0 and stats.corruptions > 0 and stats.resets > 0,
                f"fragments={stats.fragments} corruptions={stats.corruptions} "
                f"resets={stats.resets} stalls={stats.stalls}",
            )

            # 5. Heartbeats are capability-gated.
            check(
                "v2_heartbeats",
                v2.heartbeats > 0,
                f"v2 answered {v2.heartbeats} pings",
            )
            check(
                "v1_never_pinged",
                v1.heartbeats == 0,
                f"v1 answered {v1.heartbeats} pings",
            )

            return {
                "seed": seed,
                "scenario": scenario,
                "cases": cases,
                "observations": len(stream),
                "plan": plan.describe(),
                "faults": stats.as_dict(),
                "proxy": {
                    "connections_accepted": topo.proxy.connections_accepted,
                    "connections_refused": topo.proxy.connections_refused,
                },
                "clients": {
                    name: {
                        "client_id": client.client_id,
                        "reconnects": client.reconnects,
                        "heartbeats": client.heartbeats,
                        "frame_errors": client.frame_errors,
                        "last_acked": client.last_acked,
                    }
                    for name, client in (("v1", v1), ("v2", v2))
                },
                "server": {
                    name: sum(getattr(s.stats, name) for s in topo.servers)
                    for name in (
                        "reconnects",
                        "pings_sent",
                        "pongs_received",
                        "sessions_reaped",
                        "duplicates_skipped",
                        "errors_sent",
                    )
                },
                "recovery": topo.recovery_report(),
            }

    return _run("chaos-serve-", directory, timeout, report_path, body)


# -- preset: chaos skew ------------------------------------------------------

#: Shelf bulk-read period (seconds).  The outfield rule's window equals
#: it, so a held-back re-read routinely arrives *after* the speculative
#: window close — the provisional-then-retract scenario.
SHELF_PERIOD = 2.0


def _outfield_rule():
    """Outfield negation over the shelf reader (paper Rule 2 pattern)."""
    from ..core.expressions import Not, Seq, Var, Within, obs
    from ..rules import AlertAction, Rule

    event = Within(
        Seq(
            obs("shelf1", Var("o"), t=Var("t1")),
            Not(obs("shelf1", Var("o"), t=Var("t2"))),
        ),
        SHELF_PERIOD,
    )
    return Rule(
        "outfield",
        "item left the shelf",
        event,
        actions=[AlertAction("item {o} left the shelf at {time}")],
    )


def _skew_workload(cases: int, seed: int, horizon: float):
    """(factory, arrival_stream, oracle_detections, fault_counts)."""
    import random

    from ..core.detector import Engine, FunctionRegistry, OutOfOrderPolicy
    from ..core.speculate import canonical_key
    from ..resilience.chaos import ChaosConfig, ChaosInjector
    from ..scenarios import canon_detections, get_pack
    from ..simulator import ShelfConfig, simulate_shelf
    from ..store import RfidStore

    packing = get_pack("packing").build(seed=seed, size=cases)

    def rules():
        return list(packing.rules) + [_outfield_rule()]

    def factory():
        return Engine(
            rules(),
            store=RfidStore(),
            functions=FunctionRegistry(),
            out_of_order=OutOfOrderPolicy.REVISE,
            revise_horizon=horizon,
        )

    # Two interleaved sources: a packing line (TSeq containment windows)
    # and a smart shelf whose periodic bulk re-reads feed the outfield
    # negation — the workload where a held-back re-read makes the
    # speculative engine provisionally declare a removal it must then
    # take back.
    shelf = simulate_shelf(
        ShelfConfig(
            reader="shelf1",
            read_period=SHELF_PERIOD,
            items=max(8, cases),
            arrival_window=(0.0, 90.0),
            stay_range=(5.0, 25.0),
        ),
        rng=random.Random(seed + 1),
    )
    trace_observations = sorted(
        packing.observations + shelf.observations,
        key=lambda observation: observation.timestamp,
    )
    injector = ChaosInjector(
        ChaosConfig(
            seed=seed,
            skew_rate=0.15,
            max_skew=0.5,
            disorder_rate=0.25,
            max_lateness=2.0,
            duplicate_rate=0.10,
            duplicate_max_extra=2,
        )
    )
    arrival = list(injector.inject(trace_observations))

    # The in-order oracle: same readings, canonical stream order, plain
    # in-order engine.  REVISE's finals must converge to exactly this.
    oracle_engine = Engine(
        rules(), store=RfidStore(), functions=FunctionRegistry()
    )
    oracle = canon_detections(
        oracle_engine.run(sorted(arrival, key=canonical_key))
    )
    return factory, arrival, oracle, injector.counts


def run_chaos_skew_drill(
    seed: int = 11,
    cases: int = 16,
    *,
    horizon: float = 6.0,
    directory: Optional[str] = None,
    timeout: float = 120.0,
    report_path: Optional[str] = None,
) -> dict:
    """Run the skew drill; returns (and optionally writes) its report.

    Audited against the *in-order oracle* — the same perturbed readings
    sorted by :func:`~repro.core.speculate.canonical_key` through a plain
    in-order engine: the sink received exactly the oracle's detections,
    finals only, exactly once (unique keys and detection ids); nothing
    fell outside the horizon; the faults fired, speculation really
    retracted and the outbox held provisionals back.

    ``horizon`` is the engine's ``revise_horizon``; it must exceed the
    fault mix's worst-case lateness (disorder ``max_lateness`` plus
    skew), or ``nothing_outside_horizon`` fails loudly rather than
    letting readings vanish.  The same ``seed`` replays the same
    perturbation schedule — echo it with every failure.
    """

    async def body(directory: str, check: _Check) -> dict:
        from ..scenarios import canon_detections

        factory, arrival, oracle, fault_counts = _skew_workload(
            cases, seed, horizon
        )
        slices = _split(arrival, 4)
        audit = _SinkAudit(keep=True)
        async with _ServerTopology(
            factory, directory, sink=audit.record, confidence="final"
        ) as topo:
            client = topo.client(
                f"skew-{seed}", batch_size=8, retry=_RETRY, codec="binary"
            )
            await client.connect()
            await _submit_slice(client, slices[0])
            await _submit_slice(client, slices[1])
            # Hard-kill the server while a slice is in flight *and*
            # speculation is live: the reorder buffer holds readings, the
            # outbox holds parked provisionals.  Recovery must rebuild both
            # from the WAL alone.
            await topo.kill_during(_submit_slice(client, slices[2]))
            await _submit_slice(client, slices[3])
            # End of stream: the flush seals every surviving speculation,
            # exactly like the oracle run's own flush.
            await client.flush()

            delivered = canon_detections(audit.detections)
            check(
                "finals_match_inorder_oracle",
                delivered == oracle,
                f"delivered={len(delivered)} oracle={len(oracle)}",
            )
            statuses = {getattr(d, "status", "") for d in audit.detections}
            check(
                "only_finals_delivered",
                statuses <= {"final"},
                f"statuses={sorted(statuses)}",
            )
            dids = [
                d.detection_id
                for d in audit.detections
                if getattr(d, "detection_id", "")
            ]
            check(
                "sink_exactly_once",
                audit.unique_keys == audit.count and len(dids) == len(set(dids)),
                f"{audit.count} deliveries, {audit.unique_keys} unique keys, "
                f"{len(set(dids))} unique detection ids",
            )

            stats = topo.durable.engine.stats
            check(
                "nothing_outside_horizon",
                stats.dropped_too_late == 0,
                f"dropped_too_late={stats.dropped_too_late}",
            )
            check(
                "faults_fired",
                fault_counts["skewed"] > 0
                and fault_counts["delayed"] > 0
                and fault_counts["duplicated"] > 0,
                f"skewed={fault_counts['skewed']} "
                f"delayed={fault_counts['delayed']} "
                f"duplicated={fault_counts['duplicated']}",
            )
            check(
                "speculation_exercised",
                stats.speculative > 0 and stats.retracted > 0,
                f"speculative={stats.speculative} revised={stats.revised} "
                f"retracted={stats.retracted} sealed={stats.sealed}",
            )
            outbox = topo.durable.outbox
            check(
                "outbox_held_the_line",
                outbox.held > 0 and not outbox.pending,
                f"held={outbox.held} cancelled={outbox.cancelled} "
                f"still_pending={len(outbox.pending)}",
            )

            return {
                "seed": seed,
                "cases": cases,
                "horizon": horizon,
                "observations": len(arrival),
                "faults": dict(fault_counts),
                "engine": {
                    "speculative": stats.speculative,
                    "revised": stats.revised,
                    "retracted": stats.retracted,
                    "sealed": stats.sealed,
                    "dropped_too_late": stats.dropped_too_late,
                },
                "outbox": {
                    "held": outbox.held,
                    "cancelled": outbox.cancelled,
                    "timed_out": outbox.timed_out,
                },
                "client": {
                    "client_id": client.client_id,
                    "reconnects": client.reconnects,
                    "last_acked": client.last_acked,
                },
                "recovery": topo.recovery_report(),
            }

    return _run("chaos-skew-", directory, timeout, report_path, body)


# -- preset: chaos cluster ---------------------------------------------------


def cluster_program(
    reader_pairs, *, rules_per_pair: int = 1, decoys_per_pair: int = 0
) -> str:
    """Render the bench containment rules as rule-language source.

    The cluster ships rules across process boundaries as *text* (router
    and workers each parse it, arriving at the same shard plan without
    coordination), so the drill's rules must exist in textual form.
    They are the exact :func:`~repro.bench.workloads
    .containment_rule_for_pair` structures, rendered through the
    language printer rather than hand-written — one source of truth.

    ``decoys_per_pair`` adds never-firing variants: same shape, but the
    case-delay window sits just past the simulator's ``case_delay``
    upper bound, so they pay full per-event automaton work without
    producing detections.  The cluster benchmark uses them to scale
    detection *cost* independently of detection *volume* (every fired
    detection also crosses the wire twice).
    """
    from ..bench.workloads import containment_rule_for_pair
    from ..core.expressions import TSeq, TSeqPlus, Var, obs
    from ..lang import format_event

    lines = []
    index = 0
    for variant in range(rules_per_pair):
        for item_reader, case_reader in reader_pairs:
            rule = containment_rule_for_pair(
                index, item_reader, case_reader, variant
            )
            lines.append(
                f"CREATE RULE bench_{index}, containment {index}\n"
                f"ON {format_event(rule.event)}\n"
                f"IF true\n"
                f"DO ALERT 'containment {index}'\n"
            )
            index += 1
    for variant in range(decoys_per_pair):
        for item_reader, case_reader in reader_pairs:
            event = TSeq(
                TSeqPlus(obs(item_reader, Var("o1")), 0.1, 1.0),
                obs(case_reader, Var("o2")),
                21.0 + variant,
                22.0 + variant,
            )
            lines.append(
                f"CREATE RULE bench_{index}, decoy {index}\n"
                f"ON {format_event(event)}\n"
                f"IF true\n"
                f"DO ALERT 'decoy {index}'\n"
            )
            index += 1
    return "\n".join(lines)


def _cluster_workload(seed: int, lines: int, cases_per_line: int):
    """(program text, stream, canonical baseline detections)."""
    from ..core.detector import Engine
    from ..lang import parse_rules
    from ..scenarios import canon_detections
    from ..simulator import simulate_multi_packing
    from ..store import RfidStore

    trace = simulate_multi_packing(
        lines=lines,
        cases_per_line=cases_per_line,
        items_per_case=5,
        seed=seed,
    )
    program = cluster_program(trace.reader_pairs)
    stream = list(trace.observations)
    engine = Engine(parse_rules(program), store=RfidStore())
    return program, stream, canon_detections(engine.run(stream))


def run_cluster_drill(
    seed: int = 7,
    *,
    lines: int = 4,
    cases_per_line: int = 12,
    workers: int = 2,
    directory: Optional[str] = None,
    inprocess: bool = False,
    timeout: float = 120.0,
    report_path: Optional[str] = None,
) -> dict:
    """Run the cluster kill/recover drill; returns (and writes) its report.

    Audited against an in-process baseline of the same rule program
    over the same stream: every shard's WAL holds exactly the
    subsequence the plan routes to it; the worker sinks received every
    baseline detection exactly once; pushes to the subscriber hold no
    duplicates and no inventions (at-most-once across the crash, by
    design); the flush closed the stream; the crash really happened and
    the links really reconnected.

    ``inprocess=True`` swaps the worker subprocesses for in-loop workers
    (crashed via ``abort()`` instead of SIGKILL) — faster, for tests; the
    CLI default is real processes and a real SIGKILL.
    """

    async def body(directory: str, check: _Check) -> dict:
        from ..scenarios import canon_detections

        program, stream, baseline = _cluster_workload(seed, lines, cases_per_line)
        pushes: list = []
        async with _ClusterTopology(
            program, workers=workers, directory=directory, inprocess=inprocess
        ) as topo:
            client = await topo.connect(
                client_id="drill-client",
                subscribe=True,
                batch_size=32,
                on_detection=pushes.append,
            )
            cluster = topo.cluster
            plan = cluster.plan
            victim = topo.victim
            victim_shards = plan.shards_for(victim)

            third = max(1, len(stream) // 3)
            for observation in stream[:third]:
                await client.submit(observation)
            # Let some acks land, then crash the worker with epochs open.
            await asyncio.sleep(0.05)
            acked_before_kill = client.last_acked
            await cluster.kill_worker(victim)
            # Keep streaming into the hole: the router accepts and routes,
            # its links buffer the victim's sub-batches, epochs stay open.
            for observation in stream[third : 2 * third]:
                await client.submit(observation)
            await client._send_batch()  # push the partial tail, don't wait
            await asyncio.sleep(0.1)
            in_flight_at_recover = (client._next_seq - 1) - client.last_acked
            await cluster.restart_worker(victim)
            for observation in stream[2 * third :]:
                await client.submit(observation)
            flush_seq = await client.flush(timeout=60)
            # The flush ack releases every epoch; trailing pushes ride the
            # same ordered queue, give the transport a beat to deliver them.
            await asyncio.sleep(0.2)
            # Stop the cluster cleanly before auditing files on disk.
            audit = await topo.stop(keep=True)

        stats = cluster.router.stats
        # 1. Per-shard WAL == the routed subsequence, byte for byte.
        routes = plan.shard_plan.routes_for_reader
        expected: dict[str, list] = {
            shard: [] for shard in plan.shard_plan.shard_names
        }
        for seq, observation in enumerate(stream):
            for shard in routes(observation.reader):
                expected[shard].append((seq, _obs_key(observation)))
        for shard, node in sorted(plan.assignment.items()):
            got = [
                (client_prov[1] if client_prov else None, _obs_key(observation))
                for client_prov, observation in _wal_records(
                    os.path.join(directory, node, shard)
                )
                if observation is not None
            ]
            check(
                f"wal_{shard}",
                got == expected[shard],
                f"wal={len(got)} routed={len(expected[shard])}",
            )

        # 2. Exactly-once detections at the worker sinks.
        audit.check_no_duplicates(check)
        delivered = sorted(canon_detections(audit.detections))
        check(
            "sink_matches_baseline",
            delivered == sorted(baseline),
            f"delivered={len(delivered)} baseline={len(baseline)}",
        )

        # 3. Pushes: at-most-once, no duplicates, no inventions.
        pushed = canon_detections(pushes)
        check(
            "push_no_duplicates",
            len(pushed) == len(set(pushed)),
            f"{len(pushed)} pushes, {len(set(pushed))} unique",
        )
        check(
            "push_subset_of_baseline",
            set(pushed) <= set(baseline) and len(pushed) > 0,
            f"pushed={len(pushed)} baseline={len(baseline)}",
        )

        # 4. Frontier agreement: the flush seq closed the stream.
        topo.check_frontier(check, "frontier", flush_seq, len(stream))

        # 5. The crash was real and the recovery was exercised.
        check(
            "worker_killed_midstream",
            acked_before_kill < len(stream) - 1,
            f"acked_before_kill={acked_before_kill}",
        )
        check(
            "links_reconnected",
            stats.worker_reconnects >= len(victim_shards),
            f"reconnects={stats.worker_reconnects} "
            f"victim_shards={len(victim_shards)}",
        )
        check(
            "batches_in_flight_at_recover",
            in_flight_at_recover > 0,
            f"{in_flight_at_recover} unacked client seqs at recover",
        )

        return {
            "seed": seed,
            "workers": workers,
            "lines": lines,
            "cases_per_line": cases_per_line,
            "observations": len(stream),
            "baseline_detections": len(baseline),
            "victim": victim,
            "victim_shards": victim_shards,
            "assignment": dict(plan.assignment),
            "router": {
                "routed": stats.routed,
                "multicast": stats.multicast,
                "epochs": stats.epochs,
                "duplicates_skipped": stats.duplicates_skipped,
                "detections_forwarded": stats.detections_forwarded,
                "unattributed_detections": stats.unattributed_detections,
                "worker_reconnects": stats.worker_reconnects,
            },
        }

    return _run("chaos-cluster-", directory, timeout, report_path, body)


# -- preset: smoke -----------------------------------------------------------


def _smoke_factory(workload: Any) -> Callable:
    """Engine factory for a generated workload on the durable server."""
    from ..core.detector import Engine, FunctionRegistry
    from ..store import RfidStore

    placements = tuple(workload.source.placements())

    def factory() -> Engine:
        store = RfidStore()
        for reader, location in placements:
            store.place_reader(reader, location)
        # Fresh Rule objects per engine: recovery rebuilds engines and
        # must never share rule state.  Under disorder chaos, late
        # readings are DROPped (never silently accepted — the oracle
        # check is waived under chaos and the delivery audits hold
        # either way).
        return Engine(
            workload.rules(),
            store=store,
            functions=FunctionRegistry(),
            context="chronicle",
            out_of_order=(
                "drop" if workload.config.chaos is not None else "raise"
            ),
        )

    return factory


def run_smoke_drill(
    profile: str = "ci",
    pack: str = "returns-fraud",
    seed: int = 7,
    *,
    cluster: bool = False,
    workers: int = 2,
    directory: Optional[str] = None,
    chaos: Optional[ChaosConfig] = None,
    shaping: Optional[ShapingConfig] = None,
    report_path: Optional[str] = None,
    timeout: Optional[float] = None,
) -> dict:
    """Run the smoke drill; returns (and optionally writes) its report.

    Streams a generated open-world workload (Zipf tag skew, shaped
    arrivals, up to millions of distinct EPCs) through the durable
    server — or, with ``cluster=True``, a multi-process shard cluster —
    and audits: exactly-once delivery (sink keys strictly increase, per
    shard on a cluster, in O(1) memory); per-rule delivered counts equal
    the generator's ground truth (clean runs only — injected duplicates
    legitimately re-detect); the distinct-EPC floor of the profile; and
    frontier agreement.

    The workload is a pure function of ``(pack, profile, seed)`` — echo
    the seed with every failure.
    """
    from ..workload.smoke import SMOKE_PROFILES, build_workload

    try:
        prof = SMOKE_PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown smoke profile {profile!r} "
            f"(choose from: {', '.join(SMOKE_PROFILES)})"
        ) from None
    if cluster and chaos is not None:
        raise ValueError(
            "cluster smoke does not support chaos perturbation (shard "
            "workers enforce time order); drop --cluster or the chaos knobs"
        )
    workload = build_workload(pack, prof, seed, chaos=chaos, shaping=shaping)
    if cluster and workload.source.program is None:
        raise ValueError(
            f"pack {pack!r} has no rule-language program; "
            "cluster smoke needs textual rules (try --pack packing)"
        )
    client_kwargs = dict(
        client_id=f"smoke-{prof.name}-{seed}", batch_size=prof.batch_size
    )

    async def submit_all(client: AsyncClient) -> int:
        submitted = 0
        for observation in workload:
            await client.submit(observation)
            submitted += 1
        return submitted

    async def body(directory: str, check: _Check) -> dict:
        started = time.perf_counter()
        if cluster:
            async with _ClusterTopology(
                workload.source.program, workers=workers, directory=directory
            ) as topo:
                client = await topo.connect(**client_kwargs)
                submitted = await submit_all(client)
                flush_seq = await client.flush(timeout=prof.timeout)
                audit = await topo.stop()
            topo.check_frontier(check, "frontier_agreement", flush_seq, submitted)
        else:
            audit = _SinkAudit()
            async with _ServerTopology(
                _smoke_factory(workload), directory, sink=audit.record
            ) as topo:
                client = topo.client(codec="binary", **client_kwargs)
                await client.connect()
                submitted = await submit_all(client)
                await client.flush()
                server_view, durable_view = topo.frontier(client)
            frontiers = {
                "submitted": submitted,
                "client": client.last_acked,
                "server": server_view,
                "durable": durable_view,
            }
            # The end-of-stream FLUSH takes its own seq, so the agreed
            # frontier must cover every submit (>= submitted - 1) but
            # may sit past it.
            check(
                "frontier_agreement",
                client.last_acked == server_view == durable_view
                and client.last_acked >= submitted - 1,
                str(frontiers),
            )
        elapsed = time.perf_counter() - started

        stats = workload.stats
        distinct = workload.tags.distinct_epcs()
        check(
            "sink_exactly_once",
            audit.monotonic,
            f"{audit.count} deliveries, keys strictly increasing",
        )
        expected = dict(sorted(stats.expected.items()))
        if chaos is None:
            check(
                "detections_match_oracle",
                audit.per_rule == expected,
                f"delivered={audit.per_rule} expected={expected}",
            )
        check(
            "distinct_epcs_floor",
            distinct >= prof.distinct_floor,
            f"{distinct} distinct EPCs, floor {prof.distinct_floor}",
        )
        return {
            "profile": prof.name,
            "pack": pack,
            "seed": seed,
            "transport": "cluster" if cluster else "tcp",
            "workers": workers if cluster else 1,
            "episodes": stats.episodes,
            "observations": submitted,
            "distinct_epcs": distinct,
            "deferred_episodes": stats.deferred,
            "max_in_flight": stats.max_in_flight,
            "stream_seconds": round(stats.end_time, 3),
            "elapsed_seconds": round(elapsed, 3),
            "events_per_second": (
                round(submitted / elapsed, 1) if elapsed > 0 else 0.0
            ),
            "expected": expected,
            "delivered": dict(sorted(audit.per_rule.items())),
            "chaos": workload.chaos_counts,
        }

    return _run(
        f"smoke-{profile}-",
        directory,
        timeout if timeout is not None else prof.timeout,
        report_path,
        body,
    )
