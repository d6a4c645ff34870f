"""Reader→sink benchmark: one load generator, one durable server, one sink.

Usage, from the repository root::

    python3 perfbench/run.py --workload hospital-sql --seed 1 \\
        --seconds 10 --trace 0

This process generates the workload's stream (outside every timed
region), then acts as the load generator: one :class:`AsyncClient`
connection over TCP with the binary codec into a server process
(``perfbench/server.py``: ``CepServer`` over a ``DurableEngine`` with a
sink).  Two processes in all.  Phases, each with a fresh server:

* **closed** — the whole stream is submitted as fast as the server acks
  it; the clock stops when the final FLUSH is acked, by which time every
  delivery has reached the sink.  Gives ``throughput_eps`` and, from the
  server, ``recover_s`` and ``peak_rss_mb``.
* **open** — a stream of the round's own is sent at the workload's
  offered rate, as Poisson arrivals; each detection's latency runs from
  the due time of its reading to the sink call.  Both processes read
  ``time.monotonic`` (one system-wide clock on Linux).
* **setup** — a server that only takes a HELLO; with every phase's
  server it gives the set-up samples, from spawning the server to the
  client's WELCOME, minus the server's scenario build (stream
  generation).

A run is ``ROUNDS`` closed and open phases in turn, then the set-up
phase.

``--trace 1`` replaces the end-to-end phases by a traced run: the closed
phase once untraced and once with every layer wrapped
(``perfbench/trace.py``), an open phase recording submit-queue waits,
and the same stream through a bare ``Engine`` for ``engine.direct_eps``.

Every phase checks the sink against the workload's oracle, the sink keys
for exactly-once order, and the client, server and durable frontiers.
The last stdout line is one JSON object; the exit code is non-zero when
any check failed.
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import gc
import json
import os
import random
import select
import selectors
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Runtime state (WAL, checkpoints, journals); removed after each run.
WORK_ROOT = os.path.join(ROOT, ".perfbench_run")
#: Observations per wire batch in the closed loop.
BATCH_SIZE = 256
#: Seconds a server may take to start, and to report after its session.
SERVER_TIMEOUT = 60.0
FLUSH_TIMEOUT = 120.0
#: Rounds per run.  A round is a closed-loop phase, then an open-loop
#: phase, each against a fresh server.  A shared host runs at one of two
#: speeds that change over seconds to minutes, so the closed-loop
#: metrics take the best round and the fastest recovery (as ``timeit``
#: takes the fastest repeat: the host's noise only ever adds time), and
#: latency percentiles pool every round's samples.
ROUNDS = 12
#: Shares of ``--seconds`` the closed-loop and open-loop phases are
#: sized to fill; the rest goes to server start-up and recovery probes.
CLOSED_SHARE = 0.5
OPEN_SHARE = 0.4
#: Rounds' worth of readings in the traced run's single open phase.
TRACED_OPEN_ROUNDS = 3
#: Most a traced run's self times may differ from its wall time, and
#: most of that wall time that may fall outside every span.
RECONCILE_TOLERANCE = 0.10


class BenchError(RuntimeError):
    """The benchmark could not run (not a failed correctness check)."""


def _bootstrap() -> None:
    """Import the program from this checkout's ``src``, or refuse to run."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(
            f"no program sources at {SRC}; run from a full repository checkout"
        )
    sys.path[:0] = [SRC, ROOT]


class ServerProcess:
    """One ``perfbench.server`` process, spawned and read to its result."""

    def __init__(self, workload, seed: int, size: int, phase: str,
                 workdir: str, **flags) -> None:
        directory = os.path.join(workdir, f"{phase}-{len(os.listdir(workdir))}")
        command = [
            sys.executable, "-m", "perfbench.server",
            "--workload", workload.name, "--seed", str(seed),
            "--size", str(size), "--dir", directory, "--phase", phase,
        ]
        if flags.get("trace"):
            command.append("--trace")
        if flags.get("stamp_queue"):
            command.append("--stamp-queue")
        if flags.get("verify"):
            command.append("--verify")
        if flags.get("drop_delivery"):
            command += ["--drop-delivery", str(flags["drop_delivery"])]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, ROOT]))
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], SERVER_TIMEOUT)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("READY "):
                raise BenchError(f"server did not start (got {line!r})")
        except BaseException:
            self.kill()
            raise
        _, port, prep_s = line.split()
        self.port = int(port)
        self.prep_s = float(prep_s)

    def result(self) -> dict:
        try:
            out, _ = self.proc.communicate(timeout=SERVER_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("server did not finish after its session") from None
        lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
        if self.proc.returncode != 0 or not lines:
            raise BenchError(f"server exited with {self.proc.returncode}")
        return json.loads(lines[-1][len("RESULT "):])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


async def _client_session(port: int, phase: str, observations=None,
                          dues=None) -> dict:
    from repro.serve import AsyncClient, tcp_connector

    client = AsyncClient(
        tcp_connector("127.0.0.1", port),
        client_id=f"perfbench-{phase}",
        batch_size=BATCH_SIZE,
        codec="binary",
    )
    await client.connect()
    out = {"welcomed": time.monotonic()}
    try:
        if observations is None:
            return out
        if dues is None:
            started = time.perf_counter()
            await client.submit_many(observations)
            out["flush_seq"] = await client.flush(timeout=FLUSH_TIMEOUT)
            out["elapsed_s"] = time.perf_counter() - started
        else:
            out.update(await _open_loop(client, observations, dues))
        out["last_acked"] = client.last_acked
        return out
    finally:
        await client.close()


def _schedule(count: int, rate: float, seed: int, index: int) -> list[float]:
    """Due offsets (s) of ``count`` readings arriving as a Poisson process.

    Readers report independently of one another, so the gaps between
    readings are exponential with mean ``1 / rate``.  A fixed gap would
    make every sample that waits for later readings (a REVISE final
    waits for the watermark) a whole number of gaps, and the median
    would step by a full gap between seeds.
    """
    rng = random.Random(f"perfbench-arrivals-{seed}-{index}")
    offsets, due = [], 0.0
    for _ in range(count):
        due += rng.expovariate(rate)
        offsets.append(due)
    return offsets


async def _open_loop(client, observations: list, dues: list) -> dict:
    """Send each reading at its due time, ``start + dues[index]``.

    Readings that fell due while the generator was busy go out together
    as one batch; the generator's lateness is the delay of the earliest
    reading in each batch behind its due time.
    """
    total = len(observations)
    start = time.monotonic() + 0.05
    lags: list[float] = []
    sent = 0
    while sent < total:
        now = time.monotonic()
        due_count = bisect.bisect_right(dues, now - start)
        if due_count > sent:
            lags.append(now - (start + dues[sent]))
            await client.submit_many(observations[sent:due_count])
            sent = due_count
        else:
            await asyncio.sleep(start + dues[sent] - now)
    flush_sent = time.monotonic()
    flush_seq = await client.flush(timeout=FLUSH_TIMEOUT)
    return {"start": start, "lags": lags, "flush_sent": flush_sent,
            "flush_seq": flush_seq}


class Gate:
    """Correctness checks; each failure counts in ``failed``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, count: int, what: str) -> None:
        if count:
            self.failed += count
            self.notes.append(f"FAILED x{count}: {what}")

    def check_store(self, phase: str, server: dict, reference: dict) -> None:
        """A repeat of a verified run must leave the very same store."""
        if server["store_digest"] != reference["store_digest"]:
            self.fail(1, f"{phase}: store differs from the verified first round")

    def check_phase(self, phase: str, stream, client: dict, server: dict) -> None:
        total = len(stream.observations)
        self.attempted += total
        acked = min(total, client["last_acked"] + 1)
        self.fail(total - acked, f"{phase}: unacked observations")
        delivered = server["per_rule"]
        for rule_id in sorted(set(delivered) | set(stream.expected)):
            got, want = delivered.get(rule_id, 0), stream.expected.get(rule_id, 0)
            self.fail(abs(got - want),
                      f"{phase}: rule {rule_id} delivered {got}, oracle {want}")
        if stream.expected_digest is not None and (
            server["digest"] != stream.expected_digest
        ):
            self.fail(1, f"{phase}: delivered finals differ from the in-order oracle")
        for name, ok, detail in server["checks"]:
            if not ok:
                self.fail(1, f"{phase}: {name}: {detail}")
        self.fail(server["key_violations"],
                  f"{phase}: sink (seq, ordinal) keys not strictly increasing")
        self.fail(server["dropped_too_late"],
                  f"{phase}: readings dropped behind the watermark")
        self.fail(server.get("recover_duplicates", 0),
                  f"{phase}: recovery after a clean close delivered again")
        frontiers = (client["last_acked"], server["server_frontier"],
                     server["durable_frontier"])
        if not (frontiers[0] == frontiers[1] == frontiers[2] == client["flush_seq"]):
            self.fail(1, f"{phase}: client/server/durable frontiers {frontiers}, "
                         f"flush seq {client['flush_seq']}")


def _precise_loop() -> asyncio.AbstractEventLoop:
    """An event loop that waits with microsecond timeouts.

    The default loop waits in ``epoll``, which rounds every timeout up to
    a whole millisecond; the open loop's sends would then run 0.5–0.7 ms
    late, and that lateness is part of every latency sample.
    ``select`` takes the timeout in microseconds.  The client has one
    socket, so ``select`` costs nothing over ``epoll``.
    """
    return asyncio.SelectorEventLoop(selectors.SelectSelector())


def _run_phase(workload, seed, size, stream, phase, workdir, gate,
               dues=None, **flags) -> tuple[dict, dict, float]:
    """One server process, one client session; returns (client, server, setup)."""
    server = ServerProcess(workload, seed, size, phase, workdir, **flags)
    try:
        with asyncio.Runner(loop_factory=_precise_loop) as runner:
            client = runner.run(_client_session(
                server.port, phase,
                None if stream is None else stream.observations, dues,
            ))
        result = server.result()
    finally:
        server.kill()
    setup_s = client["welcomed"] - server.spawned - server.prep_s
    if stream is not None:
        gate.check_phase(phase, stream, client, result)
    return client, result, setup_s


def _latencies(stream, dues, client: dict, server: dict) -> list[float]:
    """Milliseconds from each delivery's reading's due time to its sink call.

    The reading is the one whose WAL seq the sink received (the FLUSH
    marker's due time is when it was sent).  Under REVISE the sink sees
    only finals, so the sample runs to the final delivery, from the
    reading that triggered the detection.
    """
    start = client["start"]
    total = len(stream.observations)
    if server["triggers"] is not None:
        index_of = {
            (str(o.reader), str(o.obj), o.timestamp): i
            for i, o in enumerate(stream.observations)
        }
        indexes = [
            index_of.get(tuple(t), seq) if t is not None else seq
            for t, seq in zip(server["triggers"], server["seqs"])
        ]
    else:
        indexes = server["seqs"]
    samples = []
    for index, sunk in zip(indexes, server["times"]):
        due = start + dues[index] if index < total else client["flush_sent"]
        samples.append((sunk - due) * 1e3)
    return samples


def _direct_eps(workload, seed: int, size: int, stream) -> float:
    """The same stream through a bare engine: no server, WAL or outbox."""
    from perfbench.workloads import build_server_side

    engine = build_server_side(workload, seed, size).factory()
    started = time.perf_counter()
    for observation in stream.observations:
        engine.submit(observation)
    engine.flush()
    return len(stream.observations) / (time.perf_counter() - started)


def _open_target(workload, seconds: float) -> float:
    """Readings in one round's open phase."""
    return workload.offered_rate * seconds * OPEN_SHARE / ROUNDS


def _closed_size(workload, seconds: float, seed: int) -> int:
    """Stream size of every closed phase of a run."""
    return workload.size_for(
        workload.nominal_eps * seconds * CLOSED_SHARE / ROUNDS, seed
    )


def _open_streams(workload, target: float, seed: int, rounds: int) -> list[tuple]:
    """``(seed, size, stream)`` of each round's open phase.

    Every round sends a stream of its own, seeded ``seed * 1000 + round``,
    so a run's latency covers many streams' structure (how far apart
    readings are in stream time sets how long a REVISE final waits for
    the watermark) rather than one stream's, repeated.
    """
    from perfbench.workloads import build_stream

    streams = []
    for index in range(rounds):
        open_seed = seed * 1000 + index
        size = workload.size_for(target, open_seed)
        streams.append((open_seed, size, build_stream(workload, open_seed, size)))
    return streams


def run_end_to_end(workload, seed, seconds, workdir, gate, drop=0) -> dict:
    from perfbench.workloads import build_stream, percentile

    closed_size = _closed_size(workload, seconds, seed)
    closed = build_stream(workload, seed, closed_size)
    openeds = _open_streams(workload, _open_target(workload, seconds), seed,
                            ROUNDS)
    gc.freeze()  # the streams stay live all run: keep them out of GC passes
    setups, elapsed, recoveries, rss = [], [], [], []
    rows_lost, fabricated = [], []
    p50s, p99s, lags, pooled = [], [], [], []
    first_closed = None
    for index, (open_seed, open_size, opened) in enumerate(openeds):
        client, server, setup = _run_phase(
            workload, seed, closed_size, closed, "closed", workdir, gate,
            drop_delivery=drop if index == 0 else 0, verify=index == 0,
        )
        if first_closed is None:
            first_closed = server
        else:
            gate.check_store("closed", server, first_closed)
        setups.append(setup)
        elapsed.append(client["elapsed_s"])
        recoveries.extend(server["recover_s"])
        rss.append(server["peak_rss_mb"])
        rows_lost.append(server["store_rows_lost"])
        fabricated.append(server["recover_fabricated"])

        dues = _schedule(len(opened.observations), workload.offered_rate,
                         seed, index)
        client, server, setup = _run_phase(
            workload, open_seed, open_size, opened, "open", workdir, gate,
            dues=dues, verify=True,
        )
        setups.append(setup)
        latencies = _latencies(opened, dues, client, server)
        if not latencies:
            raise BenchError("open phase delivered no detections")
        pooled.extend(latencies)
        p50s.append(percentile(latencies, 0.50))
        p99s.append(percentile(latencies, 0.99))
        lags.extend(client["lags"])
    _, _, setup = _run_phase(workload, seed, closed_size, None, "setup", workdir,
                             gate)
    setups.append(setup)

    def listed(values, digits=3):
        return ", ".join(f"{value:.{digits}f}" for value in values)

    notes = [
        f"{ROUNDS} rounds; closed phase {len(closed.observations)} observations "
        f"(batch {BATCH_SIZE}); open phases "
        f"{', '.join(str(len(o.observations)) for _s, _n, o in openeds)} "
        f"observations offered at {workload.offered_rate:g}/s (Poisson)",
        "throughput per round (1/s): "
        + listed([len(closed.observations) / e for e in elapsed], 1),
        f"latency samples: {len(pooled)} ({len(pooled) // ROUNDS} per round); "
        f"p99 {percentile(pooled, 0.99):.3f} ms, p99.9 "
        f"{percentile(pooled, 0.999):.3f} ms (unbounded: see DESIGN.md)",
        f"p50 per round (ms): {listed(p50s)}",
        f"p99 per round (ms): {listed(p99s)}",
        f"generator lateness: p50 {percentile(lags, 0.5) * 1e3:.3f} ms, "
        f"p99 {percentile(lags, 0.99) * 1e3:.3f} ms over {len(lags)} sends",
        f"set-up samples (s): {listed(setups, 4)}",
        f"recovery samples (s): {listed(recoveries, 4)}",
        f"checkpoint.store_rows_lost (live minus recovered store rows): {rows_lost}",
        f"checkpoint.recover_fabricated (replay deliveries the run never "
        f"made): {fabricated}",
    ]
    return {
        "metrics": {
            "throughput_eps": len(closed.observations) / min(elapsed),
            "detect_latency_p50_ms": percentile(pooled, 0.50),
            "setup_s": statistics.median(setups),
            "recover_s": min(recoveries),
            "peak_rss_mb": statistics.median(rss),
        },
        "notes": notes,
    }


def run_traced(workload, seed, seconds, workdir, gate) -> dict:
    from perfbench.trace import LAYERS
    from perfbench.workloads import build_stream, percentile

    closed_size = _closed_size(workload, seconds, seed)
    started = time.perf_counter()
    closed = build_stream(workload, seed, closed_size)
    # One open phase as long as TRACED_OPEN_ROUNDS rounds' together, so
    # the p99 it reports has at least ten samples beyond it.
    [(open_seed, open_size, opened)] = _open_streams(
        workload, _open_target(workload, seconds) * TRACED_OPEN_ROUNDS, seed, 1
    )
    gen_s = time.perf_counter() - started
    direct_eps = _direct_eps(workload, seed, closed_size, closed)
    plain, plain_server, _ = _run_phase(
        workload, seed, closed_size, closed, "closed", workdir, gate, verify=True,
    )
    client, server, _ = _run_phase(
        workload, seed, closed_size, closed, "closed", workdir, gate, trace=True,
    )
    gate.check_store("closed traced", server, plain_server)
    dues = _schedule(len(opened.observations), workload.offered_rate, seed, 0)
    opened_client, opened_server, _ = _run_phase(
        workload, open_seed, open_size, opened, "open", workdir, gate,
        dues=dues, verify=True, stamp_queue=True,
    )
    trace = server["trace"]
    # Wall time comes from the load generator's clock, which the tracer
    # does not drive: submit of the first batch to the FLUSH ack.  Inside
    # its own window the tracer charges every interval to some span or
    # to ``unaccounted``, so its sums alone would always add up.
    wall = client["elapsed_s"]
    self_s = trace["self_s"]
    calls = trace["calls"]
    unaccounted = self_s.get("unaccounted", 0.0) / wall
    layered = sum(self_s.get(name, 0.0) for name in LAYERS) / wall
    if abs(layered + unaccounted - 1.0) > RECONCILE_TOLERANCE:
        gate.fail(1, f"traced self times cover {layered:.3f} of wall "
                     f"+ {unaccounted:.3f} unaccounted")
    if unaccounted >= RECONCILE_TOLERANCE:
        gate.fail(1, f"{unaccounted:.3f} of the traced wall time is in no span")
    observations = trace["observations"]
    served_eps = len(closed.observations) / plain["elapsed_s"]
    provisional = server["provisional"]
    metrics = {
        "serve.wire_bytes_per_obs": server["bytes_in"] / observations,
        "serve.backend_calls": calls.get("durable", 0),
        "serve.obs_per_call": observations / max(1, trace["submit_calls"]),
        "serve.queue_wait_p99_ms": opened_server["queue_wait_p99_ms"],
        "serve.self_s": self_s.get("serve", 0.0),
        "serve.idle_s": self_s.get("serve.idle", 0.0),
        "durable.self_s": self_s.get("durable", 0.0),
        "wal.append_s": self_s.get("wal", 0.0),
        "wal.records": server["wal_records"],
        "wal.bytes": server["wal_bytes"],
        "wal.fsyncs": server["wal_fsyncs"],
        "outbox.deliver_s": self_s.get("outbox", 0.0),
        "outbox.deliveries": server["outbox_deliveries"],
        "outbox.journal_bytes": trace["journal_bytes"],
        "outbox.held": server["outbox_held"],
        "outbox.cancelled": server["outbox_cancelled"],
        "sink.calls": server["sink_calls"],
        "sink.s": self_s.get("sink", 0.0),
        "checkpoint.count": server["checkpoints"],
        "checkpoint.s": self_s.get("checkpoint", 0.0),
        "checkpoint.bytes": trace["checkpoint_bytes"],
        "checkpoint.store_rows_lost": plain_server["store_rows_lost"],
        "checkpoint.recover_fabricated": plain_server["recover_fabricated"],
        "engine.self_s": self_s.get("engine", 0.0),
        "engine.detections": server["detections"],
        "engine.direct_eps": direct_eps,
        "speculate.provisional": provisional,
        "speculate.retracted": server["retracted"],
        "speculate.revised": server["revised"],
        "speculate.precision": (
            server["finalised_unchanged"] / provisional if provisional else 0.0
        ),
        "speculate.dropped_too_late": server["dropped_too_late"],
        "rules.condition_s": self_s.get("rules.condition", 0.0),
        "rules.condition_calls": calls.get("rules.condition", 0),
        "rules.actions_s": self_s.get("rules.actions", 0.0),
        "rules.action_calls": calls.get("rules.actions", 0),
        "sql.calls": calls.get("sql", 0),
        "sql.parses": trace["sql_parses"],
        "sql.s": self_s.get("sql", 0.0),
        "store.rows": server["store_rows"],
        "bench.gen_s": gen_s,
        "bench.generator_lag_p99_ms": percentile(opened_client["lags"], 0.99) * 1e3,
        "bench.detect_latency_p99_ms": percentile(
            _latencies(opened, dues, opened_client, opened_server), 0.99
        ),
        "bench.latency_samples": len(opened_server["seqs"]),
        "bench.wall_s": wall,
        "bench.unaccounted_share": unaccounted,
        "bench.trace_overhead_pct": (
            (client["elapsed_s"] - plain["elapsed_s"]) / plain["elapsed_s"] * 100
        ),
        "bench.served_to_direct": served_eps / direct_eps,
        "bench.failed_ratio": 0.0,  # filled in once every check has run
    }
    notes = [
        f"traced round {wall:.4f} s wall (client clock), server trace window "
        f"{trace['wall_s']:.4f} s: layers {layered:.4f} + unaccounted "
        f"{unaccounted:.4f} of wall",
        f"served {served_eps:.1f} obs/s untraced vs {direct_eps:.1f} obs/s "
        f"bare engine (bench.served_to_direct, base engine.direct_eps)",
    ]
    return {"metrics": metrics, "notes": notes}


def _declared_units(trace: int) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None
    return {
        metric["name"]: metric["unit"]
        for metric in spec["per_layer" if trace else "end_to_end"]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Reader→sink benchmark over a durable CEP server."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--drop-delivery", type=int, default=0, metavar="N",
        help="self-test fault: the closed phase's sink loses its Nth delivery",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        _bootstrap()
        units = _declared_units(args.trace)
        from perfbench.workloads import get_workload

        workload = get_workload(args.workload)
        os.makedirs(WORK_ROOT, exist_ok=True)
        workdir = os.path.join(WORK_ROOT, str(os.getpid()))
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        gate = Gate()
        try:
            if args.trace:
                report = run_traced(workload, args.seed, args.seconds, workdir, gate)
            else:
                report = run_end_to_end(workload, args.seed, args.seconds,
                                        workdir, gate, drop=args.drop_delivery)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            if not os.listdir(WORK_ROOT):
                os.rmdir(WORK_ROOT)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    metrics = report["metrics"]
    failed_ratio = gate.failed / gate.attempted
    if args.trace:
        metrics["bench.failed_ratio"] = failed_ratio
    if set(metrics) != set(units):
        print(f"perfbench: measured metrics {sorted(set(metrics) ^ set(units))} "
              "disagree with BENCHMARK.json", file=sys.stderr)
        return 2
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} nproc {os.cpu_count()}")
    for note in report["notes"] + gate.notes:
        print(f"  {note}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value!r:>24} {units[name]}")
    print(f"  {'failed_ratio':32s} {failed_ratio!r:>24} ratio "
          f"({gate.failed} of {gate.attempted} attempted)")
    correct = gate.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
