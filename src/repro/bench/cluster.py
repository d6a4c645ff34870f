"""Cluster scaling benchmark: shard workers vs a single process.

``python -m repro.bench cluster [--scale quick|full|large]`` measures
what multi-process sharding buys: the same detection workload is
streamed through a :class:`~repro.serve.cluster.Cluster` (router +
worker subprocesses, real sockets, real processes) at 1, 2 and 4
workers.  The 1-worker run is the baseline — it pays every wire and
routing cost the multi-worker runs pay, so the reported speedup
isolates what the extra *processes* contribute, not what the router
costs (the serve benchmark already measures the wire boundary).

The workload is the Fig. 9 multi-line packing stream with several rule
variants per packing line, heavy enough that detection work dominates
framing; it splits into independent reader clusters, so the shard
planner spreads it without multicast.  Every run subscribes to
detections and must receive exactly as many as an in-process baseline
found — the benchmark raises if they diverge.

Results merge into ``BENCH_serve.json`` next to the serve rows as
``transport="cluster"`` entries, codec ``"binary+wN"`` (binary client
codec, N workers; the router→worker links are always JSON — relayed
batches carry provenance, which the columnar body cannot).  Each row
adds ``workers`` and ``speedup`` keys; ``speedup`` is events/s against
the 1-worker row of the same invocation.

Interpreting ``speedup`` requires the recorded ``cluster_cpus``: worker
processes only run in parallel when the host grants them cores.  On a
machine with >= workers+1 CPUs the detection engines scale and the
2-worker target is >= 1.6x; on a single-CPU host (CI containers,
commonly) every process shares one core, wall time equals total CPU
time, and the honest reading of speedup ~1.0x is "the cluster adds no
throughput overhead" — not "sharding doesn't work".
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .serve import SERVE_SCALES

#: Worker counts per scale.  Every scale measures 1, 2 and 4 workers —
#: the ISSUE's scaling claim is about processes, not stream size.
CLUSTER_WORKERS = (1, 2, 4)

#: Independent packing lines (= maximum useful shards).
CLUSTER_LINES = 4

#: Structurally distinct rules per line: enough detection work per
#: observation that the engines, not the router, are the bottleneck.
CLUSTER_RULES_PER_PAIR = 6

#: Never-firing variants per line (window past the simulator's case
#: delay): full per-event automaton work, zero wire traffic.
CLUSTER_DECOYS_PER_PAIR = 0

#: Best-of-N repeats per worker count, by scale.
CLUSTER_REPEATS = {"quick": 3, "full": 3, "large": 1}


def _available_cpus() -> int:
    """CPUs this process may run on — the scaling ceiling.

    Worker processes only run in parallel when the host grants them
    cores: N-worker speedup is bounded by ``min(N, cpus)`` (minus the
    router's share).  On a single-CPU host every process serializes and
    the bench degenerates into measuring cluster *overhead* (speedup
    ~1.0x); the recorded ``cpus`` makes that legible after the fact.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


@dataclass(frozen=True)
class ClusterBenchResult:
    """One worker-count timing against the 1-worker run."""

    workers: int
    n_events: int
    n_rules: int
    detections: int
    elapsed_seconds: float
    baseline_seconds: float  # the 1-worker elapsed of this invocation

    @property
    def total_ms(self) -> float:
        return self.elapsed_seconds * 1000.0

    @property
    def events_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.n_events / self.elapsed_seconds

    @property
    def speedup(self) -> float:
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.baseline_seconds / self.elapsed_seconds


def _build_workload(n_events: int):
    """(program text, stream, expected detection count)."""
    from ..core.detector import Engine
    from ..lang import parse_rules
    from ..serve.drill import cluster_program
    from ..simulator import simulate_multi_packing
    from ..store import RfidStore

    events_per_case = 6  # 5 items + 1 case
    cases_per_line = max(1, n_events // (events_per_case * CLUSTER_LINES))
    trace = simulate_multi_packing(
        lines=CLUSTER_LINES,
        cases_per_line=cases_per_line,
        items_per_case=5,
        seed=11,
    )
    program = cluster_program(
        trace.reader_pairs,
        rules_per_pair=CLUSTER_RULES_PER_PAIR,
        decoys_per_pair=CLUSTER_DECOYS_PER_PAIR,
    )  # decoys default off; see CLUSTER_DECOYS_PER_PAIR
    stream = list(trace.observations)
    rules = parse_rules(program)
    engine = Engine(rules, store=RfidStore())
    expected = len(list(engine.run(stream)))
    return program, stream, len(rules), expected


async def _run_through_cluster(
    program: str,
    stream,
    workers: int,
    expected: int,
    directory: str,
    batch_size: int,
) -> float:
    """Stream the workload through one cluster; return elapsed seconds."""
    from ..serve.client import AsyncClient, tcp_connector
    from ..serve.cluster import Cluster

    cluster = Cluster(
        program,
        workers=workers,
        directory=directory,
        sink=False,
        inprocess=False,
    )
    try:
        port = await cluster.start()
        client = AsyncClient(
            tcp_connector("127.0.0.1", port),
            subscribe=True,
            batch_size=batch_size,
        )
        async with client:
            gc.collect()
            gc.disable()
            try:
                started = time.perf_counter()
                await client.submit_many(stream)
                await client.flush(timeout=600.0)
                elapsed = time.perf_counter() - started
            finally:
                gc.enable()
            # The flush ack releases every epoch, and the router pushes
            # an epoch's detections before its ack — but the final push
            # may still be in the transport; drain the tail.
            deadline = time.monotonic() + 60.0
            while (
                len(client.detections) < expected
                and time.monotonic() < deadline
            ):
                await asyncio.sleep(0.01)
            received = len(client.detections)
        if received != expected:
            raise AssertionError(
                f"cluster run with {workers} workers pushed {received} "
                f"detections, baseline found {expected}"
            )
        return elapsed
    finally:
        await cluster.stop()


def run_cluster_bench(
    *,
    scale: str = "quick",
    workers: Sequence[int] = CLUSTER_WORKERS,
    batch_size: int = 128,
    repeats: Optional[int] = None,
) -> List[ClusterBenchResult]:
    """Measure cluster throughput per worker count; 1-worker is baseline.

    Each worker count runs ``repeats`` times (fresh cluster, fresh
    durable directories each time) and keeps the best elapsed — process
    spawn and connection setup happen *outside* the timed region, but
    scheduler jitter does not, and the multi-process runs are the ones
    it penalizes.
    """
    import tempfile

    if scale not in SERVE_SCALES:
        raise ValueError(
            f"unknown scale {scale!r} (expected one of {sorted(SERVE_SCALES)})"
        )
    if repeats is None:
        repeats = CLUSTER_REPEATS[scale]
    repeats = max(1, repeats)
    n_events = SERVE_SCALES[scale]
    program, stream, n_rules, expected = _build_workload(n_events)
    best: dict[int, float] = {}
    for count in workers:
        for _ in range(repeats):
            with tempfile.TemporaryDirectory(
                prefix=f"bench-cluster-w{count}-"
            ) as directory:
                elapsed = asyncio.run(
                    _run_through_cluster(
                        program, stream, count, expected, directory, batch_size
                    )
                )
            known = best.get(count)
            if known is None or elapsed < known:
                best[count] = elapsed
    baseline = best[workers[0]]
    return [
        ClusterBenchResult(
            workers=count,
            n_events=len(stream),
            n_rules=n_rules,
            detections=expected,
            elapsed_seconds=best[count],
            baseline_seconds=baseline,
        )
        for count in workers
    ]


def cluster_table(results: Sequence[ClusterBenchResult]) -> str:
    """Render the scaling series as an aligned table."""
    lines = [
        f"{'workers':>7} | {'total ms':>10} | {'events/s':>10} | "
        f"{'speedup':>8}"
    ]
    lines.append("-" * len(lines[0]))
    for result in results:
        lines.append(
            f"{result.workers:>7} | {result.total_ms:>10.1f} | "
            f"{result.events_per_second:>10,.0f} | "
            f"{result.speedup:>7.2f}x"
        )
    cpus = _available_cpus()
    lines.append(
        f"(host grants {cpus} CPU{'s' if cpus != 1 else ''}; speedup is "
        f"bounded by min(workers, CPUs))"
    )
    return "\n".join(lines)


def check_speedup(
    results: Sequence[ClusterBenchResult],
    min_speedup: float,
    workers: int = 2,
) -> Optional[str]:
    """Gate: None when the N-worker run scales enough, else the failure."""
    for result in results:
        if result.workers == workers:
            if result.speedup < min_speedup:
                return (
                    f"{workers}-worker speedup {result.speedup:.2f}x is "
                    f"below the {min_speedup:.2f}x bound"
                )
            return None
    return f"no {workers}-worker row in the results"


def merge_cluster_json(
    results: Sequence[ClusterBenchResult], path: str, *, scale: str
) -> None:
    """Merge cluster rows into ``BENCH_serve.json`` (see module docstring).

    The serve benchmark owns the file; this merges by replacing any
    previous ``transport == "cluster"`` rows and leaving the rest of the
    document untouched (or creating a minimal one if it doesn't exist).
    """
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    else:
        document = {
            "schema": {"name": "repro-bench-serve", "version": 2},
            "scale": scale,
            "results": [],
        }
    document["results"] = [
        row
        for row in document.get("results", [])
        if row.get("transport") != "cluster"
    ]
    document["cluster_scale"] = scale
    document["cluster_cpus"] = _available_cpus()
    for result in results:
        document["results"].append(
            {
                "transport": "cluster",
                "codec": f"binary+w{result.workers}",
                "workers": result.workers,
                "n_events": result.n_events,
                "n_rules": result.n_rules,
                "detections": result.detections,
                "elapsed_seconds": result.elapsed_seconds,
                "baseline_seconds": result.baseline_seconds,
                "events_per_second": result.events_per_second,
                "speedup": result.speedup,
            }
        )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
