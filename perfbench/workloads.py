"""The benchmark's workloads: stream, engine factory and oracle per name.

Both benchmark processes rebuild a workload from the same ``(name, seed,
size)``: the load generator for the observations it sends, the server
for the rules, store and oracle.  Every stream is a pure function of
those three values, so the two sides agree without shipping rules (which
hold closures) between processes.

Why these two (see ``DESIGN.md`` for the full prediction table):

* ``hospital-sql`` — the ``hospital-assets`` replay pack; Rule 3 parses
  ``SELECT loc_id FROM READERLOCATION`` once per observation and rh5
  adds negation pseudo-events, so SQL, store and detector work dominate.
* ``returns-revise`` — generated ``returns-fraud`` traffic with 20% of
  readings up to 2 s late, detected with ``REVISE`` (4 s horizon) and
  delivered finals-only; it exercises speculation and outbox parking,
  and touches the store only through ``Table.insert``/``Table.lookup``
  (no SQL parses).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.detector import Engine, FunctionRegistry
from repro.core.speculate import canonical_key
from repro.scenarios import canon_detections, get_pack
from repro.store import RfidStore
from repro.workload.smoke import SmokeProfile, build_workload

#: One checkpoint interval (observations) for every workload.  It is not
#: tuned per workload: the recovery probe must show the store rows a
#: checkpoint does not cover, whatever the interval.
CHECKPOINT_EVERY = 2000
#: WAL fsync policy of every workload; the outbox fsyncs only under
#: ``always``.  ``never`` still syncs at close.
FSYNC = "never"
#: Generated-stream shape of ``returns-revise``.
RETURNS_LINES = 4
RETURNS_CARDINALITY = 100_000
#: ``hospital-assets`` yields about 3.9 observations per asset.
HOSPITAL_OBS_PER_ASSET = 3.9


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the durable-serving configuration it runs on."""

    name: str
    pack: str
    #: Observations/s that size each closed round's stream (times the
    #: closed share of ``--seconds``); see ``DESIGN.md``.
    nominal_eps: float
    #: Open-loop offered rate, observations/s.  Low enough that an open
    #: phase stays under one checkpoint interval (see ``DESIGN.md``).
    offered_rate: float
    #: Share of readings delivered late, and the most they are late (s).
    disorder: float = 0.0
    max_delay: float = 0.0
    #: REVISE watermark lag (stream seconds); ``None`` keeps RAISE.
    revise_horizon: Optional[float] = None

    @property
    def confidence(self) -> str:
        return "final" if self.revise_horizon is not None else "immediate"

    def size_for(self, observations: float, seed: int) -> int:
        """Pack size (observations, or assets for the replay pack).

        How many readings an asset yields varies with the seed, so the
        replay pack gets the smallest asset count whose stream reaches
        ``observations``.  Every seed then sends about as many readings,
        and a recovery replays about as long a WAL tail.
        """
        target = max(1, round(observations))
        if self.pack != "hospital-assets":
            return target
        pack = get_pack(self.pack)

        def length(size: int) -> int:
            return len(pack.build(seed=seed, size=size).observations)

        size = max(1, round(target / HOSPITAL_OBS_PER_ASSET) - 10)
        while size > 1 and length(size) >= target:
            size = max(1, size - 10)
        while (short := target - length(size)) > 0:
            size += max(1, int(short / (2 * HOSPITAL_OBS_PER_ASSET)))
        while size > 1 and length(size - 1) >= target:
            size -= 1
        return size


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "hospital-sql",
            pack="hospital-assets",
            nominal_eps=6000.0,
            offered_rate=400.0,
        ),
        Workload(
            "returns-revise",
            pack="returns-fraud",
            nominal_eps=4000.0,
            offered_rate=400.0,
            disorder=0.2,
            max_delay=2.0,
            revise_horizon=4.0,
        ),
    )
}


def get_workload(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r} (choose from: {', '.join(WORKLOADS)})"
        ) from None


def _returns_workload(seed: int, size: int):
    return build_workload(
        "returns-fraud",
        SmokeProfile(
            name="perfbench",
            target_observations=size,
            cardinality=RETURNS_CARDINALITY,
            lines=RETURNS_LINES,
        ),
        seed,
    )


def _disorder(observations: list, workload: Workload, seed: int) -> list:
    """Arrival order with a seeded share of readings delivered late.

    Timestamps are unchanged; a late reading arrives after every reading
    stamped up to ``max_delay`` seconds after it.  With ``max_delay``
    below the REVISE horizon no reading can fall behind the watermark.
    """
    rng = random.Random(f"perfbench-disorder-{seed}")
    keyed = []
    for index, observation in enumerate(observations):
        delay = (
            rng.uniform(0.0, workload.max_delay)
            if rng.random() < workload.disorder
            else 0.0
        )
        keyed.append((observation.timestamp + delay, index, observation))
    keyed.sort(key=lambda item: (item[0], item[1]))
    return [observation for _arrival, _index, observation in keyed]


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def digest(canonical: list) -> str:
    """Order-free fingerprint of detections in ``canon_detections`` form."""
    ordered = sorted(canonical, key=repr)
    return hashlib.sha256(repr(ordered).encode("utf-8")).hexdigest()


@dataclass
class Stream:
    """What the load generator sends and what the oracle expects back."""

    observations: list
    #: rule id -> detections the oracle promises
    expected: dict
    #: :func:`digest` of the expected detections, where the oracle gives
    #: the detections themselves (``returns-revise``)
    expected_digest: Optional[str] = None


def build_stream(workload: Workload, seed: int, size: int) -> Stream:
    """The observations to send, in arrival order, plus their oracle."""
    if workload.pack == "hospital-assets":
        run = get_pack(workload.pack).build(seed=seed, size=size)
        return Stream(list(run.observations), dict(run.expected_detections))
    generated = _returns_workload(seed, size)
    in_order = list(generated)
    expected = dict(sorted(generated.stats.expected.items()))
    if not workload.disorder:
        return Stream(in_order, expected)
    # The REVISE oracle: finals must equal an uninterrupted in-order run.
    oracle = _returns_engine(generated, None)
    finals = list(oracle.run(sorted(in_order, key=canonical_key)))
    counts: dict[str, int] = {}
    for detection in finals:
        counts[detection.rule.rule_id] = counts.get(detection.rule.rule_id, 0) + 1
    return Stream(
        _disorder(in_order, workload, seed),
        dict(sorted(counts.items())),
        digest(canon_detections(finals)),
    )


def _returns_engine(generated, horizon: Optional[float]) -> Engine:
    store = RfidStore()
    for reader, location in generated.source.placements():
        store.place_reader(reader, location)
    return Engine(
        generated.rules(),
        store=store,
        functions=FunctionRegistry(),
        context="chronicle",
        out_of_order="revise" if horizon is not None else "raise",
        revise_horizon=horizon,
    )


@dataclass
class ServerSide:
    """What the server process needs: an engine factory and a verifier."""

    factory: Callable[[], Engine]
    #: ``(store, delivered detections) -> [(check name, ok, detail)]``;
    #: the pack's own store-level oracle, where it has one.
    verify: Optional[Callable] = None


def build_server_side(workload: Workload, seed: int, size: int) -> ServerSide:
    if workload.pack == "hospital-assets":
        run = get_pack(workload.pack).build(seed=seed, size=size)

        def verify(store, detections):
            return [
                (check.name, check.ok, check.detail)
                for check in run.verify(store, detections)
            ]

        return ServerSide(run.engine_factory(), verify)
    # Only rules and reader placements are needed: the generator is
    # built but never iterated, so no stream is generated here.
    generated = _returns_workload(seed, size)
    return ServerSide(
        lambda: _returns_engine(generated, workload.revise_horizon)
    )
