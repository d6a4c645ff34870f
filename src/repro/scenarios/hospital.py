"""Hospital asset tracking: ward logistics plus exit-gate custody.

Tagged clinical assets (infusion pumps, GRAI tags) circulate between
reader-equipped wards; porters wear GID badges.  Two things must hold:

* **Rule 3** rebuilds every asset's ward history exactly (where is
  pump 7 *right now* is the question hospital asset tracking exists
  to answer);
* **Rule 5** at the service exit: an asset carried out without a
  porter badge within τ on either side raises an alarm — equipment
  walking out the door is the classic hospital shrinkage problem.

The simulator emits ward hops with ground-truth visits, then a tail of
exit events (authorized and not), spaced like the gate scenario so the
negation windows stay independent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from ..apps import asset_monitoring_rule, location_rule
from ..core.detector import FunctionRegistry
from ..core.instances import Observation
from ..epc import EpcFactory, Gid96, Grai96, TypeRegistry
from .pack import OracleCheck, ScenarioPack, ScenarioRun

__all__ = [
    "HospitalConfig",
    "HospitalPack",
    "HospitalTrace",
    "hospital_type_function",
    "simulate_hospital",
]


@dataclass(frozen=True)
class WardVisit:
    """Ground truth: one asset parked in one ward from ``arrive`` on."""

    asset_epc: str
    ward: str
    reader: str
    arrive: float


@dataclass(frozen=True)
class AssetExit:
    """Ground truth for one asset leaving through the service exit."""

    asset_epc: str
    exit_time: float
    authorized: bool
    #: when the alarm fires for unescorted exits (exit_time + tau)
    alarm_time: Optional[float]


@dataclass
class HospitalTrace:
    observations: list[Observation] = field(default_factory=list)
    visits: list[WardVisit] = field(default_factory=list)
    exits: list[AssetExit] = field(default_factory=list)
    end_time: float = 0.0

    def expected_histories(self) -> dict[str, list[tuple[str, float]]]:
        """Every asset's ``(ward, arrive)`` history, from one pass over the visits."""
        histories: dict[str, list[tuple[str, float]]] = {}
        for visit in sorted(self.visits, key=lambda v: v.arrive):
            histories.setdefault(visit.asset_epc, []).append((visit.ward, visit.arrive))
        return histories

    def expected_alarms(self) -> list[tuple[str, float]]:
        return [
            (exit.asset_epc, exit.alarm_time)
            for exit in self.exits
            if not exit.authorized and exit.alarm_time is not None
        ]


@dataclass
class HospitalConfig:
    #: (reader EPC, ward id) pairs; assets hop between these.
    wards: tuple[tuple[str, str], ...] = (
        ("ward_er", "emergency"),
        ("ward_icu", "icu"),
        ("ward_or", "theatre"),
        ("ward_sup", "supply_room"),
    )
    exit_reader: str = "hexit"
    tau: float = 5.0
    assets: int = 8
    #: ward hops per asset, inclusive bounds
    hops: tuple[int, int] = (2, 4)
    dwell: tuple[float, float] = (120.0, 600.0)
    launch_gap: tuple[float, float] = (10.0, 60.0)
    #: fraction of assets that eventually leave through the exit
    exit_fraction: float = 0.6
    #: of the leavers, fraction escorted by a porter badge
    escorted_fraction: float = 0.5
    #: gap between consecutive exits; must exceed 2*tau (gate semantics)
    exit_gap: tuple[float, float] = (15.0, 40.0)
    badge_offset: tuple[float, float] = (0.5, 4.0)
    pump_asset_type: int = 3002
    porter_badge_class: int = 77

    def __post_init__(self) -> None:
        if len(self.wards) < 2:
            raise ValueError("need at least two wards")
        if self.hops[0] < 1 or self.hops[0] > self.hops[1]:
            raise ValueError("hops bounds must satisfy 1 <= low <= high")
        if not 0.0 <= self.exit_fraction <= 1.0:
            raise ValueError("exit_fraction must be in [0, 1]")
        if not 0.0 <= self.escorted_fraction <= 1.0:
            raise ValueError("escorted_fraction must be in [0, 1]")
        if self.exit_gap[0] <= 2 * self.tau:
            raise ValueError("exit_gap must exceed 2*tau to keep exits independent")
        if not 0 < self.badge_offset[0] <= self.badge_offset[1] < self.tau:
            raise ValueError("badge_offset must lie strictly inside (0, tau)")


def simulate_hospital(
    config: HospitalConfig,
    rng: Optional[random.Random] = None,
    factory: Optional[EpcFactory] = None,
    start_time: float = 0.0,
) -> HospitalTrace:
    """Generate ward circulation plus an exit tail with ground truth."""
    rng = rng if rng is not None else random.Random()
    factory = factory if factory is not None else EpcFactory()
    trace = HospitalTrace()
    leavers: list[tuple[str, float]] = []  # (asset, earliest exit time)
    launch = start_time
    for _ in range(config.assets):
        launch += rng.uniform(*config.launch_gap)
        asset = factory.asset(config.pump_asset_type)
        time = launch
        ward_index = rng.randrange(len(config.wards))
        for _hop in range(rng.randint(*config.hops)):
            reader, ward = config.wards[ward_index]
            trace.observations.append(Observation(reader, asset, time))
            trace.visits.append(WardVisit(asset, ward, reader, time))
            time += rng.uniform(*config.dwell)
            # Hop somewhere else; staying put would be a duplicate read,
            # not a visit, and would break the history oracle.
            ward_index = (
                ward_index + rng.randrange(1, len(config.wards))
            ) % len(config.wards)
        if rng.random() < config.exit_fraction:
            leavers.append((asset, time))
        trace.end_time = max(trace.end_time, time)

    # Exit tail: serialized past the end of all ward traffic so one
    # exit's badge can never fall inside another exit's window.
    exit_time = max(
        [trace.end_time] + [earliest for _, earliest in leavers]
    )
    for asset, earliest in leavers:
        exit_time = max(exit_time, earliest) + rng.uniform(*config.exit_gap)
        escorted = rng.random() < config.escorted_fraction
        if escorted:
            offset = rng.uniform(*config.badge_offset)
            badge = factory.badge(config.porter_badge_class)
            badge_time = (
                exit_time + offset
                if rng.random() < 0.5
                else exit_time - offset
            )
            trace.observations.append(
                Observation(config.exit_reader, badge, badge_time)
            )
        trace.observations.append(
            Observation(config.exit_reader, asset, exit_time)
        )
        trace.exits.append(
            AssetExit(
                asset_epc=asset,
                exit_time=exit_time,
                authorized=escorted,
                alarm_time=None if escorted else exit_time + config.tau,
            )
        )
        trace.end_time = max(trace.end_time, exit_time + config.tau)

    trace.observations.sort(key=lambda observation: observation.timestamp)
    return trace


def hospital_type_function(
    config: HospitalConfig, factory_hint: Optional[EpcFactory] = None
) -> TypeRegistry:
    """``type()`` mapping: GRAI pumps → ``'pump'``, GID badges → ``'porter'``."""
    registry = TypeRegistry()
    company = (
        factory_hint.company_prefix if factory_hint is not None else 614141
    )
    digits = factory_hint.company_digits if factory_hint is not None else 7
    registry.register_class(
        Grai96(0, company, digits, config.pump_asset_type, 0), "pump"
    )
    registry.register_class(
        Gid96(0xBADE, config.porter_badge_class, 0), "porter"
    )
    return registry


class HospitalPack(ScenarioPack):
    """Hospital asset tracking: ward histories + exit custody alarms."""

    name = "hospital-assets"
    description = (
        "Hospital asset tracking: pumps circulate between wards (Rule 3 "
        "history) and alarm when leaving the exit without a porter badge "
        "(Rule 5)"
    )
    default_size = 8
    size_unit = "assets"

    def build(self, *, seed: int = 7, size: Optional[int] = None) -> ScenarioRun:
        size = self.default_size if size is None else size
        config = HospitalConfig(assets=size)
        factory = EpcFactory()
        trace = simulate_hospital(
            config, rng=random.Random(seed), factory=factory
        )

        def verify(run, store, detections) -> list[OracleCheck]:
            histories = run.trace.expected_histories()
            assets = sorted(histories)
            wrong = sum(
                1
                for epc in assets
                if [
                    (ward, start)
                    for ward, start, _end in store.location_history(epc)
                ]
                != histories[epc]
            )
            raised = sorted(
                (d.bindings["o4"], round(d.time, 6))
                for d in detections
                if d.rule.rule_id == "rh5"
            )
            expected = sorted(
                (epc, round(alarm, 6))
                for epc, alarm in run.trace.expected_alarms()
            )
            return [
                OracleCheck(
                    "ward_histories_match",
                    wrong == 0,
                    f"{len(assets) - wrong}/{len(assets)} assets correct",
                ),
                OracleCheck(
                    "exit_alarms_match",
                    raised == expected,
                    f"raised {len(raised)}, expected {len(expected)}",
                ),
            ]

        return ScenarioRun(
            pack=self.name,
            seed=seed,
            size=size,
            rules=[
                location_rule(),
                asset_monitoring_rule(
                    gate_reader=config.exit_reader,
                    tau=config.tau,
                    asset_type="pump",
                    authorized_type="porter",
                    rule_id="rh5",
                ),
            ],
            observations=list(trace.observations),
            end_time=trace.end_time,
            # The exit reader is deliberately unplaced: walking out the
            # door is not a ward visit, and Rule 3 must ignore it.
            reader_placements=tuple(config.wards),
            functions=FunctionRegistry(
                obj_type=hospital_type_function(config, factory)
            ),
            expected_detections={
                "r3": len(trace.observations),
                "rh5": len(trace.expected_alarms()),
            },
            trace=trace,
            verifier=verify,
        )
