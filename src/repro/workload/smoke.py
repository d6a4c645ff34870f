"""Scale profiles and workload builder of ``python -m repro smoke``.

The smoke drill streams an open-world generated workload (Zipf tag
skew, diurnal/burst arrivals, distinct-EPC cardinality up to millions)
through the durable serving stack or a shard cluster and audits the
other end; the drill itself is a preset of the drill harness,
:func:`repro.serve.drill.run_smoke_drill`.  This module holds what is
workload-specific: the profiles — ``ci`` (seconds, CI quick profile),
``quick`` (a minute), ``full`` (the headline: over a million distinct
EPCs through the full stack) — and :func:`build_workload`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..resilience.chaos import ChaosConfig
from .generator import GeneratedWorkload, WorkloadConfig
from .shaping import ShapingConfig

__all__ = ["SMOKE_PROFILES", "SmokeProfile", "build_workload"]


@dataclass(frozen=True)
class SmokeProfile:
    """One smoke-drill scale: generator knobs plus the audit floor."""

    name: str
    target_observations: int
    cardinality: int
    lines: int
    theta: float = 0.9
    popular_fraction: float = 0.35
    #: the drill fails unless at least this many distinct EPCs flowed
    distinct_floor: int = 0
    batch_size: int = 256
    timeout: float = 300.0


SMOKE_PROFILES: dict[str, SmokeProfile] = {
    "ci": SmokeProfile(
        name="ci",
        target_observations=3_000,
        cardinality=10_000,
        lines=4,
        distinct_floor=1_500,
        batch_size=128,
        timeout=120.0,
    ),
    "quick": SmokeProfile(
        name="quick",
        target_observations=40_000,
        cardinality=100_000,
        lines=4,
        distinct_floor=20_000,
        timeout=600.0,
    ),
    "full": SmokeProfile(
        name="full",
        target_observations=1_500_000,
        cardinality=2_000_000,
        lines=8,
        popular_fraction=0.2,
        distinct_floor=1_000_000,
        batch_size=512,
        timeout=5_400.0,
    ),
}


def build_workload(
    pack_name: str,
    profile: SmokeProfile,
    seed: int,
    chaos: Optional[ChaosConfig] = None,
    shaping: Optional[ShapingConfig] = None,
) -> GeneratedWorkload:
    """A generated workload for ``pack_name`` at ``profile`` scale."""
    from ..scenarios import get_pack, iter_packs

    pack = get_pack(pack_name)
    source = pack.episode_source(
        lines=profile.lines, popular_fraction=profile.popular_fraction
    )
    if source is None:
        capable = [
            p.name for p in iter_packs() if p.episode_source() is not None
        ]
        raise ValueError(
            f"scenario pack {pack_name!r} is replay-only; workload-capable "
            f"packs: {', '.join(capable)}"
        )
    return GeneratedWorkload(
        source,
        WorkloadConfig(
            pack=pack_name,
            seed=seed,
            target_observations=profile.target_observations,
            lines=profile.lines,
            cardinality=profile.cardinality,
            theta=profile.theta,
            popular_fraction=profile.popular_fraction,
            shaping=shaping if shaping is not None else ShapingConfig(),
            chaos=chaos,
        ),
    )

