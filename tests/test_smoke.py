"""The standing production smoke drill, at CI scale.

``run_smoke_drill`` is the headline check: a generated open-world
workload through the durable serving stack, audited for exactly-once
sink delivery, oracle-exact detections and distinct-EPC cardinality.
These tests run the ``ci`` profile (seconds, not minutes); the ``full``
profile (>= 1M distinct EPCs) is ``python -m repro smoke --profile
full``.
"""

import json
import re

import pytest

from repro.workload import SMOKE_PROFILES, run_smoke_drill


class TestProfiles:
    def test_profiles_exist(self):
        assert set(SMOKE_PROFILES) == {"ci", "quick", "full"}

    def test_full_profile_reaches_million_epc_floor(self):
        full = SMOKE_PROFILES["full"]
        assert full.distinct_floor >= 1_000_000
        assert full.cardinality >= full.distinct_floor

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown smoke profile"):
            run_smoke_drill("warp-speed")


class TestServeSmoke:
    def test_ci_profile_passes(self, tmp_path):
        report_path = str(tmp_path / "smoke.json")
        report = run_smoke_drill(
            "ci",
            seed=7,
            directory=str(tmp_path / "durable"),
            report_path=report_path,
        )
        assert report["ok"], report["checks"]
        assert report["transport"] == "tcp"
        assert report["checks"]["detections_match_oracle"]["ok"]
        assert report["checks"]["sink_exactly_once"]["ok"]
        assert report["distinct_epcs"] >= SMOKE_PROFILES["ci"].distinct_floor
        on_disk = json.load(open(report_path))
        assert on_disk["ok"] is True

    def test_ci_profile_other_pack(self, tmp_path):
        report = run_smoke_drill(
            "ci", pack="checkout", seed=11, directory=str(tmp_path)
        )
        assert report["ok"], report["checks"]

    def test_replay_only_pack_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="replay-only"):
            run_smoke_drill("ci", pack="gate", directory=str(tmp_path))

    def test_chaos_waives_oracle_keeps_delivery_audit(self, tmp_path):
        from repro.resilience import ChaosConfig

        report = run_smoke_drill(
            "ci",
            seed=7,
            directory=str(tmp_path),
            chaos=ChaosConfig(
                seed=7, duplicate_rate=0.05, disorder_rate=0.05
            ),
        )
        assert report["ok"], report["checks"]
        assert "detections_match_oracle" not in report["checks"]
        assert report["checks"]["sink_exactly_once"]["ok"]
        assert report["chaos"]["duplicated"] > 0


class TestClusterSmoke:
    def test_ci_profile_over_cluster(self, tmp_path):
        report = run_smoke_drill(
            "ci",
            pack="packing",
            seed=7,
            cluster=True,
            workers=2,
            directory=str(tmp_path),
        )
        assert report["ok"], report["checks"]
        assert report["transport"] == "cluster"
        assert report["checks"]["detections_match_oracle"]["ok"]
        # The frontier is the router's view, not the client's own
        # last_acked echoed three times: the routed count must cover
        # every submitted observation.
        detail = report["checks"]["frontier_agreement"]["detail"]
        routed = re.search(r"routed=(\d+)", detail)
        assert routed, detail
        assert int(routed.group(1)) == report["observations"]

    def test_programless_pack_rejected_for_cluster(self, tmp_path):
        with pytest.raises(ValueError, match="rule-language program"):
            run_smoke_drill(
                "ci",
                pack="returns-fraud",
                cluster=True,
                directory=str(tmp_path),
            )

    def test_cluster_chaos_rejected(self, tmp_path):
        from repro.resilience import ChaosConfig

        with pytest.raises(ValueError, match="cluster smoke"):
            run_smoke_drill(
                "ci",
                pack="packing",
                cluster=True,
                directory=str(tmp_path),
                chaos=ChaosConfig(seed=1, duplicate_rate=0.1),
            )
