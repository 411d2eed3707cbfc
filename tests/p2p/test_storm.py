"""Tests for the flash-crowd overlay storm driver."""

import pytest

from repro.errors import ReproError
from repro.p2p.storm import (
    OverlayStormConfig,
    run_overlay_storm,
    run_storm_comparison,
)
from repro.trace.report import join_breakdown, render_join_breakdown


def small_config(**kwargs):
    kwargs.setdefault("viewers", 120)
    kwargs.setdefault("seed", 31)
    kwargs.setdefault("event_duration", 400.0)
    kwargs.setdefault("ramp", 60.0)
    return OverlayStormConfig(**kwargs)


@pytest.fixture(scope="module")
def arms():
    return run_storm_comparison(small_config())


class TestStormRun:
    def test_everyone_joins(self, arms):
        for result in arms.values():
            assert result.joined == 120
            assert result.join_failures == 0

    def test_phases_cover_every_join(self, arms):
        for result in arms.values():
            for name in ("REDIRECT", "SWITCH", "JOIN", "FIRSTPKT"):
                assert len(result.phases[name]) >= result.joined - result.join_failures

    def test_departures_trigger_priced_repairs(self, arms):
        for result in arms.values():
            assert result.departed > 0
            assert result.repair_times, "mid-event churn must produce repairs"
            assert all(t > 0.0 for t in result.repair_times)

    def test_traces_recorded(self, arms):
        ranked = arms["ranked"]
        names = {span.name for span in ranked.tracer.spans}
        assert {"JOIN_E2E", "REDIRECT", "SWITCH", "JOIN", "FIRSTPKT", "REPAIR"} <= names

    def test_join_breakdown_decomposes_total(self, arms):
        rows = join_breakdown(arms["ranked"].tracer.spans)
        by_phase = {row["phase"]: row for row in rows}
        assert {"REDIRECT", "SWITCH", "JOIN", "TOTAL"} <= set(by_phase)
        assert by_phase["TOTAL"]["count"] == 120
        # The phase means must (approximately) add up to the total mean.
        phase_sum = sum(
            row["mean"] * row["count"] for row in rows if row["phase"] != "TOTAL"
        )
        total = by_phase["TOTAL"]["mean"] * by_phase["TOTAL"]["count"]
        assert phase_sum == pytest.approx(total, rel=0.01)
        assert "TOTAL" in render_join_breakdown(arms["ranked"].tracer.spans)

    def test_deterministic_under_seed(self, arms):
        again = run_overlay_storm(small_config(sampler="ranked"))
        assert again.join_latencies == arms["ranked"].join_latencies
        assert again.repair_times == arms["ranked"].repair_times

    def test_as_dict_shape(self, arms):
        payload = arms["ranked"].as_dict()
        assert payload["sampler"] == "ranked"
        assert payload["join_latency"]["count"] == 120
        assert set(payload["phases"]) == {"REDIRECT", "SWITCH", "JOIN", "FIRSTPKT"}
        assert 0.0 <= payload["parent_locality"] <= 1.0


class TestRankedVsUniform:
    def test_ranked_improves_locality(self, arms):
        assert arms["ranked"].parent_locality > arms["uniform"].parent_locality

    def test_ranked_builds_shallower_trees(self, arms):
        assert arms["ranked"].mean_depth < arms["uniform"].mean_depth

    def test_ranked_repairs_stay_local(self, arms):
        ranked = arms["ranked"].as_dict()
        uniform = arms["uniform"].as_dict()
        assert ranked["repair_locality"] > uniform["repair_locality"]


#: ``as_dict()`` of a 300-viewer ranked storm at seed 1, without the
#: selection counters.  Recorded before the padding draw and the
#: remote-candidate merge were made cheaper: both change how much work
#: a join costs, never which tree, latencies or repairs it produces.
GOLDEN_RANKED_300 = {
    "departed": 174,
    "index_verifications": 0,
    "join_failures": 0,
    "join_latency": {"count": 300, "mean": 0.8072, "p50": 0.7106, "p99": 2.2206},
    "joined": 300,
    "key_dist_latency": {"count": 300, "mean": 0.4254, "p50": 0.3537, "p99": 1.5301},
    "max_depth": 12,
    "mean_depth": 6.68,
    "parent_locality": 0.987,
    "phases": {
        "FIRSTPKT": {"count": 300, "mean": 0.4424, "p50": 0.3725, "p99": 1.4562},
        "JOIN": {"count": 300, "mean": 0.0864, "p50": 0.0625, "p99": 0.447},
        "REDIRECT": {"count": 300, "mean": 0.1483, "p50": 0.0905, "p99": 1.3037},
        "SWITCH": {"count": 300, "mean": 0.1302, "p50": 0.091, "p99": 0.7564},
    },
    "repair_locality": 0.932,
    "repair_time": {"count": 191, "mean": 0.2593, "p50": 0.1745, "p99": 1.2657},
    "repairs_failed": 0,
    "sampler": "ranked",
    "spans": 1691,
    "viewers": 300,
}


class TestGoldenStorm:
    def test_ranked_storm_outputs_pinned(self):
        payload = run_overlay_storm(
            OverlayStormConfig(viewers=300, seed=1, sampler="ranked")
        ).as_dict()
        # How many candidates a request examines is cost, not output.
        payload.pop("selection")
        payload.pop("candidates_per_request")
        assert payload == GOLDEN_RANKED_300


class TestShardedArm:
    def test_storm_runs_against_sharded_tier(self):
        result = run_overlay_storm(
            small_config(viewers=60, partitions=2, seed=37)
        )
        assert result.joined == 60
        assert result.join_failures == 0


class TestValidation:
    def test_unknown_sampler_rejected(self):
        with pytest.raises(ReproError):
            run_overlay_storm(small_config(sampler="psychic"))
