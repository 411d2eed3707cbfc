"""Overlay locality: ranked vs uniform peer lists under a flash crowd.

The Channel Manager's ranked peer-list pipeline (same-AS, same-region,
spare upload capacity) only earns its keep if it visibly shortens the
join path under the workload that stresses it: a flash-crowd ramp with
mid-event churn.  This benchmark runs the same audience through both
arms of :func:`repro.p2p.storm.run_storm_comparison` -- the real
control plane end to end (redirection, LOGIN, SWITCH1/2, JOIN
admission, churn repair), every exchange priced by the WAN latency
model on a virtual clock -- and compares:

* **p99 join latency** (redirect -> first decryptable packet), with
  the traced REDIRECT/SWITCH/JOIN/FIRSTPKT phase breakdown;
* **repair time** after mid-event departures, and what fraction of
  repairs land in-region;
* key-distribution latency along the actual parent chains, tree depth,
  and parent locality.

Acceptance: the ranked arm must beat the uniform arm on p99 join
latency AND mean repair time.  A second test pins the *scaling curve*
that motivated the :class:`~repro.p2p.index.CandidateIndex`: indexed
ranked storms at 1x / 3x / 10x the base audience, with the
selection-plane counters showing per-request candidate work stays
near-flat while the O(n) scan reference's grows with the membership
(both are also wall-clock probed on the final overlay of each size).

``OVERLAY_BENCH_VIEWERS`` scales the audience (CI smoke uses a few
hundred; the committed result is a 10k-viewer comparison with a
10k/30k/100k curve) and ``OVERLAY_BENCH_SEED`` the seed.  Results go
to ``BENCH_overlay_locality.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

from repro.metrics.selection import counters
from repro.p2p.selection import RankedPeerListProvider
from repro.p2p.storm import OverlayStormConfig, run_overlay_storm, run_storm_comparison
from repro.trace.report import join_breakdown
from tests.oracles.selection_scan import ScanRankedPeerListProvider

VIEWERS = int(os.environ.get("OVERLAY_BENCH_VIEWERS", "1200"))
SEED = int(os.environ.get("OVERLAY_BENCH_SEED", "20110620"))
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_overlay_locality.json"
FULL_RUN = VIEWERS >= 1200


def _phase_table(result) -> dict:
    return {
        str(row["phase"]): {
            "count": row["count"],
            "p50": round(row["p50"], 4),
            "p99": round(row["p99"], 4),
            "mean": round(row["mean"], 4),
        }
        for row in join_breakdown(result.tracer.spans)
    }


def test_bench_overlay_locality_ranked_beats_uniform():
    config = OverlayStormConfig(viewers=VIEWERS, seed=SEED)
    arms = run_storm_comparison(config)
    ranked = arms["ranked"].as_dict()
    uniform = arms["uniform"].as_dict()

    payload = {
        "benchmark": "overlay_locality",
        "config": {
            "viewers": VIEWERS,
            "seed": SEED,
            "regions": list(config.regions),
            "event_duration": config.event_duration,
            "ramp": config.ramp,
            "mid_departure_fraction": config.mid_departure_fraction,
            "source_capacity": config.source_capacity,
            "full_run": FULL_RUN,
        },
        "results": {
            "ranked": {**ranked, "join_phases": _phase_table(arms["ranked"])},
            "uniform": {**uniform, "join_phases": _phase_table(arms["uniform"])},
        },
        "acceptance": {
            "ranked_join_p99": ranked["join_latency"]["p99"],
            "uniform_join_p99": uniform["join_latency"]["p99"],
            "ranked_repair_mean": ranked["repair_time"]["mean"],
            "uniform_repair_mean": uniform["repair_time"]["mean"],
        },
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    # Both arms must actually have run the whole storm.
    for name, arm in (("ranked", ranked), ("uniform", uniform)):
        assert arm["joined"] > 0, name
        assert arm["repair_time"]["count"] > 0, f"{name}: churn produced no repairs"

    assert (
        ranked["join_latency"]["p99"] < uniform["join_latency"]["p99"]
    ), payload["acceptance"]
    assert (
        ranked["repair_time"]["mean"] < uniform["repair_time"]["mean"]
    ), payload["acceptance"]
    # Locality and tree shape must move the right way too.
    assert ranked["parent_locality"] > uniform["parent_locality"]
    assert ranked["mean_depth"] < uniform["mean_depth"]


# ----------------------------------------------------------------------
# Scaling curve: indexed per-request cost vs audience size
# ----------------------------------------------------------------------

#: Audience multipliers for the curve (1200 -> 1.2k/3.6k/12k smoke;
#: the committed run uses OVERLAY_BENCH_VIEWERS=10000 -> 10k/30k/100k).
CURVE = (1, 3, 10)
PROBE_CALLS = 40


def _probe(deployment, channel, regions, provider_cls):
    """Time PROBE_CALLS ranked list requests against the final overlay
    and report mean wall microseconds and candidates per request."""
    provider = provider_cls(deployment.overlays, deployment.geo, random.Random(1))
    rng = random.Random(4)
    addrs = [
        deployment.geo.random_address(regions[i % len(regions)], rng)
        for i in range(PROBE_CALLS)
    ]
    mark = counters.snapshot()
    start = time.perf_counter()
    for addr in addrs:
        provider(channel, addr, 8)
    elapsed = time.perf_counter() - start
    delta = counters.delta_since(mark)
    return {
        "mean_us_per_call": round(elapsed / PROBE_CALLS * 1e6, 1),
        "candidates_per_request": round(
            delta["candidates_considered"] / delta["requests"], 2
        ),
    }


def test_bench_overlay_index_scaling_curve():
    curve = {}
    for multiplier in CURVE:
        viewers = VIEWERS * multiplier
        config = OverlayStormConfig(viewers=viewers, seed=SEED)
        start = time.perf_counter()
        result = run_overlay_storm(config)
        wall = time.perf_counter() - start
        overlay = result.deployment.overlay(config.channel)
        overlay.index.verify_against(overlay)  # the storm never drifted
        arm = result.as_dict()
        curve[str(viewers)] = {
            "wall_s": round(wall, 2),
            "joined": arm["joined"],
            "join_failures": arm["join_failures"],
            "join_p99": arm["join_latency"]["p99"],
            "members_at_end": len(overlay.peers),
            "storm_candidates_per_request": arm["candidates_per_request"],
            "selection": arm["selection"],
            "probe_indexed": _probe(
                result.deployment,
                config.channel,
                list(config.regions),
                RankedPeerListProvider,
            ),
            "probe_scan": _probe(
                result.deployment,
                config.channel,
                list(config.regions),
                ScanRankedPeerListProvider,
            ),
        }

    sizes = [str(VIEWERS * m) for m in CURVE]
    small, large = curve[sizes[0]], curve[sizes[-1]]
    payload = json.loads(RESULT_PATH.read_text()) if RESULT_PATH.exists() else {
        "benchmark": "overlay_locality"
    }
    payload["scaling"] = {
        "multipliers": list(CURVE),
        "base_viewers": VIEWERS,
        "curve": curve,
        "acceptance": {
            "indexed_growth": round(
                large["storm_candidates_per_request"]
                / small["storm_candidates_per_request"],
                2,
            ),
            "scan_growth": round(
                large["probe_scan"]["candidates_per_request"]
                / max(1.0, small["probe_scan"]["candidates_per_request"]),
                2,
            ),
        },
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    for size in sizes:
        entry = curve[size]
        assert entry["joined"] > 0.9 * int(size), (size, entry)
    # The pin: per-request candidate work is near-flat for the index
    # (a 10x audience may not even double it) while the scan reference
    # examines the whole membership -- its per-request count must grow
    # at least half as fast as the audience did.
    growth = payload["scaling"]["acceptance"]
    assert growth["indexed_growth"] <= 2.0, growth
    if FULL_RUN:
        assert growth["scan_growth"] >= CURVE[-1] / 2, growth
