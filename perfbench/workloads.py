"""The four benchmark workloads, driven only through the public API.

Each workload has a ``build`` (set-up: the fixture the timed phase
needs), a ``unit`` (one timed slice of work whose outputs are checked
after its timer stops) and an optional untimed ``warm_up``.  The runner
repeats units until the requested seconds are measured.  A unit returns
its operation count; the clock readings that bound its timed phase,
the program's own set-up inside it, and each *step* of the timed
phase; its attempted and failed operations; any failed output checks;
and the seeded model outputs that go into the determinism digest.

A unit calls ``tick()`` at its step boundaries, outside any step's own
work.  The runner samples the host's speed there (see ``run.py``) and
takes the time it spends out of the unit's.

Every random choice comes from the benchmark seed through
:func:`derive`; the program receives only the configs built from it.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from repro import Deployment
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import generate_keypair
from repro.experiments import fig5, weeklong
from repro.experiments.common import WeeklongConfig
from repro.experiments.weeklong import WeeklongRunner
from repro.metrics.dataplane import counters as dataplane_counters
from repro.p2p import storm
from repro.p2p.storm import OverlayStormConfig, run_overlay_storm
from repro.sim.chaos import CM0, ChaosConfig, ChaosRig
from repro.sim.engine import Simulator
from repro.workload.traces import OP_JOIN, OP_LOGIN, OP_RENEW, OP_SWITCH

clock = time.perf_counter


def derive(seed: int, label: str) -> int:
    """A 31-bit sub-seed for ``label``, fixed by the benchmark seed."""
    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % 2**31


@dataclass
class Unit:
    """What one timed unit of a workload produced."""

    ops: int
    #: Clock readings: the program's set-up inside the unit runs from
    #: ``setup_start`` to ``start``, the timed phase from ``start`` to
    #: ``end``, and step i from ``marks[i]`` to ``marks[i + 1]``.
    setup_start: float
    start: float
    end: float
    marks: List[float]
    attempted: int
    failed: int
    problems: List[str]
    digest: Dict[str, object]
    #: Per-instance counters the traced run reports (see layers.py).
    counts: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    #: What the operations and one step are, for the report (with the
    #: workload-specific name of the rate or step).
    op: str
    step: str
    setup: str
    build: Callable[[int, int], object]
    unit: Callable[[object, Callable[[], None]], Unit]
    #: Whether each unit needs a freshly built fixture.
    fresh_fixture: bool
    #: Layers the traced run must see called on this workload.
    busy_layers: tuple
    #: Run once before anything is timed, so first-call costs (lazy
    #: imports, cipher caches) stay out of both set-up and units.
    warm_up: Optional[Callable[[int], None]] = None
    #: Units a run times at least, whatever ``--seconds`` asks.
    min_units: int = 1


# ----------------------------------------------------------------------
# flash_crowd: the ranked overlay storm with default churn
# ----------------------------------------------------------------------

STORM_VIEWERS = 900
WARMUP_VIEWERS = 32
#: A flash_crowd step is the wall time from one join to the tenth after
#: it, with the departures and churn repairs in between.  Single joins
#: are too uneven for a steady tail: one join retries, one departure
#: cascades repairs.
JOINS_PER_STEP = 10


class _TimedFeed:
    """Stands in for the storm's workload generator and timestamps each
    join as the storm takes it, so steps are timed without touching the
    storm's code."""

    def __init__(self, join_marks: List[float], tick: Callable[[], None]):
        self._marks = join_marks
        self._tick = tick

    def __call__(self, *args, **kwargs):
        workload = _ORIGINAL_FEED(*args, **kwargs)
        marks, tick = self._marks, self._tick
        original_events = workload.events

        def events():
            for item in original_events():
                if item[0].kind == "join":
                    marks.append(clock())
                    tick()
                yield item

        workload.events = events
        return workload


_ORIGINAL_FEED = storm.FlashCrowdWorkload


def _storm_config(seed: int, viewers: int) -> OverlayStormConfig:
    return OverlayStormConfig(viewers=viewers, seed=seed, sampler="ranked")


def warm_up_flash_crowd(seed: int) -> None:
    run_overlay_storm(_storm_config(derive(seed, "warmup"), WARMUP_VIEWERS))


def build_flash_crowd(seed: int, index: int) -> OverlayStormConfig:
    return _storm_config(derive(seed, f"flash_crowd:{index}"), STORM_VIEWERS)


def unit_flash_crowd(config: OverlayStormConfig, tick: Callable[[], None]) -> Unit:
    """The storm's own set-up (deployment, fleet key, viewer specs) runs
    until the first join is taken; the timed phase is from there on."""
    marks: List[float] = []
    storm.FlashCrowdWorkload = _TimedFeed(marks, tick)
    try:
        setup_start = clock()
        result = run_overlay_storm(config)
        end = clock()
    finally:
        storm.FlashCrowdWorkload = _ORIGINAL_FEED

    overlay = result.deployment.overlay(config.channel)
    problems: List[str] = []
    if result.joined != config.viewers or result.join_failures:
        problems.append(
            f"{result.joined}/{config.viewers} viewers joined, "
            f"{result.join_failures} join failures"
        )
    for check in (lambda: overlay.index.verify_against(overlay), overlay.check_tree):
        try:
            check()
        except Exception as exc:  # the check's own error names the defect
            problems.append(f"{type(exc).__name__}: {exc}")
    repairs = len(result.repair_times) + result.repairs_failed
    summary = result.as_dict()
    return Unit(
        ops=result.joined,
        setup_start=setup_start,
        start=marks[0],
        end=end,
        marks=marks[::JOINS_PER_STEP],
        attempted=result.joined + result.join_failures + repairs,
        failed=result.join_failures + result.repairs_failed,
        problems=problems,
        digest=summary,
        counts={
            "joins": result.joined + result.join_failures,
            "join_attempts": overlay.join_attempts,
            "repairs": repairs,
            "repairs_ok": len(result.repair_times),
            "spans": len(result.tracer.spans),
        },
    )


# ----------------------------------------------------------------------
# broadcast: sealed 25 fps media down a fixed audience
# ----------------------------------------------------------------------

BROADCAST_VIEWERS = 64
BROADCAST_REGIONS = ("CH", "DE", "FR", "UK")
FPS = 25
GOP = 12
#: One key epoch per unit, the fewest whole GOPs longer than the
#: channel server's fixed 10 s key lead time.  Every unit then holds
#: exactly one GOP that pushes the next key down the tree (the key
#: cascade), and a run of at least BROADCAST_MIN_UNITS units holds
#: twice the eleven GOPs the tail percentile needs, whatever the host's
#: speed.  (At 64 viewers those GOPs measured under 5% slower than the
#: others, so the tail does not single them out; see README.md.)
GOPS_PER_UNIT = 21
KEY_EPOCH_S = GOPS_PER_UNIT * GOP / FPS
BROADCAST_MIN_UNITS = 22


@dataclass
class Audience:
    deployment: Deployment
    peers: list
    now: float


def build_broadcast(seed: int, index: int) -> Audience:
    deployment = Deployment(seed=derive(seed, "broadcast"))
    deployment.add_free_channel(
        "live", regions=list(BROADCAST_REGIONS), key_epoch=KEY_EPOCH_S
    )
    fleet_key = generate_keypair(
        HmacDrbg(derive(seed, "fleet").to_bytes(4, "big"), b"fleet-key"),
        bits=deployment.key_bits,
    )
    peers = []
    for i in range(BROADCAST_VIEWERS):
        client = deployment.create_client(
            f"viewer{i}@bench.example.org", "pw",
            region=BROADCAST_REGIONS[i % len(BROADCAST_REGIONS)],
            keypair=fleet_key,
        )
        client.login(now=1.0)
        peers.append(deployment.watch(client, "live", now=1.0, capacity=4))
    return Audience(deployment=deployment, peers=peers, now=2.0)


def unit_broadcast(audience: Audience, tick: Callable[[], None]) -> Unit:
    source = audience.deployment.overlay("live").source
    before = [peer.client.packets_decrypted for peer in audience.peers]
    dropped = dataplane_counters.packets_dropped_undecryptable
    now = audience.now
    marks: List[float] = []
    for _ in range(GOPS_PER_UNIT):
        marks.append(clock())
        tick()
        source.tick(now)
        source.broadcast_packets(now, GOP)
        now += GOP / FPS
    end = clock()
    marks.append(end)
    audience.now = now

    emitted = GOPS_PER_UNIT * GOP
    decrypted = [p.client.packets_decrypted - b for p, b in zip(audience.peers, before)]
    dropped = dataplane_counters.packets_dropped_undecryptable - dropped
    problems: List[str] = []
    short = sum(1 for d in decrypted if d != emitted)
    if short:
        problems.append(f"{short} viewers did not decrypt all {emitted} packets")
    if dropped:
        problems.append(f"{dropped} undecryptable packets dropped")
    overlay = audience.deployment.overlay("live")
    attempted = emitted * len(audience.peers)
    return Unit(
        ops=sum(decrypted),
        setup_start=marks[0],
        start=marks[0],
        end=end,
        marks=marks,
        attempted=attempted,
        failed=attempted - sum(min(d, emitted) for d in decrypted) + dropped,
        problems=problems,
        digest={
            "depths": sorted(overlay.depths().items()),
            "decrypted": decrypted,
            "key_updates_sent": [p.key_updates_sent for p in audience.peers],
        },
    )


# ----------------------------------------------------------------------
# week: the Figs. 5-6 measurement week at reduced peak
# ----------------------------------------------------------------------

WEEK_PEAK = 60
HOUR_S = 3600.0


def _hourly_simulator(marks: List[float], tick: Callable[[], None], horizon: float) -> type:
    """The week's event engine, run one virtual hour at a time so the
    wall time of each simulated hour is a step.  Same events in the same
    order; only the clock's resting point between hours differs.  The
    last step runs the final hour and drains what completes after it."""

    class HourlySimulator(Simulator):
        def run(self, until=None, max_events=None):
            if until is not None or max_events is not None:
                return super().run(until=until, max_events=max_events)
            boundary = HOUR_S
            while boundary < horizon:
                marks.append(clock())
                tick()
                super().run(until=boundary)
                boundary += HOUR_S
            marks.append(clock())
            tick()
            super().run()
            marks.append(clock())

    return HourlySimulator


def _week_config(seed: int, peak: int, horizon: float) -> WeeklongConfig:
    return WeeklongConfig(seed=seed, peak_concurrent=peak, horizon=horizon)


def warm_up_week(seed: int) -> None:
    WeeklongRunner(_week_config(derive(seed, "warmup"), 4, 86400.0)).run()


def build_week(seed: int, index: int) -> WeeklongConfig:
    return _week_config(derive(seed, f"week:{index}"), WEEK_PEAK, 7 * 86400.0)


def unit_week(config: WeeklongConfig, tick: Callable[[], None]) -> Unit:
    """The runner's own set-up (trace generation, stations, scheduling
    the trace) runs until its simulator starts; the timed phase is from
    there on."""
    marks: List[float] = []
    weeklong.Simulator = _hourly_simulator(marks, tick, config.horizon)
    try:
        setup_start = clock()
        result = WeeklongRunner(config).run()
        end = clock()
    finally:
        weeklong.Simulator = Simulator

    trace, collector = result.trace, result.collector
    expected = {
        "LOGIN1": trace.count_of(OP_LOGIN),
        "LOGIN2": trace.count_of(OP_LOGIN),
        "SWITCH1": trace.count_of(OP_SWITCH) + trace.count_of(OP_RENEW),
        "SWITCH2": trace.count_of(OP_SWITCH) + trace.count_of(OP_RENEW),
        "JOIN": trace.count_of(OP_JOIN),
    }
    recorded = {name: collector.count(name) for name in expected}
    problems = [
        f"{name}: {recorded[name]} samples for {want} operations"
        for name, want in expected.items()
        if recorded[name] != want
    ]
    # Fig. 5 server rounds: flat against load (the bounds of the
    # benchmarks/test_bench_fig5_* suite).
    for panel in ("a-login", "b-switch"):
        for series in fig5.panel(result, panel, min_samples=5):
            if len(series.hours) <= 100 or abs(series.correlation) >= 0.3:
                problems.append(
                    f"{series.round_name}: r={series.correlation:+.3f} over "
                    f"{len(series.hours)} hours (need |r| < 0.3, > 100 hours)"
                )
    joins = sorted(collector.latencies("JOIN"))
    return Unit(
        ops=len(trace.events),
        setup_start=setup_start,
        start=marks[0],
        end=end,
        marks=marks,
        attempted=sum(expected.values()),
        failed=sum(max(0, want - recorded[name]) for name, want in expected.items()),
        problems=problems,
        # cm_utilizations is left out: the runner partitions channels by
        # the built-in hash() of their name, which PYTHONHASHSEED varies.
        digest={
            "ops": {op: trace.count_of(op) for op in (OP_LOGIN, OP_SWITCH, OP_RENEW, OP_JOIN)},
            "recorded": recorded,
            "join_p50": round(joins[len(joins) // 2], 9),
            "join_p99": round(joins[int(len(joins) * 0.99)], 9),
        },
    )


# ----------------------------------------------------------------------
# failover: manager crash mid renewal storm, resilient async clients
# ----------------------------------------------------------------------

FAILOVER_CLIENTS = 96
#: Below the 1800 s User Ticket lifetime: the fleet never re-logs in,
#: so renewals past it would be refused.
FAILOVER_HORIZON = 1650.0
SLICE_S = 10.0


def build_failover(seed: int, index: int) -> ChaosRig:
    base = ChaosConfig()
    renew_period = base.ticket_lifetime - base.renew_lead
    config = replace(
        base,
        seed=derive(seed, f"failover:{index}"),
        clients=FAILOVER_CLIENTS,
        horizon=FAILOVER_HORIZON,
        # Kick-offs spread over one renewal period, so renewals keep a
        # steady rate through the whole horizon.
        kickoff_stagger=renew_period / FAILOVER_CLIENTS,
    )
    rig = ChaosRig(config)
    # manager_crash_mid_storm's faults.
    rig.injector.down_at(235.0, CM0)
    rig.injector.up_at(330.0, CM0)
    return rig


def unit_failover(rig: ChaosRig, tick: Callable[[], None]) -> Unit:
    sim = rig.sim
    horizon = rig.config.horizon
    marks: List[float] = []
    boundary = 0.0
    while boundary < horizon:
        boundary = min(boundary + SLICE_S, horizon)
        marks.append(clock())
        tick()
        sim.run(until=boundary)
    marks.append(clock())
    result = rig.run("manager_crash_mid_storm")
    end = clock()

    clients = len(result.outcomes)
    counters = dict(result.counters)
    counters["degraded_seconds"] = round(counters["degraded_seconds"], 6)
    return Unit(
        ops=sim.events_processed,
        setup_start=marks[0],
        start=marks[0],
        end=end,
        marks=marks,
        attempted=clients,
        failed=min(clients, len(result.violations)),
        problems=list(result.violations),
        digest={
            "counters": counters,
            "events": sim.events_processed,
            "outcomes": [
                (o.retries, o.giveups, o.failovers, o.interruptions, o.converged)
                for o in result.outcomes
            ],
            "resilience_spans": result.resilience_spans,
        },
        counts={
            "retries": result.counters["retries"],
            "failovers": result.counters["failovers"],
            "spans": len(rig.tracer.spans),
        },
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "flash_crowd", "viewer joins (joins_per_s)",
            f"{JOINS_PER_STEP} joins with the departures and repairs between them",
            "the storm's deployment, fleet key and viewer specs, up to its first join",
            build_flash_crowd, unit_flash_crowd, True,
            ("crypto.rsa", "crypto.rsa.keygen", "crypto.drbg", "core.tickets",
             "core.policy", "core.user_manager", "core.channel_manager",
             "core.client", "p2p.selection", "p2p.index", "p2p.overlay",
             "p2p.peer", "workload", "trace"),
            warm_up_flash_crowd,
        ),
        Workload(
            "broadcast", "packets decrypted at viewers (deliveries_per_s)",
            f"one GOP, key tick + {GOP} frames (gop_tail_ms)",
            f"deployment with {BROADCAST_VIEWERS} viewers logged in and watching",
            build_broadcast, unit_broadcast, False,
            ("crypto.stream", "core.packets", "core.client", "p2p.peer",
             "crypto.drbg", "crypto.rsa", "p2p.overlay"),
            min_units=BROADCAST_MIN_UNITS,
        ),
        Workload(
            "week", "trace protocol operations replayed (ops_per_s)", "one simulated hour",
            "the runner's trace, stations and schedule, up to its first simulated event",
            build_week, unit_week, True,
            ("sim.engine", "sim.station", "workload", "metrics.collector"),
            warm_up_week,
        ),
        Workload(
            "failover", "simulator events (sim_events_per_s)",
            f"{SLICE_S:g} virtual seconds of the rig's simulator",
            f"ChaosRig with {FAILOVER_CLIENTS} per-client RSA keypairs",
            build_failover, unit_failover, True,
            ("crypto.rsa", "crypto.rsa.keygen", "crypto.drbg", "core.tickets",
             "core.user_manager", "core.channel_manager", "sim.engine",
             "sim.station", "sim.rpc", "sim.driver", "metrics.collector",
             "trace"),
        ),
    )
}
