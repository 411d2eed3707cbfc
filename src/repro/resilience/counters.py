"""Shared counters for the resilience layer.

One mutable block, threaded by reference into every retry loop,
breaker, and degraded-mode transition of a deployment -- the same
idiom as :mod:`repro.metrics.hotpath`.  The chaos suite's
counter-consistency invariants are stated over these fields:

* every transport failure lands in exactly one of ``timeouts`` /
  ``drops`` / ``pool_exhausted``;
* every such failure is answered by exactly one of ``retries`` /
  ``giveups``;
* ``breaker_opens >= breaker_closes`` (a breaker can only close after
  opening);
* after a run is finalized, ``degraded_entries == degraded_exits``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.block import CounterBlock


@dataclass
class ResilienceCounters(CounterBlock):
    """Counter block for retries, breakers, failover, degraded mode."""

    #: Transport-failure classification (one per failed attempt).
    timeouts: int = 0
    drops: int = 0
    pool_exhausted: int = 0
    #: Response classification (one per failed attempt).
    retries: int = 0
    giveups: int = 0
    #: Breaker state-machine transitions.
    breaker_opens: int = 0
    breaker_half_opens: int = 0
    breaker_closes: int = 0
    breaker_rejections: int = 0
    #: Attempts steered away from the primary replica.
    failovers: int = 0
    #: Degraded viewing mode (valid ticket, unreachable Channel Manager).
    degraded_entries: int = 0
    degraded_exits: int = 0
    degraded_seconds: float = 0.0
    #: Episodes where the Channel Ticket expired while degraded --
    #: playback actually stopped (the paper's hard-stop).
    playback_interruptions: int = 0
