"""Byzantine-peer detection and containment counters.

The paper's threat model assumes overlay peers are *not* trusted: they
may pollute packets, withhold or replay content keys, lie about their
position to game parent selection, or flood the control plane with
JOINs.  This module counts what the detection plane
(:mod:`repro.p2p.scorecard`) observes and what the containment plane
does about it, so a chaos run -- or an operator dashboard -- can see
the detect -> quarantine -> evict -> repair pipeline working.

Unlike :mod:`repro.metrics.dataplane` these counters are *per
deployment*, not process-global: a scorecard is scoped to one
deployment's overlays, and two deployments in one test process must
not share misbehavior books.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.block import CounterBlock


@dataclass
class MisbehaviorCounters(CounterBlock):
    """One deployment's detection/containment tallies."""

    #: Undecryptable packets attributed to the forwarding parent while
    #: the receiver *held* the packet's key -- i.e. the ciphertext
    #: failed authentication: pollution.
    pollution_detected: int = 0
    #: Undecryptable packets attributed to a parent because the key for
    #: the packet's serial never arrived: key withholding suspicion.
    missing_key_detected: int = 0
    #: Key updates rejected by the receiver-side replay window
    #: (activation time older than the newest accepted key by more
    #: than the window).
    key_replays_rejected: int = 0
    #: Advertised depths contradicted by the overlay's measured tree
    #: (a peer claiming to sit shallower than it does).
    depth_lies_detected: int = 0
    #: SWITCH/JOIN requests refused by a Channel Manager's per-address
    #: rate limiter.
    joins_rate_limited: int = 0
    #: Peers whose decayed misbehavior score crossed the quarantine
    #: threshold.
    peers_quarantined: int = 0
    #: Quarantined peers forcibly removed from an overlay (their
    #: children re-parented through the ranked repair path).
    peers_evicted: int = 0
    #: Orphans re-parented during evictions (repair routed around the
    #: quarantined peer by construction).
    eviction_repairs: int = 0
