"""O(n) reference scan for the ranked peer-list pipeline.

:class:`ScanRankedPeerListProvider` answers every request by gathering
the overlay's whole membership and sorting it by the shared ranking key,
instead of popping the :class:`~repro.p2p.index.CandidateIndex` heaps.
It is the oracle the index is pinned byte-identical against
(``tests/p2p/test_selection_equivalence.py``) and the linear-cost arm of
the overlay scaling curve (``benchmarks/test_bench_overlay_locality.py``).
It keeps bumping ``fallback_scans`` and ``candidates_considered`` so the
selection counters show its per-request cost.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.metrics.selection import counters
from repro.p2p.index import stable_jitter
from repro.p2p.overlay import ChannelOverlay
from repro.p2p.peer import Peer
from repro.p2p.selection import RankedPeerListProvider


def proximity(peer: Peer, record) -> int:
    """2 = same AS, 1 = same region, 0 = elsewhere/unknown."""
    if record is None:
        return 0
    asn = getattr(peer, "asn", 0)
    if asn and asn == record.asn:
        return 2
    if peer.region == record.region:
        return 1
    return 0


def scan_eligible(overlay: ChannelOverlay, exclude_addr: str) -> List[Peer]:
    """Full-membership gather: live, spare-capacity, admissible peers."""
    eligible = [
        peer
        for peer in overlay.peers.values()
        if peer.alive
        and peer.spare_capacity > 0
        and peer.address != exclude_addr
        and overlay.admissible(peer)
    ]
    counters.candidates_considered += len(eligible)
    return eligible


class ScanRankedPeerListProvider(RankedPeerListProvider):
    """:class:`RankedPeerListProvider` with the gather+score stages run
    as a full scan and sort."""

    def _ranked_sides(
        self,
        overlay: ChannelOverlay,
        record,
        exclude_addr: str,
        count: int,
        accept: Optional[Callable[[Peer], bool]] = None,
    ) -> Tuple[List[Peer], List[Peer]]:
        counters.fallback_scans += 1
        candidates = scan_eligible(overlay, exclude_addr)
        if accept is not None:
            candidates = [peer for peer in candidates if accept(peer)]
        salt = overlay.selection_salt
        ordered = sorted(
            candidates,
            key=lambda peer: (
                -proximity(peer, record),
                peer.depth,
                -peer.spare_capacity,
                stable_jitter(salt, peer.peer_id),
                peer.peer_id,
            ),
        )
        local = [p for p in ordered if proximity(p, record) > 0][:count]
        remote = [p for p in ordered if proximity(p, record) == 0][:count]
        return local, remote
