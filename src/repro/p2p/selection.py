"""Peer selection policies for the Channel Manager's peer lists.

The base overlay samples uniformly among peers with spare capacity.
Production deployments prefer *locality*: a parent in the viewer's own
region roughly halves the join RTT and keeps inter-ISP traffic down
(the simulator's :func:`repro.sim.network.peer_rtt` encodes the same
same-region/cross-region split).  This module provides two pluggable
:data:`~repro.core.channel_manager.PeerListProvider` implementations:

* :class:`RegionAwarePeerSampler` -- uniform within region classes,
  the original locality sampler;
* :class:`RankedPeerListProvider` -- the full ranking pipeline
  (same-AS, then same-region, then spare upload capacity), which also
  serves the churn-repair path through :meth:`select_repair`.

Both enforce the *same-region-fraction privacy cap*: at most that
fraction of a returned list is drawn from the requester's own
region/AS, so peer lists never become a region-partition oracle --
peer lists already reveal addresses, they should not additionally sort
the world by geography for free.

Both answer requests from the overlay's incrementally-maintained
:class:`~repro.p2p.index.CandidateIndex` -- O(count + buckets.log) per
request.  Ranking ties break on a stable per-peer keyed hash
(:func:`~repro.p2p.index.stable_jitter` under the overlay's salt), not
per-request randomness, so the same overlay state always yields the
same list; the test suite pins the index against an O(n) reference
scan across churn interleavings.  Herding is still avoided: every
accepted join changes the winner's spare capacity and rotates its
bucket's head before the next request.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.protocol import PeerDescriptor
from repro.metrics.selection import counters
from repro.p2p.overlay import ChannelOverlay
from repro.p2p.peer import Peer


def merge_with_quota(
    local: Sequence[Peer],
    remote: Sequence[Peer],
    slots: int,
    local_quota: int,
) -> Tuple[List[Peer], List[Peer]]:
    """Fill ``slots`` picks: up to ``local_quota`` from ``local``, the
    rest from ``remote``, topping back up from whichever side still has
    members when the other runs short.

    Returns ``(chosen, leftovers)`` where ``leftovers`` preserves rank
    order, so callers can keep topping up (e.g. when the source turns
    out to be saturated).  Membership is tracked by an id-set of
    ``peer_id`` -- the historical ``peer not in chosen`` list scan was
    O(n^2) and, combined with a leftover slice that offset by the quota
    rather than by how many remote peers were actually taken, could
    re-consider already-chosen peers.
    """
    slots = max(0, slots)
    local_take = min(len(local), max(0, local_quota), slots)
    chosen: List[Peer] = list(local[:local_take])
    remote_take = min(len(remote), slots - local_take)
    chosen.extend(remote[:remote_take])
    chosen_ids = {peer.peer_id for peer in chosen}
    leftovers: List[Peer] = []
    for peer in list(local[local_take:]) + list(remote[remote_take:]):
        if peer.peer_id in chosen_ids:
            continue
        if len(chosen) < slots:
            chosen.append(peer)
            chosen_ids.add(peer.peer_id)
        else:
            leftovers.append(peer)
    return chosen, leftovers


class _PeerListPipeline:
    """Shared tail of both providers: cap, source slot, top-up -- and
    the ``locality_fraction`` test helper both used to duplicate."""

    _overlays: Dict[str, ChannelOverlay]
    _geo: object
    same_region_fraction: float

    def _assemble(
        self,
        overlay: ChannelOverlay,
        local: Sequence[Peer],
        remote: Sequence[Peer],
        count: int,
    ) -> List[PeerDescriptor]:
        """Privacy-cap merge, source slot, leftover top-up, truncate."""
        local_quota = int(round((count - 1) * self.same_region_fraction))
        chosen, leftovers = merge_with_quota(local, remote, count - 1, local_quota)
        descriptors = [peer.descriptor() for peer in chosen]
        if overlay.source.spare_capacity > 0:
            descriptors.append(overlay.source.descriptor())
        # A saturated source must not shorten the list: top back up to
        # ``count`` from the leftover candidates (rank order preserved).
        for peer in leftovers:
            if len(descriptors) >= count:
                break
            descriptors.append(peer.descriptor())
        return descriptors[:count]

    def locality_fraction(
        self, channel_id: str, requester_addr: str, count: int = 8
    ) -> float:
        """Fraction of a sampled list in the requester's region (for tests)."""
        sample = self(channel_id, requester_addr, count)  # type: ignore[operator]
        if not sample:
            return 0.0
        region = self._geo.region_of(requester_addr)
        local = sum(1 for d in sample if d.region == region)
        return local / len(sample)


class RegionAwarePeerSampler(_PeerListPipeline):
    """Prefer same-region parents, then spare capacity, then luck.

    Parameters
    ----------
    overlays:
        channel id -> overlay map (the deployment's registry).
    geo:
        Database mapping a requester's address to its region.
    rng:
        Tie-breaking randomness (kept local for determinism).
    same_region_fraction:
        At most this fraction of the returned list is same-region;
        the remainder is drawn from elsewhere so a region with few
        peers still yields useful candidates (and the list never
        becomes a region-partition oracle -- a privacy point: peer
        lists already reveal addresses, they should not additionally
        sort the world by geography for free).
    """

    def __init__(
        self,
        overlays: Dict[str, ChannelOverlay],
        geo,
        rng: random.Random,
        same_region_fraction: float = 0.75,
    ) -> None:
        if not 0.0 <= same_region_fraction <= 1.0:
            raise ValueError("same_region_fraction must be a fraction")
        self._overlays = overlays
        self._geo = geo
        self._rng = rng
        self.same_region_fraction = same_region_fraction

    def __call__(
        self, channel_id: str, exclude_addr: str, count: int
    ) -> List[PeerDescriptor]:
        """The PeerListProvider interface."""
        overlay = self._overlays.get(channel_id)
        if overlay is None or count <= 0:
            return []
        counters.requests += 1
        requester_region = self._geo.region_of(exclude_addr)
        counters.index_hits += 1
        # ``count`` per side covers the worst-case consumption of the
        # merge + top-up tail (at most ``count`` from one side).
        local = overlay.index.sample_region(
            self._rng, requester_region, count, exclude_addr=exclude_addr
        )
        remote = overlay.index.sample_outside_region(
            self._rng, requester_region, count, exclude_addr=exclude_addr
        )
        return self._assemble(overlay, local, remote, count)


class RankedPeerListProvider(_PeerListPipeline):
    """SWITCH2 peer lists ranked by (same-AS, same-region, spare capacity).

    The pipeline the Channel Manager runs per request:

    1. *gather* -- live members with spare capacity, requester excluded;
    2. *score* -- proximity class first (2 = same AS, 1 = same region,
       0 = elsewhere), then advertised tree depth (shallow parents cut
       startup and key-propagation latency -- and ranking by capacity
       alone would herd joiners onto the newest member, growing chains
       instead of trees), then spare upload capacity, then a *stable*
       per-peer jitter (a keyed hash under the overlay's salt) so
       equally-good parents don't herd and the ranking is reproducible;
    3. *cap* -- the same-region-fraction privacy cap bounds how much of
       the list the requester's own region/AS may occupy;
    4. *top up* -- the source is appended as a last-resort candidate,
       and leftovers fill the list back to ``count`` when the source is
       saturated or one side of the cap runs short.

    The same scoring serves churn repair (:meth:`select_repair`), so
    an orphan re-parents with the ranking its original list used.

    The gather+score stages are a handful of heap pops from the
    overlay's :class:`~repro.p2p.index.CandidateIndex`.
    """

    def __init__(
        self,
        overlays: Dict[str, ChannelOverlay],
        geo,
        rng: random.Random,
        same_region_fraction: float = 0.75,
    ) -> None:
        if not 0.0 <= same_region_fraction <= 1.0:
            raise ValueError("same_region_fraction must be a fraction")
        self._overlays = overlays
        self._geo = geo
        self._rng = rng
        self.same_region_fraction = same_region_fraction

    # -- pipeline stages ------------------------------------------------

    def _ranked_sides(
        self,
        overlay: ChannelOverlay,
        record,
        exclude_addr: str,
        count: int,
        accept: Optional[Callable[[Peer], bool]] = None,
    ) -> Tuple[List[Peer], List[Peer]]:
        """The requester-local and remote rank lists, each truncated to
        ``count`` -- the most either side can contribute to a
        ``count``-slot list, so truncation never changes output."""
        counters.index_hits += 1
        index = overlay.index
        local = index.top_local(record, count, exclude_addr, accept=accept)
        remote = index.top_remote(record, count, exclude_addr, accept=accept)
        return local, remote

    # -- PeerListProvider interface -------------------------------------

    def __call__(
        self, channel_id: str, exclude_addr: str, count: int
    ) -> List[PeerDescriptor]:
        overlay = self._overlays.get(channel_id)
        if overlay is None or count <= 0:
            return []
        counters.requests += 1
        record = self._geo.lookup(exclude_addr)
        local, remote = self._ranked_sides(overlay, record, exclude_addr, count)
        return self._assemble(overlay, local, remote, count)

    # -- churn repair ---------------------------------------------------

    def select_repair(
        self,
        overlay: ChannelOverlay,
        orphan: Peer,
        accept: Callable[[Peer], bool],
        count: int,
    ) -> List[PeerDescriptor]:
        """Ranked repair candidates for an orphan's re-join.

        Matches :data:`repro.p2p.overlay.RepairSelector`: the overlay
        passes its source-connectivity probe as ``accept`` and this
        provider draws the candidate set from the index.  No source
        reservation here: ``remove_peer`` appends the source itself.
        """
        counters.requests += 1
        record = self._geo.lookup(orphan.address)
        local, remote = self._ranked_sides(
            overlay, record, orphan.address, count, accept=accept
        )
        local_quota = int(round(count * self.same_region_fraction))
        chosen, _ = merge_with_quota(local, remote, count, local_quota)
        return [peer.descriptor() for peer in chosen]
