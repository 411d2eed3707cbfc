"""Incrementally-maintained candidate index for peer selection.

PR 8's ranked SWITCH2 pipeline re-scanned the full overlay membership
on every request -- 100k joiners each ranking 100k members is
quadratic control-plane work, and the ROADMAP names it as the blocker
to the 100k-viewer flash-crowd target.  The :class:`CandidateIndex`
replaces the scan: eligible peers are bucketed by region and by AS,
each bucket keeps a lazy-deletion heap ordered by the shared ranking
key ``(depth, -spare_capacity, jitter, peer_id)`` plus a randomized
member array for O(1) uniform sampling, and a selection request drains
``O(count + buckets.log)`` heap pops instead of touching every member.

**Single-writer invariant.**  The owning
:class:`~repro.p2p.overlay.ChannelOverlay` is the only writer: it
publishes every membership event -- registration, departure, child
capacity deltas, depth-heartbeat adoption, scorecard quarantine and
release -- through :meth:`add_peer` / :meth:`remove_peer` /
:meth:`update_peer` / :meth:`set_admissible`.  The index never polls
peers; if an event is missed the index silently serves a stale view,
which is why :meth:`verify_against` exists (the storm driver and the
equivalence suite run it) and why peers carry a ``membership_listener``
hook that fires on *every* state change a ranking can observe.

**Lazy deletion.**  A peer whose key changes (a child joined, a depth
heartbeat landed) is re-pushed with a fresh ``token``; outstanding
heap tuples with older tokens are recognized as stale at pop time and
dropped.  A bucket whose heap outgrows its live membership 4x is
compacted (rebuilt from the member array; counted in
``selection.rebuilds``).

**Determinism.**  Ranking ties break on a *stable* per-peer jitter --
a keyed blake2b of the peer id under a per-overlay salt -- rather than
per-request randomness, so the index and an O(n) reference scan
produce byte-identical lists from the same overlay state (the
equivalence pin in ``tests/p2p/test_selection_equivalence.py``).
Herding is still avoided: the jitter decorrelates equal-rank peers
across overlays, and every accepted join changes the winner's spare
capacity, rotating the head of its bucket for the next request.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import OverlayError
from repro.metrics.selection import counters

#: A draw-time filter over candidate peers (e.g. the churn-repair
#: connectivity probe).  Filtered entries stay in the index.
PeerFilter = Callable[[object], bool]

#: Heaps are compacted when they exceed ``_COMPACT_FACTOR`` x the live
#: membership (and the floor, so tiny buckets never bother).
_COMPACT_FACTOR = 4
_COMPACT_FLOOR = 64


def stable_jitter(salt: bytes, peer_id: str) -> int:
    """Deterministic ranking tiebreak: keyed hash of the peer id.

    Salted per overlay so the same peer population does not tie-break
    identically across channels (which would herd multi-channel
    deployments onto the same parents).
    """
    digest = hashlib.blake2b(peer_id.encode("utf-8"), key=salt, digest_size=8)
    return int.from_bytes(digest.digest(), "big")


class _Entry:
    """The index's cached view of one registered peer."""

    __slots__ = (
        "peer",
        "region",
        "asn",
        "address",
        "depth",
        "spare",
        "admissible",
        "eligible",
        "token",
        "jitter",
    )

    def __init__(self, peer, admissible: bool, jitter: int) -> None:
        self.peer = peer
        self.region = peer.region
        self.asn = peer.asn
        self.address = peer.address
        self.depth = peer.depth
        self.spare = peer.spare_capacity
        self.admissible = admissible
        self.eligible = False
        self.token = 0
        self.jitter = jitter

    def key(self) -> Tuple[int, int, int, str]:
        """The shared ranking key (proximity is the bucket, not the key)."""
        return (self.depth, -self.spare, self.jitter, self.peer.peer_id)


class _Bucket:
    """One (region or AS) bucket: a lazy heap plus a randomized set."""

    __slots__ = ("heap", "members", "pos")

    def __init__(self) -> None:
        #: ``(depth, -spare, jitter, peer_id, token)`` tuples; stale
        #: tokens are dropped at pop time.
        self.heap: List[Tuple[int, int, int, str, int]] = []
        #: Eligible member ids, order-free (swap-pop removal) so
        #: ``members[rng.randrange(len)]`` samples uniformly.
        self.members: List[str] = []
        self.pos: Dict[str, int] = {}

    def add(self, peer_id: str) -> None:
        if peer_id in self.pos:
            return
        self.pos[peer_id] = len(self.members)
        self.members.append(peer_id)

    def discard(self, peer_id: str) -> None:
        index = self.pos.pop(peer_id, None)
        if index is None:
            return
        last = self.members.pop()
        if last != peer_id:
            self.members[index] = last
            self.pos[last] = index

    def __len__(self) -> int:
        return len(self.members)


class CandidateIndex:
    """Region/AS-bucketed candidate sets with rank-ordered draws.

    Parameters
    ----------
    salt:
        Per-overlay jitter salt (see :func:`stable_jitter`); the
        overlay derives it from its own DRBG fork so results stay
        deterministic per deployment seed.
    """

    def __init__(self, salt: bytes) -> None:
        self.salt = salt
        self._entries: Dict[str, _Entry] = {}
        self._by_region: Dict[str, _Bucket] = {}
        self._by_asn: Dict[int, _Bucket] = {}
        #: Total eligible members (all region buckets combined).
        self._eligible_count = 0

    # ------------------------------------------------------------------
    # Membership events (the overlay is the single writer)
    # ------------------------------------------------------------------

    def add_peer(self, peer, admissible: bool) -> None:
        """Register (or refresh) a peer.  Idempotent: churn repair
        re-registers an orphan that never left the overlay."""
        counters.index_events += 1
        entry = self._entries.get(peer.peer_id)
        if entry is None:
            entry = _Entry(peer, admissible, stable_jitter(self.salt, peer.peer_id))
            self._entries[peer.peer_id] = entry
        entry.admissible = admissible
        self._refresh(entry)

    def remove_peer(self, peer_id: str) -> None:
        """Drop a departed peer; its outstanding heap tuples go stale."""
        counters.index_events += 1
        entry = self._entries.pop(peer_id, None)
        if entry is None:
            return
        if entry.eligible:
            self._set_membership(entry, False)

    def update_peer(self, peer) -> None:
        """Absorb a state change (capacity, depth, liveness)."""
        counters.index_events += 1
        entry = self._entries.get(peer.peer_id)
        if entry is None:
            return  # not (yet) registered with the overlay
        self._refresh(entry)

    def set_admissible(self, peer_id: str, admissible: bool) -> None:
        """Absorb a quarantine/release event from the scorecard."""
        counters.index_events += 1
        entry = self._entries.get(peer_id)
        if entry is None:
            return
        if entry.admissible != admissible:
            entry.admissible = admissible
            self._refresh(entry)

    def _refresh(self, entry: _Entry) -> None:
        peer = entry.peer
        if peer.region != entry.region or peer.asn != entry.asn:
            # Bucket move (locality edits are rare -- tests and
            # operator overrides): evict from the old buckets, then
            # fall through to re-place under the new identity.
            if entry.eligible:
                self._set_membership(entry, False)
                entry.eligible = False
                entry.token += 1
            entry.region = peer.region
            entry.asn = peer.asn
        entry.address = peer.address
        depth = peer.depth
        spare = peer.spare_capacity
        eligible = bool(peer.alive) and spare > 0 and entry.admissible
        key_changed = depth != entry.depth or spare != entry.spare
        entry.depth = depth
        entry.spare = spare
        if eligible and not entry.eligible:
            entry.eligible = True
            self._set_membership(entry, True)
            self._push(entry)
        elif not eligible and entry.eligible:
            entry.eligible = False
            self._set_membership(entry, False)
            entry.token += 1  # invalidate outstanding tuples
        elif eligible and key_changed:
            self._push(entry)

    def _set_membership(self, entry: _Entry, present: bool) -> None:
        peer_id = entry.peer.peer_id
        region_bucket = self._region_bucket(entry.region)
        asn_bucket = self._asn_bucket(entry.asn)
        if present:
            region_bucket.add(peer_id)
            self._eligible_count += 1
            if asn_bucket is not None:
                asn_bucket.add(peer_id)
        else:
            region_bucket.discard(peer_id)
            self._eligible_count -= 1
            if asn_bucket is not None:
                asn_bucket.discard(peer_id)

    def _region_bucket(self, region: str) -> _Bucket:
        bucket = self._by_region.get(region)
        if bucket is None:
            bucket = self._by_region[region] = _Bucket()
        return bucket

    def _asn_bucket(self, asn: int) -> Optional[_Bucket]:
        if not asn:
            return None  # ASN 0 = unknown; never matches same-AS
        bucket = self._by_asn.get(asn)
        if bucket is None:
            bucket = self._by_asn[asn] = _Bucket()
        return bucket

    def _push(self, entry: _Entry) -> None:
        entry.token += 1
        item = (*entry.key(), entry.token)
        region_bucket = self._region_bucket(entry.region)
        heapq.heappush(region_bucket.heap, item)
        self._maybe_compact(region_bucket)
        asn_bucket = self._asn_bucket(entry.asn)
        if asn_bucket is not None:
            heapq.heappush(asn_bucket.heap, item)
            self._maybe_compact(asn_bucket)

    def _maybe_compact(self, bucket: _Bucket) -> None:
        if len(bucket.heap) <= max(_COMPACT_FLOOR, _COMPACT_FACTOR * len(bucket)):
            return
        counters.rebuilds += 1
        heap = []
        for peer_id in bucket.members:
            entry = self._entries[peer_id]
            heap.append((*entry.key(), entry.token))
        heapq.heapify(heap)
        bucket.heap = heap

    # ------------------------------------------------------------------
    # Rank-ordered draws (the RankedPeerListProvider's fast path)
    # ------------------------------------------------------------------

    def top_local(
        self,
        record,
        count: int,
        exclude_addr: Optional[str] = None,
        accept: Optional[PeerFilter] = None,
    ) -> List:
        """The requester-local rank list: same-AS peers first (proximity
        2, whatever their region), then same-region peers from other
        ASes (proximity 1), each block in shared-key order."""
        if record is None or count <= 0:
            return []
        out: List[_Entry] = []
        asn = getattr(record, "asn", 0)
        if asn:
            bucket = self._by_asn.get(asn)
            if bucket is not None:
                out.extend(
                    self._merge(
                        [bucket], count, exclude_addr, accept, exclude_asn=None
                    )
                )
        bucket = self._by_region.get(record.region)
        if bucket is not None and len(out) < count:
            out.extend(
                self._merge(
                    [bucket], count - len(out), exclude_addr, accept, exclude_asn=asn
                )
            )
        return [entry.peer for entry in out]

    def top_remote(
        self,
        record,
        count: int,
        exclude_addr: Optional[str] = None,
        accept: Optional[PeerFilter] = None,
    ) -> List:
        """The proximity-0 rank list: peers outside the requester's
        region *and* AS, merged across region buckets in key order.
        With no geo record every peer is proximity 0."""
        if count <= 0:
            return []
        region = getattr(record, "region", None) if record is not None else None
        asn = getattr(record, "asn", 0) if record is not None else 0
        buckets = [
            bucket for name, bucket in self._by_region.items() if name != region
        ]
        out = self._merge(buckets, count, exclude_addr, accept, exclude_asn=asn)
        return [entry.peer for entry in out]

    def _merge(
        self,
        buckets: List[_Bucket],
        count: int,
        exclude_addr: Optional[str],
        accept: Optional[PeerFilter],
        exclude_asn: Optional[int],
    ) -> List[_Entry]:
        """The ``count`` best matching entries across ``buckets``, in
        key order: a lazy k-way merge over the bucket heaps.

        A frontier heap holds each bucket's head; the global head is
        popped, validated (lazily-deleted tuples are dropped) and
        filtered, and the merge stops at ``count`` accepted entries.
        Every valid tuple popped is pushed back; unconsumed heads were
        only peeked, so they never left their heaps.  Cost is
        ``O((count + filtered + stale) . log n)``, whatever the number
        of buckets.
        """
        heaps = [bucket.heap for bucket in buckets if bucket.heap]
        frontier = [(heap[0], slot) for slot, heap in enumerate(heaps)]
        heapq.heapify(frontier)
        popped: List[Tuple[List, Tuple[int, int, int, str, int]]] = []
        out: List[_Entry] = []
        while frontier and len(out) < count:
            slot = frontier[0][1]
            heap = heaps[slot]
            item = heapq.heappop(heap)
            if heap:
                heapq.heapreplace(frontier, (heap[0], slot))
            else:
                heapq.heappop(frontier)
            entry = self._entries.get(item[3])
            if entry is None or not entry.eligible or item[4] != entry.token:
                counters.stale_entries_skipped += 1
                continue
            popped.append((heap, item))
            counters.candidates_considered += 1
            if exclude_addr is not None and entry.address == exclude_addr:
                continue
            if exclude_asn and entry.asn == exclude_asn:
                continue
            if accept is not None and not accept(entry.peer):
                continue
            out.append(entry)
        for heap, item in popped:
            heapq.heappush(heap, item)
        return out

    # ------------------------------------------------------------------
    # Uniform sampling (the uniform/region-aware arms)
    # ------------------------------------------------------------------

    def sample_eligible(
        self,
        rng: random.Random,
        count: int,
        exclude_addr: Optional[str] = None,
        accept: Optional[PeerFilter] = None,
    ) -> List:
        """Uniform sample (without replacement) over every eligible peer."""
        return self._sample(
            rng, list(self._by_region.values()), count, exclude_addr, accept
        )

    def sample_region(
        self,
        rng: random.Random,
        region: str,
        count: int,
        exclude_addr: Optional[str] = None,
    ) -> List:
        """Uniform sample within one region bucket."""
        bucket = self._by_region.get(region)
        if bucket is None:
            return []
        return self._sample(rng, [bucket], count, exclude_addr, None)

    def sample_outside_region(
        self,
        rng: random.Random,
        region: str,
        count: int,
        exclude_addr: Optional[str] = None,
    ) -> List:
        """Uniform sample over every region bucket except ``region``."""
        buckets = [b for name, b in self._by_region.items() if name != region]
        return self._sample(rng, buckets, count, exclude_addr, None)

    def _sample(
        self,
        rng: random.Random,
        buckets: List[_Bucket],
        count: int,
        exclude_addr: Optional[str],
        accept: Optional[PeerFilter],
    ) -> List:
        """Rejection-sample uniformly across a union of buckets.

        Re-drawing a uniform position over the (static) union and
        skipping repeats is exactly sampling without replacement, so
        the result matches a full shuffle in distribution at
        O(count) expected cost.  Dense draws (or filter-heavy calls)
        fall back to the materialize-and-shuffle path.
        """
        sizes = [len(bucket) for bucket in buckets]
        total = sum(sizes)
        if total == 0 or count <= 0:
            return []
        if count * 2 >= total:
            return self._sample_dense(rng, buckets, count, exclude_addr, accept)
        out: List = []
        seen: set = set()
        budget = 8 * count + 32
        while len(out) < count and len(seen) < total and budget > 0:
            budget -= 1
            position = rng.randrange(total)
            for bucket, size in zip(buckets, sizes):
                if position < size:
                    peer_id = bucket.members[position]
                    break
                position -= size
            if peer_id in seen:
                continue
            seen.add(peer_id)
            entry = self._entries[peer_id]
            counters.candidates_considered += 1
            if exclude_addr is not None and entry.address == exclude_addr:
                continue
            if accept is not None and not accept(entry.peer):
                continue
            out.append(entry.peer)
        if len(out) < count and len(seen) < total:
            # Filter-heavy draw blew the rejection budget: fall back.
            return self._sample_dense(rng, buckets, count, exclude_addr, accept)
        return out

    def _sample_dense(
        self,
        rng: random.Random,
        buckets: List[_Bucket],
        count: int,
        exclude_addr: Optional[str],
        accept: Optional[PeerFilter],
    ) -> List:
        pool: List[str] = []
        for bucket in buckets:
            pool.extend(bucket.members)
        rng.shuffle(pool)
        out: List = []
        for peer_id in pool:
            if len(out) >= count:
                break
            entry = self._entries[peer_id]
            counters.candidates_considered += 1
            if exclude_addr is not None and entry.address == exclude_addr:
                continue
            if accept is not None and not accept(entry.peer):
                continue
            out.append(entry.peer)
        return out

    # ------------------------------------------------------------------
    # Introspection and self-check
    # ------------------------------------------------------------------

    @property
    def eligible_count(self) -> int:
        return self._eligible_count

    def __len__(self) -> int:
        return len(self._entries)

    def jitter_of(self, peer_id: str) -> int:
        return stable_jitter(self.salt, peer_id)

    def verify_against(self, overlay) -> None:
        """Assert the index mirrors the overlay's live state exactly.

        O(n); the storm driver runs it behind ``--verify-index`` and
        the equivalence suite runs it after every step.  Raises
        :class:`~repro.errors.OverlayError` on the first divergence --
        a missed membership event (a writer bypassing the overlay's
        event API) is a bug, not a condition to tolerate.
        """
        counters.verify_checks += 1
        problems: List[str] = []
        extra = set(self._entries) - set(overlay.peers)
        if extra:
            problems.append(f"entries for departed peers: {sorted(extra)[:5]}")
        for peer_id, peer in overlay.peers.items():
            entry = self._entries.get(peer_id)
            if entry is None:
                problems.append(f"missing entry: {peer_id}")
                continue
            admissible = overlay.admissible(peer)
            eligible = bool(peer.alive) and peer.spare_capacity > 0 and admissible
            if entry.peer is not peer:
                problems.append(f"entry object drift: {peer_id}")
            if (entry.region, entry.asn, entry.address) != (
                peer.region,
                peer.asn,
                peer.address,
            ):
                problems.append(f"identity drift: {peer_id}")
            if entry.depth != peer.depth or entry.spare != peer.spare_capacity:
                problems.append(
                    f"stale key for {peer_id}: cached "
                    f"(depth={entry.depth}, spare={entry.spare}) vs live "
                    f"(depth={peer.depth}, spare={peer.spare_capacity})"
                )
            if entry.admissible != admissible or entry.eligible != eligible:
                problems.append(f"eligibility drift: {peer_id}")
            in_region = (
                entry.peer.peer_id in self._region_bucket(entry.region).pos
            )
            if in_region != eligible:
                problems.append(f"region-bucket membership drift: {peer_id}")
            if entry.asn:
                in_asn = entry.peer.peer_id in self._asn_bucket(entry.asn).pos
                if in_asn != eligible:
                    problems.append(f"asn-bucket membership drift: {peer_id}")
            if problems and len(problems) >= 8:
                break
        expected_eligible = sum(len(b) for b in self._by_region.values())
        if expected_eligible != self._eligible_count:
            problems.append(
                f"eligible_count {self._eligible_count} != bucket total {expected_eligible}"
            )
        for name, bucket in self._by_region.items():
            for index, peer_id in enumerate(bucket.members):
                if bucket.pos.get(peer_id) != index:
                    problems.append(f"randomized-set corruption in region {name!r}")
                    break
        if problems:
            raise OverlayError(
                "candidate index diverged from overlay "
                f"{overlay.channel_id!r}: " + "; ".join(problems[:8])
            )
