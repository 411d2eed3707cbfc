"""Per-channel overlay: registry, tree construction, repair, sampling.

One :class:`ChannelOverlay` corresponds to one broadcast channel's P2P
network (Section III: "each broadcast channel is carried over its own
P2P overlay network").  The overlay's root is the Channel Server,
modelled as a :class:`SourcePeer` that admits joiners with the same
Channel-Ticket checks as any peer, rotates the content key on
schedule, and pushes packets/keys down the tree.

The overlay also provides the Channel Manager's peer-list sampler --
the unsigned list of candidate parents returned in SWITCH2 -- and the
churn-repair path: when a peer leaves, its orphaned children re-join
through fresh candidates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.channel_server import ChannelServer
from repro.core.keystream import ContentKeyRing
from repro.core.protocol import JoinAccept, PeerDescriptor
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import RsaPublicKey
from repro.errors import CapacityError, OverlayError
from repro.p2p.index import CandidateIndex
from repro.p2p.peer import Peer
from repro.p2p.scorecard import DEPTH_LIE
from repro.p2p.substreams import ParentPlan, SubstreamAssignment


class _SourceEndpoint:
    """Adapter giving the Channel Server the slice of the Client
    interface that :class:`Peer` needs (address, key ring, no-ops)."""

    def __init__(self, server: ChannelServer, address: str) -> None:
        self._server = server
        self.net_addr = address
        self.key_ring = ContentKeyRing()

    def receive_packet(self, packet) -> bytes:  # pragma: no cover - trivial
        return b""

    def receive_key_update(self, update, parent_id: str) -> bool:  # pragma: no cover
        raise OverlayError("the source has no parents")

    def drop_parent(self, peer_id: str) -> None:  # pragma: no cover - trivial
        pass


class SourcePeer(Peer):
    """The overlay root: the Channel Server in peer clothing.

    Key material comes straight from the server's schedule rather than
    from a parent, and :meth:`tick` drives rotation: once the upcoming
    key enters its lead window it is pushed down the whole tree.
    """

    def __init__(
        self,
        server: ChannelServer,
        address: str,
        cm_public_key: RsaPublicKey,
        drbg: HmacDrbg,
        capacity: int = 16,
        region: str = "dc",
    ) -> None:
        endpoint = _SourceEndpoint(server, address)
        super().__init__(
            peer_id=f"source:{server.channel_id}",
            client=endpoint,  # type: ignore[arg-type]
            channel_id=server.channel_id,
            cm_public_key=cm_public_key,
            drbg=drbg,
            capacity=capacity,
            region=region,
        )
        self.server = server
        self._pushed_serials: set = set()

    def current_content_key(self, now: float):
        """Joiners get the server's live key, not a ring lookup."""
        return self.server.current_key(now)

    def tick(self, now: float) -> int:
        """Rotate/push keys that have entered their distribution window.

        Returns the number of link messages generated.  Idempotent per
        serial: each key is pushed once.
        """
        sent = 0
        for content_key in self.server.keys_for_join(now):
            marker = (content_key.serial, content_key.activate_at)
            if marker in self._pushed_serials:
                continue
            self._pushed_serials.add(marker)
            sent += self.push_key_to_children(content_key, now)
        return sent

    def broadcast_packet(self, now: float, substream_count: int = 1) -> int:
        """Emit one encrypted packet from the server and forward it."""
        packet = self.server.emit_packet(now)
        return self.forward_packet(packet, substream_count)

    def broadcast_packets(
        self, now: float, count: int, substream_count: int = 1
    ) -> int:
        """Emit and forward a whole batch of packets (e.g. one GOP).

        The server seals all ``count`` frames in one batched call
        (:meth:`~repro.core.channel_server.ChannelServer.emit_packets`),
        then each packet is forwarded down the tree.  Returns the total
        number of child deliveries across the batch.
        """
        reached = 0
        for packet in self.server.emit_packets(now, count):
            reached += self.forward_packet(packet, substream_count)
        return reached


@dataclass(frozen=True)
class RepairRecord:
    """One orphan's outcome during churn repair (see ``remove_peer``)."""

    orphan_id: str
    parent_id: Optional[str]  # None = repair failed, peer stays orphaned
    attempts: int
    same_region: bool


#: Churn-repair hook: (overlay, orphan, accept, count) -> ordered
#: descriptors.  The selector builds its own candidate set (from the
#: overlay's candidate index), filtered through ``accept`` -- the
#: overlay's source-connectivity probe -- so repair never needs an
#: O(n) eligible scan.
RepairSelector = Callable[
    ["ChannelOverlay", Peer, Callable[[Peer], bool], int], List[PeerDescriptor]
]


class BoundedLog:
    """A ring buffer with list semantics plus drop accounting.

    The repair log used to be a bare ``List[RepairRecord]``, which a
    week-long storm grows without limit.  This keeps the most recent
    ``maxlen`` records, counts what it sheds (``dropped``), and tracks
    the all-time append count (``total``) so windowed consumers can
    mark a position with ``mark = log.total`` and later drain
    ``log.since(mark)`` -- correct even when the window's oldest
    records were dropped in between (unlike a ``len()`` mark, which
    shifts as the ring sheds).
    """

    def __init__(self, maxlen: int = 10_000) -> None:
        if maxlen <= 0:
            raise ValueError("maxlen must be positive")
        self.maxlen = maxlen
        self._records: List = []
        #: Records shed to honor ``maxlen`` (oldest-first).
        self.dropped = 0
        #: All-time appends (surviving + dropped).
        self.total = 0

    def append(self, record) -> None:
        self._records.append(record)
        self.total += 1
        overflow = len(self._records) - self.maxlen
        if overflow > 0:
            del self._records[:overflow]
            self.dropped += overflow

    def since(self, mark: int) -> List:
        """Records appended after ``total`` was ``mark``.

        If the ring already shed part of that window, the surviving
        suffix is returned (the caller can detect shortfall by
        comparing ``len(result)`` against ``log.total - mark``).
        """
        wanted = self.total - mark
        if wanted <= 0:
            return []
        if wanted >= len(self._records):
            return list(self._records)
        return self._records[len(self._records) - wanted :]

    def clear(self) -> None:
        self._records.clear()

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def __getitem__(self, index):
        return self._records[index]

    def __bool__(self) -> bool:
        return bool(self._records)


class ChannelOverlay:
    """All peers carrying one channel, rooted at the Channel Server."""

    def __init__(
        self,
        server: ChannelServer,
        cm_public_key: RsaPublicKey,
        drbg: HmacDrbg,
        rng: random.Random,
        source_address: str = "10.0.0.1",
        source_capacity: int = 16,
        substream_count: int = 1,
    ) -> None:
        self.channel_id = server.channel_id
        self.substreams = SubstreamAssignment(substream_count)
        self.source = SourcePeer(
            server,
            address=source_address,
            cm_public_key=cm_public_key,
            drbg=drbg.fork(b"source"),
            capacity=source_capacity,
        )
        self._rng = rng
        self.peers: Dict[str, Peer] = {}
        self.plans: Dict[str, ParentPlan] = {}
        self.join_attempts = 0
        self.repairs = 0
        #: Per-overlay jitter salt for the deterministic ranking
        #: tiebreak (:func:`repro.p2p.index.stable_jitter`).  Derived
        #: from the overlay's own DRBG fork *after* the source fork so
        #: adding it shifted no pre-existing key material.
        self.selection_salt = drbg.fork(b"selection-salt").generate(16)
        #: The incrementally-maintained candidate index.  The overlay
        #: is its single writer: registration, departure, capacity
        #: deltas, depth heartbeats, and quarantine transitions all
        #: publish updates (peers carry a ``membership_listener`` that
        #: routes back here).  Selection providers read it via
        #: ``overlay.index``; ``verify_against(overlay)`` self-checks.
        self.index = CandidateIndex(salt=self.selection_salt)
        #: When set, churn repair ranks its candidates through this hook
        #: (see :data:`RepairSelector`; the deployment wires the same
        #: locality/capacity ranking that builds SWITCH2 lists).
        #: None = uniform draw from the candidate index.
        self.repair_selector: Optional[RepairSelector] = None
        #: One record per orphan processed by :meth:`remove_peer`; the
        #: flash-crowd driver drains this to price repair time.  Bounded:
        #: long storms shed the oldest records (``repair_log.dropped``
        #: counts the shed) instead of growing without limit.
        self.repair_log = BoundedLog(maxlen=10_000)
        #: Shared PeerScorecard, attached by
        #: Deployment.enable_misbehavior_detection().  When present,
        #: quarantined peers are excluded from peer lists and repair
        #: candidates, and :meth:`contain` evicts them.  A property:
        #: attaching subscribes the candidate index to quarantine and
        #: release transitions.
        self._scorecard = None

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def register_peer(self, peer: Peer) -> None:
        """Add a ticketed peer to the overlay registry.

        Registration makes the overlay the peer's membership-event
        sink: every subsequent capacity/depth/liveness change the peer
        publishes flows into the candidate index.  Idempotent (churn
        repair re-registers orphans that never left)."""
        if peer.channel_id != self.channel_id:
            raise OverlayError(
                f"peer carries {peer.channel_id!r}, overlay is {self.channel_id!r}"
            )
        self.peers[peer.peer_id] = peer
        if self._scorecard is not None:
            peer.scorecard = self._scorecard
            self._scorecard.note_address(peer.peer_id, peer.address)
        peer.membership_listener = self._on_membership_event
        self.index.add_peer(peer, admissible=self.admissible(peer))

    @property
    def scorecard(self):
        return self._scorecard

    @scorecard.setter
    def scorecard(self, value) -> None:
        if value is self._scorecard:
            return
        old = self._scorecard
        self._scorecard = value
        if old is not None:
            old.remove_listener(self._on_quarantine_event)
        if value is not None:
            value.add_listener(self._on_quarantine_event)
        # Attaching (or swapping) a detection plane can change any
        # member's admissibility: refresh the index's cached flags.
        for peer in self.peers.values():
            self.index.set_admissible(peer.peer_id, self.admissible(peer))

    def _on_membership_event(self, peer: Peer) -> None:
        """A registered peer's rankable state changed; index absorbs it."""
        self.index.update_peer(peer)

    def _on_quarantine_event(self, peer_id: str, quarantined: bool) -> None:
        if peer_id in self.peers:
            self.index.set_admissible(peer_id, not quarantined)

    def admissible(self, peer: Peer) -> bool:
        """False when the detection plane has quarantined this peer."""
        return self._scorecard is None or not self._scorecard.is_quarantined(
            peer.peer_id
        )

    def lookup(self, peer_id: str) -> Peer:
        """Resolve a peer id (including the source)."""
        if peer_id == self.source.peer_id:
            return self.source
        peer = self.peers.get(peer_id)
        if peer is None:
            raise OverlayError(f"unknown peer: {peer_id}")
        return peer

    @property
    def size(self) -> int:
        """Number of member peers (excluding the source)."""
        return len(self.peers)

    # ------------------------------------------------------------------
    # Peer-list sampling (plugs into the Channel Manager)
    # ------------------------------------------------------------------

    def sample_peers(
        self, channel_id: str, exclude_addr: str, count: int
    ) -> List[PeerDescriptor]:
        """Candidate parents for a joiner: spare capacity, not itself.

        Matches the :data:`~repro.core.channel_manager.PeerListProvider`
        signature.  The source is included as a last-resort candidate
        (early joiners have nobody else).
        """
        if channel_id != self.channel_id or count <= 0:
            return []
        # The index's randomized member sets make this O(count): a
        # uniform sample without replacement, not a full-membership
        # shuffle.  One extra candidate is drawn beyond the source's
        # reserved slot so a saturated source does not shorten the list.
        candidates = self.index.sample_eligible(
            self._rng, count, exclude_addr=exclude_addr
        )
        chosen = candidates[: max(0, count - 1)]
        descriptors = [peer.descriptor() for peer in chosen]
        if self.source.spare_capacity > 0:
            descriptors.append(self.source.descriptor())
        # The slot held back for the source must not shorten the list
        # when the source is saturated: top back up to ``count`` from
        # the candidates that did not make the first cut.
        for peer in candidates[len(chosen):]:
            if len(descriptors) >= count:
                break
            descriptors.append(peer.descriptor())
        return descriptors[:count]

    # ------------------------------------------------------------------
    # Join orchestration
    # ------------------------------------------------------------------

    def join(
        self,
        peer: Peer,
        candidates: Sequence[PeerDescriptor],
        now: float,
    ) -> "tuple[Peer, int]":
        """Walk the peer list until a parent accepts; wire the link.

        Returns (parent, attempts).  Raises :class:`CapacityError` when
        every candidate refuses -- the client would then go back to the
        Channel Manager for a fresh list.
        """
        # A *fresh* join (the peer is not currently a member) must not
        # inherit a plan from a prior failed/partial attempt: stale
        # sub-stream mappings would point at parents that never accepted
        # this time, and the gap-filling below would silently keep them.
        # Orphan repair (peer still registered) relies on gap-filling
        # and is left untouched.
        if peer.peer_id not in self.peers:
            self._discard_stale_plan(peer)
        attempts = 0
        for descriptor in candidates:
            try:
                target = self.lookup(descriptor.peer_id)
            except OverlayError:
                continue  # candidate churned away since the list was made
            if not target.alive:
                continue
            attempts += 1
            self.join_attempts += 1
            try:
                accept = peer.client.join_peer(target, now)
            except CapacityError:
                continue
            assert isinstance(accept, JoinAccept)
            target.bind_child_peer(peer.client.channel_ticket.user_id, peer)
            self.register_peer(peer)
            peer.depth = target.depth + 1
            plan = self.plans.setdefault(
                peer.peer_id, ParentPlan(assignment=self.substreams)
            )
            for substream in self.substreams.substreams():
                if plan.parent_of(substream) is None:
                    plan.assign(substream, target.peer_id)
            target.set_child_substreams(
                peer.client.channel_ticket.user_id,
                plan.substreams_from(target.peer_id),
            )
            return target, attempts
        raise CapacityError(
            f"no candidate accepted peer {peer.peer_id} after {attempts} attempts"
        )

    def join_via_channel_manager(self, peer: Peer, peers: Sequence[PeerDescriptor], now: float):
        """Convenience alias used by examples: join off a SWITCH2 list."""
        return self.join(peer, peers, now)

    def join_multiparent(
        self,
        peer: Peer,
        candidates: Sequence[PeerDescriptor],
        now: float,
        max_parents: Optional[int] = None,
    ) -> "tuple[List[Peer], int]":
        """Receiver-based peer-division multiplexing join (ref [6]).

        Spreads the channel's sub-streams over up to ``max_parents``
        distinct parents (default: one per sub-stream when possible).
        Each parent link runs the full JOIN admission -- the Channel
        Ticket is presented once per parent, and per Section IV-E the
        peer will consequently receive each rotating content key once
        per parent, discarding duplicates by serial.

        Returns (parents, attempts).  Falls back to fewer parents when
        candidates run out; raises :class:`CapacityError` only if *no*
        parent accepted.
        """
        substream_count = self.substreams.count
        target_parents = min(
            max_parents or substream_count, substream_count, max(1, len(candidates))
        )
        # A (re)join starts from a clean slate: a plan left over from a
        # prior failed or partial attempt would keep sub-streams mapped
        # to a parent that never accepted this time.  The fresh plan is
        # only installed below once at least one parent has accepted, so
        # a fully refused join leaves no ghost entry behind either.
        self._discard_stale_plan(peer)
        plan = ParentPlan(assignment=self.substreams)
        parents: List[Peer] = []
        attempts = 0
        user_id = peer.client.channel_ticket.user_id
        for descriptor in candidates:
            if len(parents) >= target_parents:
                break
            try:
                target = self.lookup(descriptor.peer_id)
            except OverlayError:
                continue
            if any(p.peer_id == target.peer_id for p in parents):
                continue
            attempts += 1
            self.join_attempts += 1
            try:
                peer.client.join_peer(target, now)
            except CapacityError:
                continue
            target.bind_child_peer(user_id, peer)
            parents.append(target)
        if not parents:
            raise CapacityError(
                f"no candidate accepted peer {peer.peer_id} after {attempts} attempts"
            )
        self.register_peer(peer)
        self.plans[peer.peer_id] = plan
        peer.depth = 1 + min(parent.depth for parent in parents)
        # Distribute sub-streams over the accepted parents weighted by
        # their remaining upload capacity: every parent carries at least
        # one sub-stream (it admitted the join and holds a child slot),
        # the rest go preferentially to parents with spare uplink.  With
        # equal capacities this degenerates to the former round-robin.
        quotas = self._substream_quotas(parents, substream_count)
        cursor = 0
        for substream in self.substreams.substreams():
            while quotas[cursor % len(parents)] <= 0:
                cursor += 1
            plan.assign(substream, parents[cursor % len(parents)].peer_id)
            quotas[cursor % len(parents)] -= 1
            cursor += 1
        for parent in parents:
            parent.set_child_substreams(user_id, plan.substreams_from(parent.peer_id))
        return parents, attempts

    @staticmethod
    def _substream_quotas(parents: List[Peer], substream_count: int) -> List[int]:
        """How many sub-streams each accepted parent should carry.

        Each parent gets one; the remainder is split proportionally to
        remaining upload capacity (largest-remainder rounding, ties by
        acceptance order so the result is deterministic).
        """
        quotas = [1] * len(parents)
        extra = substream_count - len(parents)
        if extra <= 0:
            return quotas
        weights = [max(1, parent.spare_capacity + 1) for parent in parents]
        total = float(sum(weights))
        shares = [extra * weight / total for weight in weights]
        floors = [int(share) for share in shares]
        for index, floor in enumerate(floors):
            quotas[index] += floor
        remainder_order = sorted(
            range(len(parents)),
            key=lambda index: (floors[index] - shares[index], index),
        )
        for index in remainder_order[: extra - sum(floors)]:
            quotas[index] += 1
        return quotas

    def _discard_stale_plan(self, peer: Peer) -> None:
        """Forget a peer's previous parent plan and detach its links.

        Any parent still holding a child link from the discarded plan
        would otherwise keep feeding keys/packets to a join attempt
        that superseded it.
        """
        stale = self.plans.pop(peer.peer_id, None)
        if stale is None:
            return
        ticket = peer.client.channel_ticket
        if ticket is None:
            return
        for parent_id in set(stale.parents.values()):
            try:
                self.lookup(parent_id).detach_child_link(ticket.user_id)
            except OverlayError:
                continue  # parent already churned away

    # ------------------------------------------------------------------
    # Churn and repair
    # ------------------------------------------------------------------

    def remove_peer(self, peer_id: str, now: float) -> List[str]:
        """A peer leaves; orphaned children re-join through fresh lists.

        Returns the ids of repaired (re-parented) peers.  A child that
        cannot find a parent stays orphaned and is reported by
        :meth:`orphans`.
        """
        peer = self.peers.pop(peer_id, None)
        if peer is None:
            raise OverlayError(f"unknown peer: {peer_id}")
        self.index.remove_peer(peer_id)
        peer.membership_listener = None
        departing_plan = self.plans.pop(peer_id, None)
        # Detach the departing peer from its parents' children maps --
        # otherwise the stale links keep feeding it keys/packets and,
        # worse, a later parent departure would hand the dead peer to
        # the repair machinery as an "orphan".
        if departing_plan is not None and peer.client.channel_ticket is not None:
            departing_uid = peer.client.channel_ticket.user_id
            for parent_id in set(departing_plan.parents.values()):
                try:
                    self.lookup(parent_id).detach_child_link(departing_uid)
                except OverlayError:
                    continue  # parent itself already gone
        orphans = peer.leave()
        repaired: List[str] = []
        for orphan in orphans:
            plan = self.plans.get(orphan.peer_id)
            if plan is not None:
                plan.drop_parent(peer_id)
            # Only source-reachable candidates are safe parents: wiring
            # two simultaneous orphans to each other (or to a detached
            # descendant) would orphan an island.  The probe answers
            # per-candidate reachability by walking parent links up
            # toward the source with memoization -- O(depth) per
            # candidate instead of the former per-orphan O(n) BFS.
            # Fresh per orphan: each repair rewires the graph.
            probe = self._connectivity_probe()

            def accept(member: Peer, _probe=probe) -> bool:
                return _probe(member.peer_id)

            if self.repair_selector is not None:
                # Repair reuses the same locality/capacity ranking that
                # built the orphan's original SWITCH2 list, drawn from
                # the candidate index.
                candidates = list(
                    self.repair_selector(self, orphan, accept, 16)
                )
            else:
                candidates = [
                    member.descriptor()
                    for member in self.index.sample_eligible(
                        self._rng, 16, exclude_addr=orphan.address, accept=accept
                    )
                ]
            if self.source.spare_capacity > 0:
                candidates.append(self.source.descriptor())
            attempts_before = self.join_attempts
            try:
                parent, attempts = self.join(orphan, candidates, now)
                self.repairs += 1
                repaired.append(orphan.peer_id)
                self.repair_log.append(
                    RepairRecord(
                        orphan_id=orphan.peer_id,
                        parent_id=parent.peer_id,
                        attempts=attempts,
                        same_region=parent.region == orphan.region,
                    )
                )
            except CapacityError:
                self.repair_log.append(
                    RepairRecord(
                        orphan_id=orphan.peer_id,
                        parent_id=None,
                        attempts=self.join_attempts - attempts_before,
                        same_region=False,
                    )
                )
        return repaired

    def _connectivity_probe(self) -> Callable[[str], bool]:
        """A memoized source-reachability oracle over parent links.

        ``probe(peer_id)`` is True when an upward chain of live,
        link-validated parent edges (the peer's plan entry *and* the
        parent's matching child link -- the same edges BFS follows
        downward) reaches the source.  Each query walks only the
        ancestor closure not already memoized, so a repair pass over k
        candidates costs O(sum of unexplored ancestor paths) instead
        of k full-overlay BFS traversals.
        """
        source_id = self.source.peer_id
        memo: Dict[str, bool] = {}

        def parents_of(peer_id: str) -> List[str]:
            plan = self.plans.get(peer_id)
            child = self.peers.get(peer_id)
            if plan is None or child is None:
                return []
            # Parents key their child links by the child's user id, so
            # the link check is one dict lookup, not a children scan.
            # A client that dropped its Channel Ticket (it moved away)
            # holds no valid link.
            ticket = child.client.channel_ticket
            if ticket is None:
                return []
            out: List[str] = []
            for parent_id in set(plan.parents.values()):
                holder = (
                    self.source
                    if parent_id == source_id
                    else self.peers.get(parent_id)
                )
                if holder is None or not holder.alive:
                    continue
                link = holder.children.get(ticket.user_id)
                if link is not None and link.child_peer is child:
                    out.append(parent_id)
            return out

        def connected(target: str) -> bool:
            cached = memo.get(target)
            if cached is not None:
                return cached
            # Upward DFS from the target; reaching the source (or a
            # memo-True ancestor) proves every node on the discovery
            # path connected.  Exhausting the search proves every
            # up-reachable node disconnected (their entire upward
            # closure was explored), so both outcomes memoize.
            pred: Dict[str, Optional[str]] = {target: None}
            stack = [target]
            hit: Optional[str] = None
            while stack and hit is None:
                peer_id = stack.pop()
                for parent_id in parents_of(peer_id):
                    if parent_id == source_id or memo.get(parent_id):
                        hit = peer_id
                        break
                    if memo.get(parent_id) is False or parent_id in pred:
                        continue
                    pred[parent_id] = peer_id
                    stack.append(parent_id)
            if hit is None:
                for peer_id in pred:
                    memo[peer_id] = False
                return False
            node: Optional[str] = hit
            while node is not None:
                memo[node] = True
                node = pred[node]
            return True

        return connected

    def orphans(self) -> List[str]:
        """Peers with incomplete parent plans (need repair)."""
        return [
            peer_id
            for peer_id, plan in self.plans.items()
            if peer_id in self.peers and not plan.complete
        ]

    # ------------------------------------------------------------------
    # Byzantine containment
    # ------------------------------------------------------------------

    def contain(self, now: float) -> List[str]:
        """Evict quarantined members; returns the evicted peer ids.

        Eviction reuses :meth:`remove_peer`, so each evicted peer's
        children re-join through the ranked repair path -- which
        excludes quarantined candidates (:meth:`admissible`), so
        repair routes around the adversary by construction.  Run this
        periodically (the chaos rigs sweep once per key epoch).
        """
        if self.scorecard is None:
            return []
        evicted: List[str] = []
        for peer_id in sorted(self.scorecard.quarantined()):
            if peer_id not in self.peers:
                continue
            repaired = self.remove_peer(peer_id, now)
            evicted.append(peer_id)
            self.scorecard.counters.peers_evicted += 1
            self.scorecard.counters.eviction_repairs += len(repaired)
            self.scorecard.events.append((now, "evict", peer_id))
            if self.scorecard.tracer is not None:
                span = self.scorecard.tracer.start_span(
                    "ADVERSARY.evict", now=now, kind="adversary"
                )
                span.annotate("peer", peer_id)
                span.annotate("children_repaired", len(repaired))
                self.scorecard.tracer.finish(span, now=now)
        return evicted

    def audit_depths(self, now: float, tolerance: int = 1) -> List[str]:
        """Cross-check advertised depths against the measured tree.

        A peer claiming to sit *shallower* than the BFS truth by more
        than ``tolerance`` hops is gaming parent selection (ranked
        lists prefer shallow parents) and is reported as a depth liar.
        Claiming deeper is self-defeating and not flagged.  The
        tolerance absorbs honest heartbeat lag: a peer re-parented
        since its last key epoch is up to one refresh stale.
        """
        if self.scorecard is None:
            return []
        measured = self.depths()
        flagged: List[str] = []
        for peer_id, true_depth in measured.items():
            peer = self.peers.get(peer_id)
            if peer is None:
                continue
            if true_depth - peer.depth > tolerance:
                self.scorecard.report(peer_id, DEPTH_LIE, now=now)
                flagged.append(peer_id)
        return flagged

    # ------------------------------------------------------------------
    # Invariants and stats
    # ------------------------------------------------------------------

    def check_tree(self) -> None:
        """Assert reachability from the source and acyclicity.

        Raises :class:`OverlayError` on violation.  Only single-parent
        overlays form strict trees; with sub-streams the structure is a
        DAG, and this check verifies reachability plus absence of
        directed cycles.
        """
        visited: set = set()
        stack = [self.source]
        while stack:
            node = stack.pop()
            if node.peer_id in visited:
                continue
            visited.add(node.peer_id)
            for link in node.children.values():
                if link.child_peer is not None:
                    stack.append(link.child_peer)
        unreachable = [pid for pid in self.peers if pid not in visited]
        if unreachable:
            raise OverlayError(f"peers unreachable from source: {unreachable}")
        # Cycle check: depth-first from source with a recursion marker.
        in_progress: set = set()
        done: set = set()

        def visit(node: Peer) -> None:
            if node.peer_id in done:
                return
            if node.peer_id in in_progress:
                raise OverlayError(f"cycle through {node.peer_id}")
            in_progress.add(node.peer_id)
            for link in node.children.values():
                if link.child_peer is not None:
                    visit(link.child_peer)
            in_progress.discard(node.peer_id)
            done.add(node.peer_id)

        visit(self.source)

    def depths(self) -> Dict[str, int]:
        """Hop distance of every reachable peer from the source."""
        result: Dict[str, int] = {}
        frontier = [(self.source, 0)]
        while frontier:
            node, depth = frontier.pop()
            for link in node.children.values():
                child = link.child_peer
                if child is None or child.peer_id in result:
                    continue
                result[child.peer_id] = depth + 1
                frontier.append((child, depth + 1))
        return result

    def enforce_expiry(self, now: float, grace: float = 0.0) -> int:
        """Run ticket-expiry enforcement at every peer; returns severed count."""
        severed = 0
        for node in [self.source, *list(self.peers.values())]:
            severed += len(node.enforce_ticket_expiry(now, grace))
        return severed
