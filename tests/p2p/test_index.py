"""Tests for the incrementally-maintained candidate index.

Unit tests drive :class:`~repro.p2p.index.CandidateIndex` directly
with stub peers (no crypto, no overlay) to pin the bucket/heap
mechanics: eligibility transitions, lazy deletion, bucket moves,
uniform sampling, compaction, and ``verify_against`` actually
catching injected divergence.  Integration tests then run the real
overlay through the event paths the ROADMAP worried about -- a
near-root departure's repair cascade and an adversary eviction
sweep -- and assert the index never drifts.
"""

import random

import pytest

from repro.deployment import Deployment
from repro.errors import OverlayError
from repro.metrics.selection import counters
from repro.p2p.index import CandidateIndex, stable_jitter
from repro.p2p.scorecard import POLLUTION
from tests.oracles.remote_gather import gather_top_remote


# ----------------------------------------------------------------------
# Stubs: the index only reads attributes, never calls peer methods.
# ----------------------------------------------------------------------


class StubPeer:
    def __init__(
        self,
        peer_id,
        region="CH",
        asn=1000,
        address=None,
        depth=1,
        spare=4,
        alive=True,
    ):
        self.peer_id = peer_id
        self.region = region
        self.asn = asn
        self.address = address or f"10.0.0.{abs(hash(peer_id)) % 250}"
        self.depth = depth
        self.spare_capacity = spare
        self.alive = alive


class StubRecord:
    """Just enough of a GeoRecord for top_local/top_remote."""

    def __init__(self, region="CH", asn=1000):
        self.region = region
        self.asn = asn


class StubOverlay:
    """Just enough of a ChannelOverlay for verify_against."""

    channel_id = "stub"

    def __init__(self, peers, quarantined=()):
        self.peers = {p.peer_id: p for p in peers}
        self._quarantined = set(quarantined)

    def admissible(self, peer):
        return peer.peer_id not in self._quarantined


def make_index(peers, quarantined=()):
    index = CandidateIndex(salt=b"test-salt")
    blocked = set(quarantined)
    for peer in peers:
        index.add_peer(peer, admissible=peer.peer_id not in blocked)
    return index


def ids(peers):
    return [p.peer_id for p in peers]


# ----------------------------------------------------------------------
# Ranked draws
# ----------------------------------------------------------------------


class TestRankedDraws:
    def test_same_as_before_same_region(self):
        peers = [
            StubPeer("region-mate", region="CH", asn=2000, depth=1, spare=8),
            StubPeer("as-mate", region="DE", asn=1000, depth=9, spare=1),
        ]
        index = make_index(peers)
        top = index.top_local(StubRecord("CH", 1000), count=2)
        # Same-AS wins even from another region and with a worse key.
        assert ids(top) == ["as-mate", "region-mate"]

    def test_rank_order_depth_then_spare(self):
        peers = [
            StubPeer("deep", depth=5, spare=8),
            StubPeer("shallow-full", depth=1, spare=1),
            StubPeer("shallow-spare", depth=1, spare=8),
        ]
        index = make_index(peers)
        top = index.top_local(StubRecord("CH", 1000), count=3)
        assert ids(top) == ["shallow-spare", "shallow-full", "deep"]

    def test_top_remote_excludes_requester_region_and_as(self):
        peers = [
            StubPeer("local", region="CH", asn=1000),
            StubPeer("as-abroad", region="DE", asn=1000),
            StubPeer("remote", region="DE", asn=2000),
        ]
        index = make_index(peers)
        remote = index.top_remote(StubRecord("CH", 1000), count=8)
        assert ids(remote) == ["remote"]

    def test_requester_address_excluded_but_stays_indexed(self):
        peers = [StubPeer("self", address="1.2.3.4"), StubPeer("other")]
        index = make_index(peers)
        record = StubRecord("CH", 1000)
        assert "self" not in ids(index.top_local(record, 8, exclude_addr="1.2.3.4"))
        # The filtered entry was pushed back, not dropped.
        assert "self" in ids(index.top_local(record, 8))

    def test_draw_filter_does_not_mutate_index(self):
        peers = [StubPeer(f"p{i}") for i in range(6)]
        index = make_index(peers)
        record = StubRecord("CH", 1000)
        only_even = index.top_local(
            record, 8, accept=lambda p: int(p.peer_id[1:]) % 2 == 0
        )
        # Equal-rank peers order by jitter, so compare membership.
        assert sorted(ids(only_even)) == ["p0", "p2", "p4"]
        assert len(index.top_local(record, 8)) == 6

    def test_repeated_draws_are_stable(self):
        peers = [StubPeer(f"p{i}", depth=i % 3, spare=1 + i % 2) for i in range(10)]
        index = make_index(peers)
        record = StubRecord("CH", 1000)
        first = ids(index.top_local(record, 5))
        assert all(ids(index.top_local(record, 5)) == first for _ in range(5))


# ----------------------------------------------------------------------
# The remote merge, pinned against the gather-and-sort oracle
# ----------------------------------------------------------------------

REMOTE_REGIONS = ("DE", "FR", "UK", "AT")


def churned_index(seed):
    """An index with a requester region (CH), four remote region
    buckets and ASNs shared across regions, churned so the heaps hold
    stale tuples: key changes, capacity exhaustion, quarantine,
    departures and region moves.  Rebuilt from ``seed`` so two copies
    hold identical state."""
    rng = random.Random(seed)
    peers = [
        StubPeer(
            f"p{i:03d}",
            region=rng.choice(("CH",) + REMOTE_REGIONS),
            asn=rng.choice((1000, 2000, 3000, 4000)),
            address=f"10.1.{i // 250}.{i % 250}",
            depth=rng.randrange(4),
            spare=rng.randrange(1, 4),
        )
        for i in range(90)
    ]
    index = make_index(peers)
    for _ in range(150):
        peer = rng.choice(peers)
        roll = rng.random()
        if roll < 0.5:
            peer.depth = rng.randrange(4)
            peer.spare_capacity = rng.randrange(0, 4)
            index.update_peer(peer)
        elif roll < 0.7:
            index.set_admissible(peer.peer_id, rng.random() < 0.5)
        elif roll < 0.8:
            peer.region = rng.choice(REMOTE_REGIONS)
            index.update_peer(peer)
        else:
            index.remove_peer(peer.peer_id)
    return index, peers


class TestRemoteMerge:
    def test_merge_matches_gather_oracle(self):
        for seed in range(6):
            merged, peers = churned_index(seed)
            gathered, _ = churned_index(seed)
            assert sum(len(merged._by_region[r].heap) for r in REMOTE_REGIONS) > sum(
                len(merged._by_region[r]) for r in REMOTE_REGIONS
            ), "the churn must leave stale tuples in the remote heaps"
            rejected = {p.peer_id for p in peers[::3]}
            draws = [
                dict(),
                dict(exclude_addr=peers[7].address),
                dict(accept=lambda p: p.peer_id not in rejected),
                dict(exclude_addr=peers[11].address, accept=lambda p: p.depth != 1),
                dict(accept=lambda p: False),
            ]
            for record in (StubRecord("CH", 1000), StubRecord("DE", 3000), None):
                for kwargs in draws:
                    for count in (0, 1, 3, 8, 200):
                        expected = ids(
                            gather_top_remote(gathered, record, count, **kwargs)
                        )
                        # Twice: the first draw must push back what it popped.
                        for _ in range(2):
                            got = ids(merged.top_remote(record, count, **kwargs))
                            assert got == expected, (seed, kwargs, count)

    def test_merge_examines_exactly_count_when_clean(self):
        peers = [
            StubPeer(
                f"r{i:02d}",
                region=REMOTE_REGIONS[i % 4],
                asn=2000 + i % 4,
                address=f"10.2.0.{i}",
                depth=i % 3,
            )
            for i in range(40)
        ]
        index = make_index(peers)  # fresh: one valid tuple per peer
        before = counters.snapshot()
        remote = index.top_remote(StubRecord("CH", 1000), 8)
        after = counters.snapshot()
        assert len(remote) == 8
        assert after["candidates_considered"] - before["candidates_considered"] == 8
        assert after["stale_entries_skipped"] == before["stale_entries_skipped"]


# ----------------------------------------------------------------------
# Membership events
# ----------------------------------------------------------------------


class TestMembershipEvents:
    def test_zero_spare_leaves_the_buckets(self):
        peer = StubPeer("p1", spare=1)
        index = make_index([peer])
        assert index.eligible_count == 1
        peer.spare_capacity = 0
        index.update_peer(peer)
        assert index.eligible_count == 0
        assert index.top_local(StubRecord("CH", 1000), 8) == []
        peer.spare_capacity = 2
        index.update_peer(peer)
        assert ids(index.top_local(StubRecord("CH", 1000), 8)) == ["p1"]

    def test_key_change_reorders_via_lazy_deletion(self):
        a, b = StubPeer("a", depth=1), StubPeer("b", depth=2)
        index = make_index([a, b])
        record = StubRecord("CH", 1000)
        assert ids(index.top_local(record, 2)) == ["a", "b"]
        before = counters.stale_entries_skipped
        a.depth = 5
        index.update_peer(a)
        assert ids(index.top_local(record, 2)) == ["b", "a"]
        # The outdated heap tuple for "a" was recognized and skipped.
        assert counters.stale_entries_skipped > before

    def test_remove_peer_forgets_entirely(self):
        peers = [StubPeer("a"), StubPeer("b")]
        index = make_index(peers)
        index.remove_peer("a")
        assert len(index) == 1
        assert ids(index.top_local(StubRecord("CH", 1000), 8)) == ["b"]
        # Removing again is a no-op, not an error.
        index.remove_peer("a")

    def test_quarantine_round_trip(self):
        peer = StubPeer("p1")
        index = make_index([peer])
        index.set_admissible("p1", False)
        assert index.eligible_count == 0
        index.set_admissible("p1", True)
        assert ids(index.top_local(StubRecord("CH", 1000), 8)) == ["p1"]

    def test_bucket_move_follows_region_and_as_edits(self):
        peer = StubPeer("mover", region="CH", asn=1000)
        index = make_index([peer, StubPeer("anchor", region="CH", asn=1000)])
        peer.region, peer.asn = "DE", 2000
        index.update_peer(peer)
        assert ids(index.top_remote(StubRecord("CH", 1000), 8)) == ["mover"]
        assert "mover" not in ids(index.top_local(StubRecord("CH", 1000), 8))
        index.verify_against(StubOverlay([peer, index._entries["anchor"].peer]))

    def test_add_peer_is_idempotent(self):
        peer = StubPeer("p1")
        index = make_index([peer])
        index.add_peer(peer, admissible=True)
        assert len(index) == 1
        assert index.eligible_count == 1


# ----------------------------------------------------------------------
# Uniform sampling
# ----------------------------------------------------------------------


class TestUniformSampling:
    def test_sample_without_replacement(self):
        peers = [StubPeer(f"p{i}", region="CH" if i % 2 else "DE") for i in range(40)]
        index = make_index(peers)
        rng = random.Random(7)
        sample = index.sample_eligible(rng, 10)
        assert len(sample) == 10
        assert len(set(ids(sample))) == 10

    def test_sample_region_stays_in_region(self):
        peers = [StubPeer(f"p{i}", region="CH" if i % 2 else "DE") for i in range(20)]
        index = make_index(peers)
        rng = random.Random(7)
        assert all(p.region == "CH" for p in index.sample_region(rng, "CH", 6))
        outside = index.sample_outside_region(rng, "CH", 6)
        assert all(p.region != "CH" for p in outside)

    def test_dense_draw_returns_everyone(self):
        peers = [StubPeer(f"p{i}") for i in range(5)]
        index = make_index(peers)
        sample = index.sample_eligible(random.Random(1), 5)
        assert sorted(ids(sample)) == [f"p{i}" for i in range(5)]

    def test_filter_heavy_draw_falls_back_not_short(self):
        # Only one acceptable peer among many: the rejection budget
        # blows and the dense path must still find it.
        peers = [StubPeer(f"p{i:03d}") for i in range(100)]
        index = make_index(peers)
        sample = index.sample_eligible(
            random.Random(3), 1, accept=lambda p: p.peer_id == "p099"
        )
        assert ids(sample) == ["p099"]


# ----------------------------------------------------------------------
# Heap hygiene
# ----------------------------------------------------------------------


class TestCompaction:
    def test_churned_heap_is_compacted(self):
        peers = [StubPeer(f"p{i}") for i in range(20)]
        index = make_index(peers)
        before = counters.rebuilds
        for round_no in range(40):
            for peer in peers:
                peer.spare_capacity = 1 + (round_no + hash(peer.peer_id)) % 7
                index.update_peer(peer)
        assert counters.rebuilds > before
        bucket = index._by_region["CH"]
        assert len(bucket.heap) <= max(64, 4 * len(bucket))


# ----------------------------------------------------------------------
# Self-check
# ----------------------------------------------------------------------


class TestVerifyAgainst:
    def test_clean_index_passes(self):
        peers = [StubPeer(f"p{i}") for i in range(10)]
        index = make_index(peers)
        index.verify_against(StubOverlay(peers))

    def test_detects_unpublished_key_change(self):
        peers = [StubPeer("p1"), StubPeer("p2")]
        index = make_index(peers)
        peers[0].depth = 99  # mutated without update_peer: a missed event
        with pytest.raises(OverlayError, match="stale key"):
            index.verify_against(StubOverlay(peers))

    def test_detects_missing_entry(self):
        peers = [StubPeer("p1")]
        index = make_index([])
        with pytest.raises(OverlayError, match="missing entry"):
            index.verify_against(StubOverlay(peers))

    def test_detects_entry_for_departed_peer(self):
        peers = [StubPeer("p1"), StubPeer("ghost")]
        index = make_index(peers)
        with pytest.raises(OverlayError, match="departed"):
            index.verify_against(StubOverlay(peers[:1]))

    def test_detects_admissibility_drift(self):
        peers = [StubPeer("p1")]
        index = make_index(peers)
        with pytest.raises(OverlayError, match="eligibility drift"):
            index.verify_against(StubOverlay(peers, quarantined={"p1"}))

    def test_jitter_is_stable_and_salted(self):
        assert stable_jitter(b"s1", "p") == stable_jitter(b"s1", "p")
        assert stable_jitter(b"s1", "p") != stable_jitter(b"s2", "p")


# ----------------------------------------------------------------------
# Integration: the real overlay as single writer
# ----------------------------------------------------------------------


@pytest.fixture
def deployment():
    d = Deployment(seed=11, source_capacity=8)
    d.add_free_channel("live", regions=["CH", "DE"])
    return d


def audience(deployment, n, capacity=2, now=1.0):
    peers = []
    for i in range(n):
        region = "CH" if i % 2 == 0 else "DE"
        client = deployment.create_client(f"v{i}@example.org", "pw", region=region)
        client.login(now=now)
        peers.append(deployment.watch(client, "live", now=now, capacity=capacity))
    return peers


class TestOverlayIntegration:
    def test_joins_keep_index_synced(self, deployment):
        audience(deployment, 12)
        overlay = deployment.overlay("live")
        overlay.index.verify_against(overlay)
        assert len(overlay.index) == 12

    def test_near_root_departure_repair_cascade(self, deployment):
        """Removing a peer close to the source re-parents its whole
        subtree; every repair join mutates depths and capacities, and
        the index must absorb all of it."""
        audience(deployment, 16, capacity=2)
        overlay = deployment.overlay("live")
        depths = overlay.depths()
        victim = min(
            (pid for pid, peer in overlay.peers.items() if peer.children),
            key=lambda pid: depths[pid],
        )
        overlay.remove_peer(victim, now=5.0)
        overlay.check_tree()
        overlay.index.verify_against(overlay)
        assert victim not in overlay.peers
        assert overlay.orphans() == []

    def test_eviction_sweep_keeps_index_synced(self, deployment):
        scorecard = deployment.enable_misbehavior_detection()
        peers = audience(deployment, 10, capacity=3)
        overlay = deployment.overlay("live")
        bad = peers[2]
        for _ in range(4):
            scorecard.report(bad.peer_id, POLLUTION, now=6.0)
        assert scorecard.is_quarantined(bad.peer_id)
        # Quarantine flows to the index immediately: no draw serves it.
        listed = overlay.index.sample_eligible(random.Random(1), 20)
        assert bad.peer_id not in ids(listed)
        overlay.index.verify_against(overlay)
        evicted = deployment.contain_misbehavior(now=7.0)
        assert bad.peer_id in evicted["live"]
        overlay.check_tree()
        overlay.index.verify_against(overlay)

    def test_quarantine_release_restores_eligibility(self, deployment):
        scorecard = deployment.enable_misbehavior_detection()
        peers = audience(deployment, 6, capacity=3)
        overlay = deployment.overlay("live")
        # The last joiner has no children yet, so it keeps spare
        # capacity and release genuinely restores eligibility.
        target = peers[-1]
        for _ in range(4):
            scorecard.report(target.peer_id, POLLUTION, now=6.0)
        overlay.index.verify_against(overlay)
        scorecard.release(target.peer_id, now=8.0)
        assert target.peer_id in ids(
            overlay.index.sample_eligible(random.Random(2), 20)
        )
        overlay.index.verify_against(overlay)
