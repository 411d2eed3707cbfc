"""Tests for region-aware and ranked peer selection."""

import random

import pytest

from repro.deployment import Deployment
from repro.p2p.selection import (
    RankedPeerListProvider,
    RegionAwarePeerSampler,
    merge_with_quota,
)


@pytest.fixture
def populated():
    """A deployment with viewers split across CH and DE."""
    deployment = Deployment(seed=9, source_capacity=64)
    deployment.add_free_channel("intl", regions=["CH", "DE"])
    for i in range(10):
        region = "CH" if i % 2 == 0 else "DE"
        client = deployment.create_client(f"p{i}@example.org", "pw", region=region)
        client.login(now=0.0)
        deployment.watch(client, "intl", now=0.0, capacity=8)
    return deployment


def make_sampler(deployment, fraction=0.75):
    return RegionAwarePeerSampler(
        deployment.overlays, deployment.geo, random.Random(3), same_region_fraction=fraction
    )


class TestSampler:
    def test_prefers_same_region(self, populated):
        sampler = make_sampler(populated)
        addr = populated.geo.random_address("CH", random.Random(1))
        fraction = sampler.locality_fraction("intl", addr, count=6)
        assert fraction >= 0.5

    def test_includes_remote_fallback(self, populated):
        """Even with full preference, remote candidates appear when the
        local pool is too small."""
        sampler = make_sampler(populated, fraction=1.0)
        addr = populated.geo.random_address("US", random.Random(2))
        sample = sampler("intl", addr, count=6)
        assert sample  # US has no local peers; still served

    def test_excludes_requester(self, populated):
        sampler = make_sampler(populated)
        overlay = populated.overlays["intl"]
        victim = next(iter(overlay.peers.values()))
        sample = sampler("intl", victim.address, count=8)
        assert all(d.address != victim.address for d in sample)

    def test_respects_count(self, populated):
        sampler = make_sampler(populated)
        addr = populated.geo.random_address("CH", random.Random(4))
        assert len(sampler("intl", addr, count=3)) <= 3

    def test_unknown_channel_empty(self, populated):
        sampler = make_sampler(populated)
        assert sampler("ghost", "1.2.3.4", 8) == []

    def test_invalid_fraction_rejected(self, populated):
        with pytest.raises(ValueError):
            make_sampler(populated, fraction=1.5)

    def test_pluggable_into_channel_manager(self, populated):
        """End to end: SWITCH2's peer list is locality-biased."""
        populated.use_region_aware_sampling()
        client = populated.create_client("local@example.org", "pw", region="CH")
        client.login(now=1.0)
        response = client.switch_channel("intl", now=1.0)
        regions = [d.region for d in response.peers if not d.peer_id.startswith("source")]
        assert regions.count("CH") >= regions.count("DE")

    def test_joinable_list(self, populated):
        """The sampled list actually admits the joiner."""
        populated.use_region_aware_sampling()
        client = populated.create_client("joiner@example.org", "pw", region="DE")
        client.login(now=1.0)
        response = client.switch_channel("intl", now=1.0)
        peer = populated.make_peer(client, "intl")
        parent, attempts = populated.overlay("intl").join(peer, response.peers, now=2.0)
        assert attempts >= 1
        populated.overlay("intl").check_tree()


class TestTopUpRegression:
    """Regressions for the two historical list-length defects."""

    def test_short_local_side_fills_without_duplicates(self, populated):
        """``len(local) < local_quota``: the old leftover slice offset
        by the quota rather than by the remote peers actually taken,
        re-considering already-chosen peers behind an O(n^2) membership
        scan.  The merged list must hold every eligible candidate
        exactly once."""
        sampler = make_sampler(populated, fraction=1.0)
        addr = populated.geo.random_address("CH", random.Random(7))
        # 5 CH + 5 DE members; fraction 1.0 makes local_quota=9 > 5.
        sample = sampler("intl", addr, count=10)
        ids = [d.peer_id for d in sample]
        assert len(ids) == len(set(ids))
        assert len(sample) == 10  # 9 members + the source... all 10 peers + source capped at 10
        regions = [d.region for d in sample if not d.peer_id.startswith("source")]
        assert regions.count("CH") == 5  # every local peer considered

    def test_merge_with_quota_short_local(self):
        """Unit-level pin: disjoint slices, id-set dedup, full top-up."""

        class Stub:
            def __init__(self, peer_id):
                self.peer_id = peer_id

        local = [Stub(f"L{i}") for i in range(2)]
        remote = [Stub(f"R{i}") for i in range(6)]
        chosen, leftovers = merge_with_quota(local, remote, slots=5, local_quota=4)
        ids = [p.peer_id for p in chosen]
        assert ids == ["L0", "L1", "R0", "R1", "R2"]
        assert [p.peer_id for p in leftovers] == ["R3", "R4", "R5"]

    def test_saturated_source_does_not_shorten_list(self):
        """Regression: a full-capacity source used to cap the sampler's
        list at count-1 even with spare candidates available."""
        deployment = Deployment(seed=11, source_capacity=1)
        deployment.add_free_channel("intl", regions=["CH", "DE"])
        overlay = deployment.overlays["intl"]
        first = None
        for i in range(8):
            region = "CH" if i % 2 == 0 else "DE"
            client = deployment.create_client(f"s{i}@example.org", "pw", region=region)
            client.login(now=0.0)
            peer = deployment.watch(client, "intl", now=0.0, capacity=8)
            if first is None:
                first = peer
        assert overlay.source.spare_capacity == 0
        sampler = RegionAwarePeerSampler(
            deployment.overlays, deployment.geo, random.Random(3)
        )
        addr = deployment.geo.random_address("CH", random.Random(5))
        sample = sampler("intl", addr, count=4)
        assert len(sample) == 4
        assert all(not d.peer_id.startswith("source") for d in sample)


class TestRankedPeerListProvider:
    def make_provider(self, deployment, fraction=0.75, seed=5):
        return RankedPeerListProvider(
            deployment.overlays,
            deployment.geo,
            random.Random(seed),
            same_region_fraction=fraction,
        )

    def test_same_as_outranks_same_region(self, populated):
        provider = self.make_provider(populated, fraction=1.0)
        addr = populated.geo.random_address("CH", random.Random(8))
        record = populated.geo.lookup(addr)
        overlay = populated.overlays["intl"]
        ch_peers = [p for p in overlay.peers.values() if p.region == "CH"]
        # Put the *worst-ranked* CH peer into the requester's AS: same-AS
        # proximity must lift it over every same-region peer.
        target = max(ch_peers, key=lambda p: (p.depth, -p.spare_capacity))
        target.asn = record.asn
        sample = provider("intl", addr, count=4)
        assert sample[0].peer_id == target.peer_id
        assert sample[0].asn == record.asn

    def test_shallow_parents_rank_first_within_region(self, populated):
        provider = self.make_provider(populated, fraction=1.0)
        addr = populated.geo.random_address("CH", random.Random(9))
        overlay = populated.overlays["intl"]
        depths = {p.peer_id: p.depth for p in overlay.peers.values()}
        sample = [d for d in provider("intl", addr, count=8)
                  if not d.peer_id.startswith("source") and d.region == "CH"]
        sampled_depths = [depths[d.peer_id] for d in sample]
        assert sampled_depths == sorted(sampled_depths)

    def test_privacy_cap_bounds_local_share(self, populated):
        provider = self.make_provider(populated, fraction=0.5)
        addr = populated.geo.random_address("CH", random.Random(10))
        sample = provider("intl", addr, count=9)
        regions = [d.region for d in sample if not d.peer_id.startswith("source")]
        # quota = round(8 * 0.5) = 4 local slots; DE has enough members
        # to fill its side, so the cap binds exactly.
        assert regions.count("CH") == 4

    def test_descriptors_carry_capacity_hints(self, populated):
        provider = self.make_provider(populated)
        addr = populated.geo.random_address("CH", random.Random(11))
        sample = provider("intl", addr, count=6)
        assert all(d.spare_capacity > 0 for d in sample)
        assert any(d.asn for d in sample if not d.peer_id.startswith("source"))

    def test_select_repair_prefers_local(self, populated):
        provider = self.make_provider(populated)
        overlay = populated.overlays["intl"]
        orphan = next(p for p in overlay.peers.values() if p.region == "DE")
        ranked = provider.select_repair(overlay, orphan, lambda peer: True, count=4)
        assert ranked
        assert ranked[0].region == "DE"

    def test_invalid_fraction_rejected(self, populated):
        with pytest.raises(ValueError):
            self.make_provider(populated, fraction=-0.1)

    def test_default_provider_is_ranked(self, populated):
        """A fresh deployment serves ranked SWITCH2 lists out of the box
        and wires the same ranking into churn repair."""
        assert isinstance(populated.ranked_provider, RankedPeerListProvider)
        overlay = populated.overlays["intl"]
        assert overlay.repair_selector is not None
        client = populated.create_client("fresh@example.org", "pw", region="CH")
        client.login(now=1.0)
        response = client.switch_channel("intl", now=1.0)
        regions = [d.region for d in response.peers if not d.peer_id.startswith("source")]
        assert regions.count("CH") >= regions.count("DE")

    def test_uniform_fallback_and_reinstall(self, populated):
        overlay = populated.overlays["intl"]
        populated.use_uniform_peer_lists()
        assert overlay.repair_selector is None
        populated.use_ranked_peer_lists(same_region_fraction=0.6)
        assert overlay.repair_selector is not None
        assert populated.ranked_provider.same_region_fraction == 0.6

    def test_saturated_source_does_not_shorten_list(self):
        deployment = Deployment(seed=13, source_capacity=1)
        deployment.add_free_channel("intl", regions=["CH", "DE"])
        overlay = deployment.overlays["intl"]
        for i in range(8):
            region = "CH" if i % 2 == 0 else "DE"
            client = deployment.create_client(f"r{i}@example.org", "pw", region=region)
            client.login(now=0.0)
            deployment.watch(client, "intl", now=0.0, capacity=8)
        assert overlay.source.spare_capacity == 0
        provider = self.make_provider(deployment)
        addr = deployment.geo.random_address("CH", random.Random(6))
        sample = provider("intl", addr, count=4)
        assert len(sample) == 4
        assert all(not d.peer_id.startswith("source") for d in sample)
