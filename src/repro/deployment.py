"""Full-system deployment builder.

Wires every component of Fig. 1 into a working functional service:
Account Manager, Redirection Manager, one or more User Manager farms
(Authentication Domains), the Channel Policy Manager, one or more
Channel Manager farms (Channel Listing Partitions), per-channel
Channel Servers and overlays, and a client factory.

This is the entry point most examples and integration tests use::

    deployment = Deployment(seed=7)
    deployment.add_free_channel("ch1", regions=["CH", "DE"])
    client = deployment.create_client("alice@example.org", "pw", region="CH")
    client.login(now=0.0)
    response = client.switch_channel("ch1", now=1.0)
    peer = deployment.make_peer(client, "ch1")
    deployment.overlay("ch1").join(peer, response.peers, now=1.5)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.accounts import AccountManager
from repro.core.attributes import (
    ATTR_REGION,
    ATTR_SUBSCRIPTION,
    Attribute,
    AttributeSet,
)
from repro.core.channel_manager import ChannelManager
from repro.core.channel_server import ChannelServer
from repro.core.client import Client
from repro.core.directory import ServiceDirectory
from repro.core.policy import Decision, Policy, PolicyCondition
from repro.core.policy_manager import ChannelPolicyManager
from repro.core.redirection import ManagerEndpoint, RedirectionManager
from repro.core.user_manager import UserManager
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import generate_keypair
from repro.errors import ReproError
from repro.geo.database import GeoDatabase
from repro.metrics.adversary import MisbehaviorCounters
from repro.metrics.dataplane import counters as dataplane_counters
from repro.metrics.hotpath import counters as hotpath_counters
from repro.metrics.registry import MetricsRegistry
from repro.metrics.selection import counters as selection_counters
from repro.resilience.counters import ResilienceCounters
from repro.p2p.overlay import ChannelOverlay
from repro.p2p.peer import Peer
from repro.p2p.scorecard import JOIN_FLOOD, PeerScorecard
from repro.p2p.selection import RankedPeerListProvider
from repro.trace.span import Tracer

#: The client software version every deployment registers by default.
DEFAULT_CLIENT_VERSION = "4.0.5"
_CLIENT_IMAGE_SIZE = 8192


class Deployment:
    """A complete single-provider service, functionally wired.

    Parameters
    ----------
    seed:
        Master seed; everything (keys, addresses, nonces) derives from
        it deterministically.
    n_domains:
        Number of Authentication Domains (User Manager farms).
    partitions:
        Channel Listing Partition names (one Channel Manager farm per
        partition).
    key_bits:
        RSA modulus size used throughout (512 keeps simulations fast).
    user_ticket_lifetime / channel_ticket_lifetime:
        Ticket lifetimes in seconds.
    """

    def __init__(
        self,
        seed: int = 7,
        n_domains: int = 1,
        partitions: Sequence[str] = ("default",),
        key_bits: int = 512,
        user_ticket_lifetime: float = 1800.0,
        channel_ticket_lifetime: float = 900.0,
        substream_count: int = 1,
        source_capacity: int = 16,
    ) -> None:
        if n_domains < 1 or not partitions:
            raise ReproError("need at least one domain and one partition")
        self.key_bits = key_bits
        self.substream_count = substream_count
        self.source_capacity = source_capacity
        self._drbg = HmacDrbg(seed.to_bytes(8, "big", signed=False), b"deployment")
        self.rng = random.Random(seed)
        self.geo = GeoDatabase()
        self.directory = ServiceDirectory()
        self.accounts = AccountManager()
        self.policy_manager = ChannelPolicyManager()

        # Client image for attestation: one registered release.
        self.client_version = DEFAULT_CLIENT_VERSION
        self.client_image = self._drbg.fork(b"client-image").generate(_CLIENT_IMAGE_SIZE)

        # Channel Policy Manager endpoint (clients learn it from the
        # Redirection Manager).
        cpm_key = generate_keypair(self._drbg.fork(b"cpm-key"), bits=key_bits)
        self._cpm_endpoint = ManagerEndpoint(
            address="cpm://main", public_key=cpm_key.public_key
        )
        self.directory.register("cpm://main", self.policy_manager)
        self.redirection = RedirectionManager(self._cpm_endpoint)

        # Farm credentials (keypair + farm secret) outlive any single
        # process: they are the deployment's key-management layer, and
        # crash recovery hands them back to the rebuilt manager.
        self._credentials: Dict[str, tuple] = {}
        self._account_listeners: Dict[str, object] = {}
        self._attribute_listeners: Dict[str, object] = {}
        self._channel_list_listeners: Dict[str, object] = {}
        self._recovery_counts: Dict[str, int] = {}
        #: Durable stores by component name, populated by
        #: :meth:`enable_durability`.
        self.stores: Dict[str, object] = {}
        self._store_root: Optional[str] = None
        self._store_snapshot_every: Optional[int] = None

        # User Manager farms, one per Authentication Domain.
        self.user_managers: Dict[str, UserManager] = {}
        self.user_ticket_lifetime = user_ticket_lifetime
        self.n_domains = n_domains
        #: UserIN allocation (start, stride) per domain; recovery and
        #: replica spawning must reuse the creation-time parameters.
        self._user_id_params: Dict[str, tuple] = {}
        for index in range(n_domains):
            domain = f"domain-{index}"
            self._user_id_params[domain] = (index + 1, n_domains)
            um_drbg = self._drbg.fork(f"um-{index}".encode())
            um_key = generate_keypair(um_drbg.fork(b"key"), bits=key_bits)
            um_secret = um_drbg.fork(b"secret").generate(32)
            self._credentials[f"um://{domain}"] = (um_key, um_secret)
            manager = UserManager(
                signing_key=um_key,
                farm_secret=um_secret,
                drbg=um_drbg.fork(b"runtime"),
                geo=self.geo,
                ticket_lifetime=user_ticket_lifetime,
                domain=domain,
                user_id_start=index + 1,
                user_id_stride=n_domains,
            )
            manager.register_client_image(self.client_version, self.client_image)
            self._wire_user_manager_listeners(domain, manager)
            address = f"um://{domain}"
            self.directory.register(address, manager)
            self.redirection.register_domain(
                domain, ManagerEndpoint(address=address, public_key=manager.public_key)
            )
            self.user_managers[domain] = manager

        um_keys = [m.public_key for m in self.user_managers.values()]
        cpm_secret = self._drbg.fork(b"cpm-secret").generate(32)
        self._credentials["cpm://main"] = (cpm_key, cpm_secret)
        self.policy_manager.enable_client_access(
            farm_secret=cpm_secret,
            drbg=self._drbg.fork(b"cpm-runtime"),
            user_manager_keys=um_keys,
        )

        # Channel Manager farms, one per partition.
        self.channel_managers: Dict[str, ChannelManager] = {}
        self.channel_ticket_lifetime = channel_ticket_lifetime

        # Peer-list pipeline: SWITCH2 lists are ranked by (same-AS,
        # same-region, spare upload capacity) by default -- ROADMAP
        # item 3.  The provider holds a *reference* to self.overlays, so
        # channels added later are covered automatically; its rng is
        # label-forked from the deployment DRBG so installing it never
        # shifts the self.rng sequence other components draw from.  The
        # uniform sampler remains available as an A/B baseline via
        # :meth:`use_uniform_peer_lists`.
        self.servers: Dict[str, ChannelServer] = {}
        self.overlays: Dict[str, ChannelOverlay] = {}
        ranked_seed = int.from_bytes(
            self._drbg.fork(b"ranked-peer-lists").generate(8), "big"
        )
        self.ranked_provider = RankedPeerListProvider(
            self.overlays,
            self.geo,
            random.Random(ranked_seed),
            same_region_fraction=0.75,
        )
        self._active_peer_list_provider = self.ranked_provider
        self._repair_selector = self.ranked_provider.select_repair
        for name in partitions:
            cm_drbg = self._drbg.fork(f"cm-{name}".encode())
            cm_key = generate_keypair(cm_drbg.fork(b"key"), bits=key_bits)
            cm_secret = cm_drbg.fork(b"secret").generate(32)
            self._credentials[f"cm://{name}"] = (cm_key, cm_secret)
            manager = ChannelManager(
                signing_key=cm_key,
                farm_secret=cm_secret,
                drbg=cm_drbg.fork(b"runtime"),
                user_manager_keys=um_keys,
                ticket_lifetime=channel_ticket_lifetime,
                partition=name,
            )
            self._wire_channel_manager_listeners(name, manager)
            manager.set_peer_list_provider(self._active_peer_list_provider)
            self.directory.register(f"cm://{name}", manager)
            self.channel_managers[name] = manager

        self._client_counter = 0
        self._epg = None

        #: Failover replicas by farm, spawned via
        #: :meth:`add_user_manager_replicas` /
        #: :meth:`add_channel_manager_replicas` (primary not included).
        self.um_replicas: Dict[str, List[UserManager]] = {}
        self.cm_replicas: Dict[str, List[ChannelManager]] = {}

        #: Per-deployment metric registry; counter sources register as
        #: subsystems come up (durable stores, the tracer).
        self.metrics = MetricsRegistry()
        self.metrics.register("hotpath", hotpath_counters)
        self.metrics.register("dataplane", dataplane_counters)
        self.metrics.register("selection", selection_counters)
        #: Shared resilience counter block: every retry loop, breaker,
        #: and degraded-mode transition built against this deployment
        #: should aggregate here so ``metrics`` reports them.
        self.resilience = ResilienceCounters()
        self.metrics.register("resilience", self.resilience)
        #: Shared tracer, set by :meth:`enable_tracing`.
        self.tracer: Optional[Tracer] = None
        #: Byzantine detection plane, set by
        #: :meth:`enable_misbehavior_detection`: a shared
        #: :class:`~repro.p2p.scorecard.PeerScorecard` plus its
        #: :class:`~repro.metrics.adversary.MisbehaviorCounters`.
        self.scorecard = None
        self.misbehavior: Optional[MisbehaviorCounters] = None
        #: Sharded manager tier, set by :meth:`enable_sharding`.
        self.sharding = None
        #: Shared process pool, set by :meth:`enable_multicore`.
        self.crypto_pool = None
        self._next_domain_index = n_domains
        self._next_shard_partition_index = 0

    @property
    def epg(self):
        """The provider's Electronic Program Guide (lazily created)."""
        if self._epg is None:
            from repro.core.epg import ElectronicProgramGuide

            self._epg = ElectronicProgramGuide(self.policy_manager)
        return self._epg

    def use_region_aware_sampling(self, same_region_fraction: float = 0.75) -> None:
        """Install the shuffle-based locality sampler on every CM."""
        from repro.p2p.selection import RegionAwarePeerSampler

        sampler = RegionAwarePeerSampler(
            self.overlays,
            self.geo,
            random.Random(self.rng.randrange(2**63)),
            same_region_fraction=same_region_fraction,
        )
        self._install_peer_list_provider(sampler, repair_selector=None)

    def use_ranked_peer_lists(self, same_region_fraction: float = 0.75) -> None:
        """(Re)install the ranked pipeline, e.g. with a custom privacy cap.

        This is the default wiring; calling it is only needed to change
        ``same_region_fraction`` or to switch back after
        :meth:`use_uniform_peer_lists`.
        """
        ranked_seed = int.from_bytes(
            self._drbg.fork(b"ranked-peer-lists-reinstall").generate(8), "big"
        )
        self.ranked_provider = RankedPeerListProvider(
            self.overlays,
            self.geo,
            random.Random(ranked_seed),
            same_region_fraction=same_region_fraction,
        )
        self._install_peer_list_provider(
            self.ranked_provider,
            repair_selector=self.ranked_provider.select_repair,
        )

    def use_uniform_peer_lists(self) -> None:
        """Fall back to uniform sampling (the A/B baseline arm)."""
        self._install_peer_list_provider(
            self._peer_list_provider, repair_selector=None
        )

    def _install_peer_list_provider(self, provider, repair_selector) -> None:
        """Point every CM farm (primaries + replicas) and every
        overlay's churn-repair path at one selection policy.  Farms and
        channels created later inherit it via
        ``_active_peer_list_provider`` / ``_repair_selector``."""
        self._active_peer_list_provider = provider
        self._repair_selector = repair_selector
        for manager in self.channel_managers.values():
            manager.set_peer_list_provider(provider)
        for replicas in self.cm_replicas.values():
            for replica in replicas:
                replica.set_peer_list_provider(provider)
        for overlay in self.overlays.values():
            overlay.repair_selector = repair_selector

    def analytics_for(self, channel_id: str):
        """Viewing analytics over the channel's partition log."""
        from repro.core.analytics import ViewingAnalytics

        manager = self.channel_manager_for(channel_id)
        return ViewingAnalytics(manager.viewing_log(), manager.ticket_lifetime)

    # ------------------------------------------------------------------
    # Channel provisioning
    # ------------------------------------------------------------------

    def _peer_list_provider(self, channel_id: str, exclude_addr: str, count: int):
        overlay = self.overlays.get(channel_id)
        if overlay is None:
            return []
        return overlay.sample_peers(channel_id, exclude_addr, count)

    def add_channel(
        self,
        channel_id: str,
        attributes: AttributeSet,
        policies: List[Policy],
        now: float = 0.0,
        partition: Optional[str] = None,
        key_epoch: float = 60.0,
        encrypted: bool = True,
    ) -> None:
        """Provision a channel: metadata, server, overlay, CM routing.

        With sharding enabled, an unpinned channel's partition comes
        from the channel directory (consistent-hash placement over the
        CM shards); otherwise the first partition takes everything.
        """
        if partition is None:
            if self.sharding is not None:
                partition = self.sharding.channel_directory.shard_for(channel_id)
            else:
                partition = next(iter(self.channel_managers))
        if partition not in self.channel_managers:
            raise ReproError(f"unknown partition: {partition}")
        self.policy_manager.add_channel(
            channel_id, now, attributes=attributes, policies=policies, partition=partition
        )
        self.policy_manager.set_channel_manager(channel_id, f"cm://{partition}", now)
        server = ChannelServer(
            channel_id,
            self._drbg.fork(f"server-{channel_id}".encode()),
            key_epoch=key_epoch,
            encrypted=encrypted,
            start_time=now,
        )
        overlay = ChannelOverlay(
            server,
            cm_public_key=self.channel_managers[partition].public_key,
            drbg=self._drbg.fork(f"overlay-{channel_id}".encode()),
            rng=random.Random(self.rng.randrange(2**63)),
            source_address=self.geo.random_address("CH", self.rng),
            source_capacity=self.source_capacity,
            substream_count=self.substream_count,
        )
        overlay.repair_selector = self._repair_selector
        if self.scorecard is not None:
            overlay.scorecard = self.scorecard
        if self.tracer is not None:
            server.tracer = self.tracer
            overlay.source.tracer = self.tracer
        if self.crypto_pool is not None:
            server.crypto_pool = self.crypto_pool
            overlay.source.crypto_pool = self.crypto_pool
        self.servers[channel_id] = server
        self.overlays[channel_id] = overlay

    def add_free_channel(
        self,
        channel_id: str,
        regions: Sequence[str],
        now: float = 0.0,
        partition: Optional[str] = None,
        **kwargs,
    ) -> None:
        """A free-to-view channel viewable from the given regions."""
        attributes = AttributeSet()
        policies: List[Policy] = []
        for region in regions:
            attributes.add(Attribute(name=ATTR_REGION, value=region))
            policies.append(
                Policy.of(
                    priority=50,
                    conditions=[PolicyCondition(name=ATTR_REGION, value=region)],
                    action=Decision.ACCEPT,
                    label=f"free-{region}",
                )
            )
        self.add_channel(channel_id, attributes, policies, now, partition, **kwargs)

    def add_subscription_channel(
        self,
        channel_id: str,
        regions: Sequence[str],
        package_id: str,
        now: float = 0.0,
        partition: Optional[str] = None,
        **kwargs,
    ) -> None:
        """A premium channel: region AND current subscription required."""
        attributes = AttributeSet()
        attributes.add(Attribute(name=ATTR_SUBSCRIPTION, value=package_id))
        policies: List[Policy] = []
        for region in regions:
            attributes.add(Attribute(name=ATTR_REGION, value=region))
            policies.append(
                Policy.of(
                    priority=50,
                    conditions=[
                        PolicyCondition(name=ATTR_REGION, value=region),
                        PolicyCondition(name=ATTR_SUBSCRIPTION, value=package_id),
                    ],
                    action=Decision.ACCEPT,
                    label=f"sub-{package_id}-{region}",
                )
            )
        self.add_channel(channel_id, attributes, policies, now, partition, **kwargs)

    def add_partition(self, name: str) -> ChannelManager:
        """Stand up a new Channel Listing Partition (CM farm) at runtime."""
        if name in self.channel_managers:
            raise ReproError(f"partition exists: {name}")
        um_keys = [m.public_key for m in self.user_managers.values()]
        cm_drbg = self._drbg.fork(f"cm-{name}".encode())
        cm_key = generate_keypair(cm_drbg.fork(b"key"), bits=self.key_bits)
        cm_secret = cm_drbg.fork(b"secret").generate(32)
        self._credentials[f"cm://{name}"] = (cm_key, cm_secret)
        manager = ChannelManager(
            signing_key=cm_key,
            farm_secret=cm_secret,
            drbg=cm_drbg.fork(b"runtime"),
            user_manager_keys=um_keys,
            ticket_lifetime=self.channel_ticket_lifetime,
            partition=name,
        )
        self._wire_channel_manager_listeners(name, manager)
        manager.set_peer_list_provider(self._active_peer_list_provider)
        self.directory.register(f"cm://{name}", manager)
        self.channel_managers[name] = manager
        if self.tracer is not None:
            manager.tracer = self.tracer
        if self.crypto_pool is not None:
            manager.use_signing_pool(self.crypto_pool)
        if self.sharding is not None:
            self.sharding.install_router(manager)
        if self.stores:
            store = self._make_store(f"cm-{name}")
            if store.has_state():
                # A previous process already ran this partition: recover
                # its state instead of snapshotting the fresh farm over it.
                self.crash_channel_manager(name)
                return self.recover_channel_manager(name)
            manager.attach_store(store, snapshot_every=self._store_snapshot_every)
        return manager

    def promote_channel(self, channel_id: str, partition: str, now: float) -> None:
        """Move a (popular) channel onto its own partition (Section V).

        Creates the partition if needed, re-homes the channel, and
        re-points the overlay's ticket-verification key at the new
        farm.  In-flight Channel Tickets from the old farm remain
        valid at existing peers until expiry; *new* joins require a
        ticket from the new farm, which clients obtain transparently
        at their next switch/renewal (the utime bump prompts a Channel
        List refresh).
        """
        if partition not in self.channel_managers:
            self.add_partition(partition)
        manager = self.channel_managers[partition]
        self.policy_manager.move_channel_partition(
            channel_id, partition, f"cm://{partition}", now
        )
        if self.sharding is not None:
            # A promoted channel is pinned: directory overrides outrank
            # the ring and never move during resharding.
            self.sharding.channel_directory.pin(channel_id, partition)
        overlay = self.overlay(channel_id)
        overlay.source.cm_public_key = manager.public_key
        for peer in overlay.peers.values():
            peer.cm_public_key = manager.public_key

    def add_channel_bundle(
        self,
        bundle_package: str,
        channel_regions: Dict[str, Sequence[str]],
        now: float = 0.0,
        partition: Optional[str] = None,
    ) -> None:
        """Provision a subscription *bundle*: one package, many channels.

        Section III: channels "may be made available to the users as
        part of channel bundles or individually, à la carte."  A bundle
        is simply the same Subscription package gating several
        channels; an à-la-carte channel uses its own package id via
        :meth:`add_subscription_channel`.
        """
        for channel_id, regions in channel_regions.items():
            self.add_subscription_channel(
                channel_id, regions=regions, package_id=bundle_package,
                now=now, partition=partition,
            )

    def overlay(self, channel_id: str) -> ChannelOverlay:
        """The overlay carrying a channel."""
        overlay = self.overlays.get(channel_id)
        if overlay is None:
            raise ReproError(f"no overlay for channel {channel_id!r}")
        return overlay

    def server(self, channel_id: str) -> ChannelServer:
        """The Channel Server feeding a channel."""
        server = self.servers.get(channel_id)
        if server is None:
            raise ReproError(f"no server for channel {channel_id!r}")
        return server

    def channel_manager_for(self, channel_id: str) -> ChannelManager:
        """The Channel Manager farm serving a channel's partition."""
        record = self.policy_manager.get_channel(channel_id)
        return self.channel_managers[record.partition]

    # ------------------------------------------------------------------
    # Causal tracing (see repro.trace)
    # ------------------------------------------------------------------

    def enable_tracing(self, tracer: Optional[Tracer] = None) -> Tracer:
        """Attach one shared tracer to every protocol component.

        Components created *after* this call (clients, peers, channels,
        recovered managers) pick the tracer up automatically.  Returns
        the tracer so callers can pull reports from it.
        """
        if tracer is None:
            tracer = Tracer()
        self.tracer = tracer
        self.redirection.tracer = tracer
        for manager in self.user_managers.values():
            manager.tracer = tracer
        for manager in self.channel_managers.values():
            manager.tracer = tracer
        for replicas in self.um_replicas.values():
            for replica in replicas:
                replica.tracer = tracer
        for replicas in self.cm_replicas.values():
            for replica in replicas:
                replica.tracer = tracer
        for server in self.servers.values():
            server.tracer = tracer
        for overlay in self.overlays.values():
            overlay.source.tracer = tracer
            for peer in overlay.peers.values():
                peer.tracer = tracer
        if self.scorecard is not None:
            self.scorecard.tracer = tracer
        self.metrics.register("trace", tracer)
        return tracer

    # ------------------------------------------------------------------
    # Byzantine detection and containment (see repro.p2p.scorecard)
    # ------------------------------------------------------------------

    def enable_misbehavior_detection(
        self,
        half_life: float = 120.0,
        quarantine_threshold: float = 3.0,
        join_rate_limit: Optional[Tuple[int, float]] = None,
    ) -> "PeerScorecard":
        """Turn on the Byzantine detection plane.

        One shared :class:`~repro.p2p.scorecard.PeerScorecard` is
        attached to every overlay and peer (existing and future), its
        counters are registered as the ``adversary`` metrics subsystem,
        and -- when ``join_rate_limit=(limit, window)`` is given --
        every Channel Manager gains a per-address SWITCH rate limiter
        whose refusals feed the scorecard.  Returns the scorecard.
        """
        if self.scorecard is not None:
            return self.scorecard
        self.misbehavior = MisbehaviorCounters()
        self.scorecard = PeerScorecard(
            half_life=half_life,
            quarantine_threshold=quarantine_threshold,
            counters=self.misbehavior,
            tracer=self.tracer,
        )
        self.metrics.register("adversary", self.misbehavior)
        for overlay in self.overlays.values():
            overlay.scorecard = self.scorecard
            for peer in overlay.peers.values():
                peer.scorecard = self.scorecard
                self.scorecard.note_address(peer.peer_id, peer.address)
        if join_rate_limit is not None:
            limit, window = join_rate_limit
            managers = list(self.channel_managers.values())
            for replicas in self.cm_replicas.values():
                managers.extend(replicas)
            for manager in managers:
                manager.set_join_rate_limit(limit, window)
                manager.rate_limit_listener = self._on_rate_limited
        return self.scorecard

    def _on_rate_limited(self, observed_addr: str, now: float) -> None:
        if self.scorecard is not None:
            self.scorecard.report_address(observed_addr, JOIN_FLOOD, now=now)

    def contain_misbehavior(self, now: float) -> Dict[str, List[str]]:
        """One containment sweep: audit depths, evict quarantined peers.

        Returns ``channel_id -> evicted peer ids``.  The chaos rigs
        call this once per key epoch.
        """
        evicted: Dict[str, List[str]] = {}
        if self.scorecard is None:
            return evicted
        for channel_id, overlay in self.overlays.items():
            overlay.audit_depths(now)
            gone = overlay.contain(now)
            if gone:
                evicted[channel_id] = gone
        return evicted

    def enable_multicore(self, workers: Optional[int] = None, pool=None):
        """Put the crypto plane behind a process pool.

        Attaches one shared :class:`~repro.parallel.pool.CryptoPool`
        to every component with offloadable work: channel servers and
        overlay sources (GOP batch sealing), overlay peers (key
        fan-out), and every manager and replica (ticket signing via
        :class:`~repro.parallel.pool.PooledSigningKey`).  Components
        created afterwards pick the pool up automatically, mirroring
        :meth:`enable_tracing`.  Outputs are byte-identical to the
        in-process paths, and worker counter deltas are merged back so
        ``metrics`` stays exact.  ``workers=None`` sizes the pool to
        the machine; on platforms without ``fork`` the pool runs its
        inline fallback and everything still works.  Returns the pool
        (register ``pool.stats`` shows up under ``"multicore"``).
        """
        from repro.parallel.pool import CryptoPool

        if pool is None:
            pool = CryptoPool(workers=workers)
        self.crypto_pool = pool
        for manager in self.user_managers.values():
            manager.use_signing_pool(pool)
        for manager in self.channel_managers.values():
            manager.use_signing_pool(pool)
        for replicas in self.um_replicas.values():
            for replica in replicas:
                replica.use_signing_pool(pool)
        for replicas in self.cm_replicas.values():
            for replica in replicas:
                replica.use_signing_pool(pool)
        for server in self.servers.values():
            server.crypto_pool = pool
        for overlay in self.overlays.values():
            overlay.source.crypto_pool = pool
            for peer in overlay.peers.values():
                peer.crypto_pool = pool
        self.metrics.register("multicore", pool.stats)
        return pool

    # ------------------------------------------------------------------
    # Durability and crash recovery (see repro.store, repro.sim.faults)
    # ------------------------------------------------------------------

    def _wire_user_manager_listeners(self, domain: str, manager: UserManager) -> None:
        """(Re-)subscribe a UM instance to CPM and Account pushes."""
        attribute_listener = manager.receive_channel_attribute_list
        self.policy_manager.add_attribute_list_listener(attribute_listener)
        self._attribute_listeners[domain] = attribute_listener
        account_listener = lambda account, m=manager: m.sync_account(account)
        self.accounts.add_listener(account_listener)
        self._account_listeners[domain] = account_listener

    def _wire_channel_manager_listeners(self, name: str, manager: ChannelManager) -> None:
        """(Re-)subscribe a CM instance to Channel List pushes."""
        listener = manager.receive_channel_list
        self.policy_manager.add_channel_list_listener(listener)
        self._channel_list_listeners[name] = listener

    def _make_store(self, name: str):
        from repro.store import DurableStore, FileBackend, MemoryBackend

        if self._store_root is None:
            backend = MemoryBackend()
        else:
            import os

            backend = FileBackend(os.path.join(self._store_root, name))
        store = DurableStore(backend)
        self.stores[name] = store
        self.metrics.register(f"store.{name}", store.stats)
        return store

    def enable_durability(
        self, root: Optional[str] = None, snapshot_every: Optional[int] = None
    ) -> Dict[str, object]:
        """Attach a durable store to every stateful manager.

        ``root=None`` uses in-memory backends (simulation-grade
        durability: state survives a *process object* crash, which is
        what the fault injector models); a directory path uses
        :class:`~repro.store.FileBackend` subdirectories per manager.
        ``snapshot_every`` bounds WAL growth by auto-compacting after
        that many records.

        If ``root`` already holds state from a previous process, each
        manager is *recovered* from its store instead of snapshotting
        the fresh in-memory state over it -- pointing a restarted
        deployment at its old root never destroys data.  Build the
        deployment with the same ``seed`` so key management re-derives
        the farm credentials the persisted tickets expect.
        """
        self._store_root = root
        self._store_snapshot_every = snapshot_every

        cpm_store = self._make_store("cpm")
        if cpm_store.has_state():
            self._recover_policy_manager(cpm_store)
        else:
            self.policy_manager.attach_store(cpm_store, snapshot_every=snapshot_every)

        for domain in list(self.user_managers):
            store = self._make_store(f"um-{domain}")
            if store.has_state():
                self.crash_user_manager(domain)
                self.recover_user_manager(domain)
            else:
                self.user_managers[domain].attach_store(
                    store, snapshot_every=snapshot_every
                )

        for name in list(self.channel_managers):
            store = self._make_store(f"cm-{name}")
            if store.has_state():
                self.crash_channel_manager(name)
                self.recover_channel_manager(name)
            else:
                self.channel_managers[name].attach_store(
                    store, snapshot_every=snapshot_every
                )

        if self.sharding is not None:
            for name, partition in self.sharding.viewing.partitions().items():
                partition.attach_store(self._make_store(f"viewing-{name}"))
        return self.stores

    def _recover_policy_manager(self, store) -> ChannelPolicyManager:
        """Rebuild the Channel Policy Manager from a pre-existing store.

        The recovered instance takes over the old one's directory
        binding and listener registrations; registering the stashed
        listeners pushes the recovered Channel (Attribute) List to the
        live User/Channel Managers immediately.
        """
        generation = self._recovery_counts.get("cpm://main", 0) + 1
        self._recovery_counts["cpm://main"] = generation
        _cpm_key, cpm_secret = self._credentials["cpm://main"]
        manager = ChannelPolicyManager.recover(
            store, snapshot_every=self._store_snapshot_every
        )
        manager.enable_client_access(
            farm_secret=cpm_secret,
            drbg=HmacDrbg(cpm_secret, f"cpm-recovery-{generation}".encode()),
            user_manager_keys=[m.public_key for m in self.user_managers.values()],
        )
        self.policy_manager = manager
        self.directory.register("cpm://main", manager)
        for listener in self._attribute_listeners.values():
            manager.add_attribute_list_listener(listener)
        for listener in self._channel_list_listeners.values():
            manager.add_channel_list_listener(listener)
        self._epg = None
        return manager

    def crash_channel_manager(self, partition: str) -> ChannelManager:
        """Kill a Channel Manager farm process.

        The manager object is unhooked from every feed and the
        directory -- only its durable store, and the farm credentials
        held by the deployment's key management, survive.  Returns the
        dead instance (tests compare its state against the recovered
        one).
        """
        dead = self.channel_managers.pop(partition, None)
        if dead is None:
            raise ReproError(f"unknown partition: {partition}")
        listener = self._channel_list_listeners.pop(partition, None)
        if listener is not None:
            self.policy_manager.remove_channel_list_listener(listener)
        self.directory.unregister(f"cm://{partition}")
        return dead

    def recover_channel_manager(self, partition: str) -> ChannelManager:
        """Rebuild a crashed Channel Manager from its durable store."""
        store = self.stores.get(f"cm-{partition}")
        if store is None:
            raise ReproError(f"no durable store for partition {partition!r}")
        credentials = self._credentials.get(f"cm://{partition}")
        if credentials is None:
            raise ReproError(f"no credentials for partition {partition!r}")
        signing_key, farm_secret = credentials
        generation = self._recovery_counts.get(f"cm://{partition}", 0) + 1
        self._recovery_counts[f"cm://{partition}"] = generation
        manager = ChannelManager.recover(
            store,
            signing_key=signing_key,
            farm_secret=farm_secret,
            drbg=HmacDrbg(farm_secret, f"cm-recovery-{generation}".encode()),
            user_manager_keys=[m.public_key for m in self.user_managers.values()],
            ticket_lifetime=self.channel_ticket_lifetime,
            partition=partition,
            snapshot_every=self._store_snapshot_every,
        )
        self.channel_managers[partition] = manager
        self._wire_channel_manager_listeners(partition, manager)
        manager.set_peer_list_provider(self._active_peer_list_provider)
        self.directory.register(f"cm://{partition}", manager)
        if self.tracer is not None:
            manager.tracer = self.tracer
        if self.sharding is not None:
            self.sharding.install_router(manager)
        return manager

    def crash_user_manager(self, domain: str) -> UserManager:
        """Kill a User Manager farm process (see crash_channel_manager)."""
        dead = self.user_managers.pop(domain, None)
        if dead is None:
            raise ReproError(f"unknown domain: {domain}")
        attribute_listener = self._attribute_listeners.pop(domain, None)
        if attribute_listener is not None:
            self.policy_manager.remove_attribute_list_listener(attribute_listener)
        account_listener = self._account_listeners.pop(domain, None)
        if account_listener is not None:
            self.accounts.remove_listener(account_listener)
        self.directory.unregister(f"um://{domain}")
        self.redirection.mark_down(f"um://{domain}")
        return dead

    def recover_user_manager(self, domain: str) -> UserManager:
        """Rebuild a crashed User Manager from its durable store."""
        store = self.stores.get(f"um-{domain}")
        if store is None:
            raise ReproError(f"no durable store for domain {domain!r}")
        credentials = self._credentials.get(f"um://{domain}")
        if credentials is None:
            raise ReproError(f"no credentials for domain {domain!r}")
        signing_key, farm_secret = credentials
        generation = self._recovery_counts.get(f"um://{domain}", 0) + 1
        self._recovery_counts[f"um://{domain}"] = generation
        user_id_start, user_id_stride = self._user_id_params[domain]
        manager = UserManager.recover(
            store,
            signing_key=signing_key,
            farm_secret=farm_secret,
            drbg=HmacDrbg(farm_secret, f"um-recovery-{generation}".encode()),
            geo=self.geo,
            ticket_lifetime=self.user_ticket_lifetime,
            domain=domain,
            user_id_start=user_id_start,
            user_id_stride=user_id_stride,
            snapshot_every=self._store_snapshot_every,
        )
        self.user_managers[domain] = manager
        self._wire_user_manager_listeners(domain, manager)
        self.directory.register(f"um://{domain}", manager)
        self.redirection.mark_up(f"um://{domain}")
        if self.tracer is not None:
            manager.tracer = self.tracer
        return manager

    # ------------------------------------------------------------------
    # Manager replicas (see repro.resilience)
    # ------------------------------------------------------------------

    def add_user_manager_replicas(self, domain: str, count: int) -> List[UserManager]:
        """Spawn ``count`` extra instances of a User Manager farm.

        Each replica holds the farm's credentials (same signing key and
        secret -- tickets verify against one public key regardless of
        which instance issued them), shares the primary's user database
        by reference, subscribes to the same CPM/Account feeds, and is
        published to the Redirection Manager as a failover target at
        ``um://<domain>!<n>``.
        """
        primary = self.user_managers.get(domain)
        if primary is None:
            raise ReproError(f"unknown domain: {domain}")
        signing_key, farm_secret = self._credentials[f"um://{domain}"]
        user_id_start, user_id_stride = self._user_id_params[domain]
        replicas = self.um_replicas.setdefault(domain, [])
        created: List[UserManager] = []
        store = self.stores.get(f"um-{domain}")
        for _ in range(count):
            n = len(replicas) + 1
            replica = UserManager(
                signing_key=signing_key,
                farm_secret=farm_secret,
                drbg=HmacDrbg(farm_secret, f"um-{domain}-replica-{n}".encode()),
                geo=self.geo,
                ticket_lifetime=self.user_ticket_lifetime,
                domain=domain,
                user_id_start=user_id_start,
                user_id_stride=user_id_stride,
            )
            replica.register_client_image(self.client_version, self.client_image)
            primary.share_state_with(replica)
            self._wire_user_manager_listeners(f"{domain}!{n}", replica)
            address = f"um://{domain}!{n}"
            self.directory.register(address, replica)
            self.redirection.add_replica(
                domain, ManagerEndpoint(address=address, public_key=replica.public_key)
            )
            if store is not None:
                replica.attach_store(store, snapshot_every=self._store_snapshot_every)
            if self.tracer is not None:
                replica.tracer = self.tracer
            replicas.append(replica)
            created.append(replica)
        return created

    def add_channel_manager_replicas(
        self, partition: str, count: int
    ) -> List[ChannelManager]:
        """Spawn ``count`` extra instances of a Channel Manager farm.

        Replicas share the primary's viewing log *by reference* --
        Section V's farm contract, and the load-bearing detail for the
        one-viewing-location rule surviving failover: whichever
        instance handles a renewal consults the same latest-entry
        index.  Published in the directory at ``cm://<partition>!<n>``.
        """
        primary = self.channel_managers.get(partition)
        if primary is None:
            raise ReproError(f"unknown partition: {partition}")
        signing_key, farm_secret = self._credentials[f"cm://{partition}"]
        um_keys = [m.public_key for m in self.user_managers.values()]
        replicas = self.cm_replicas.setdefault(partition, [])
        created: List[ChannelManager] = []
        store = self.stores.get(f"cm-{partition}")
        for _ in range(count):
            n = len(replicas) + 1
            replica = ChannelManager(
                signing_key=signing_key,
                farm_secret=farm_secret,
                drbg=HmacDrbg(farm_secret, f"cm-{partition}-replica-{n}".encode()),
                user_manager_keys=um_keys,
                ticket_lifetime=self.channel_ticket_lifetime,
                partition=partition,
            )
            primary.share_state_with(replica)
            self._wire_channel_manager_listeners(f"{partition}!{n}", replica)
            replica.set_peer_list_provider(self._active_peer_list_provider)
            if self.sharding is not None:
                self.sharding.install_router(replica)
            self.directory.register(f"cm://{partition}!{n}", replica)
            if store is not None:
                replica.attach_store(store, snapshot_every=self._store_snapshot_every)
            if self.tracer is not None:
                replica.tracer = self.tracer
            replicas.append(replica)
            created.append(replica)
        return created

    # ------------------------------------------------------------------
    # Sharded manager tier (see repro.sharding)
    # ------------------------------------------------------------------

    def enable_sharding(self, vnodes: Optional[int] = None):
        """Install the sharded manager tier over the running farms.

        Builds consistent-hash rings over the existing Authentication
        Domains and Channel Listing Partitions, partitions the viewing
        log by user, and installs shard-aware placement into the
        Redirection Manager and every Channel Manager instance.
        Idempotent; returns the :class:`~repro.sharding.ShardingRuntime`.

        Call after :meth:`enable_durability` if both are wanted: the
        viewing partitions attach their stores at sharding time.
        """
        if self.sharding is not None:
            return self.sharding
        from repro.sharding.ring import DEFAULT_VNODES
        from repro.sharding.runtime import ShardingRuntime

        runtime = ShardingRuntime(
            self, vnodes=DEFAULT_VNODES if vnodes is None else vnodes
        )
        self.sharding = runtime
        self.metrics.register("sharding", runtime.counters)
        if self.stores:
            for name, partition in runtime.viewing.partitions().items():
                partition.attach_store(self._make_store(f"viewing-{name}"))
        return runtime

    def add_user_manager_shards(self, count: int = 1) -> List[str]:
        """Grow the UM tier by ``count`` Authentication Domain shards.

        Each new domain is stood up cold (fresh farm, full account
        sync, disjoint UserIN band), then *live-resharded* in: the
        coordinator freezes the moving key range, migrates UserDB rows
        and viewing histories, and cuts the directory over -- roughly
        1/N of users move per added shard, everyone else is untouched.
        Returns the new domain names.
        """
        runtime = self.enable_sharding()
        added: List[str] = []
        for _ in range(count):
            index = self._next_domain_index
            self._next_domain_index += 1
            domain = f"domain-{index}"
            self._spawn_user_manager_shard(domain, index)
            runtime.attach_user_shard(domain)
            if self.stores:
                runtime.viewing.partition(domain).attach_store(
                    self._make_store(f"viewing-{domain}")
                )
            plan = runtime.coordinator.plan_add_user_shard(domain)
            runtime.coordinator.execute(plan)
            added.append(domain)
        return added

    def add_channel_manager_shards(self, count: int = 1) -> List[str]:
        """Grow the CM tier by ``count`` Channel Listing Partition shards.

        Each new partition joins the channel ring through the live
        resharding path: ~1/N of channels re-home onto it (policy
        records and overlay keys flip; *no* viewing state moves, since
        the log is partitioned by user).  Returns the new partition
        names.
        """
        runtime = self.enable_sharding()
        added: List[str] = []
        for _ in range(count):
            index = self._next_shard_partition_index
            self._next_shard_partition_index += 1
            name = f"partition-{index}"
            while name in self.channel_managers:
                index = self._next_shard_partition_index
                self._next_shard_partition_index += 1
                name = f"partition-{index}"
            self.add_partition(name)
            plan = runtime.coordinator.plan_add_channel_shard(name)
            runtime.coordinator.execute(plan)
            added.append(name)
        return added

    def _spawn_user_manager_shard(self, domain: str, index: int) -> UserManager:
        """Stand up one new UM farm for live reshard-in.

        The new domain allocates UserINs from a disjoint high band
        ((index+1) << 32, stride 1): the legacy domains interleave ids
        with the *original* domain count as stride, so a late-added
        shard must not re-use that scheme or its allocations would
        collide with theirs.
        """
        user_id_start = (index + 1) << 32
        self._user_id_params[domain] = (user_id_start, 1)
        um_drbg = self._drbg.fork(f"um-{index}".encode())
        um_key = generate_keypair(um_drbg.fork(b"key"), bits=self.key_bits)
        um_secret = um_drbg.fork(b"secret").generate(32)
        self._credentials[f"um://{domain}"] = (um_key, um_secret)
        manager = UserManager(
            signing_key=um_key,
            farm_secret=um_secret,
            drbg=um_drbg.fork(b"runtime"),
            geo=self.geo,
            ticket_lifetime=self.user_ticket_lifetime,
            domain=domain,
            user_id_start=user_id_start,
            user_id_stride=1,
        )
        manager.register_client_image(self.client_version, self.client_image)
        self._wire_user_manager_listeners(domain, manager)
        address = f"um://{domain}"
        self.directory.register(address, manager)
        self.redirection.register_domain(
            domain, ManagerEndpoint(address=address, public_key=manager.public_key)
        )
        self.user_managers[domain] = manager
        # Every domain replicates the full account base (Section V);
        # listeners only cover future pushes, so backfill the rest.
        for account in self.accounts.all_accounts():
            manager.sync_account(account)
        manager.receive_channel_attribute_list(
            self.policy_manager.channel_attribute_list()
        )
        # Downstream verifiers must accept the new domain's tickets.
        self.policy_manager.add_user_manager_key(manager.public_key)
        for cm in self.channel_managers.values():
            cm.add_user_manager_key(manager.public_key)
        for replicas in self.cm_replicas.values():
            for replica in replicas:
                replica.add_user_manager_key(manager.public_key)
        if self.tracer is not None:
            manager.tracer = self.tracer
        if self.stores:
            store = self._make_store(f"um-{domain}")
            manager.attach_store(store, snapshot_every=self._store_snapshot_every)
        return manager

    def um_farm_addresses(self, domain: str) -> List[str]:
        """Directory addresses of a UM farm: primary first, then replicas."""
        if domain not in self.user_managers:
            raise ReproError(f"unknown domain: {domain}")
        return [f"um://{domain}"] + [
            f"um://{domain}!{n}"
            for n in range(1, len(self.um_replicas.get(domain, ())) + 1)
        ]

    def cm_farm_addresses(self, partition: str) -> List[str]:
        """Directory addresses of a CM farm: primary first, then replicas."""
        if partition not in self.channel_managers:
            raise ReproError(f"unknown partition: {partition}")
        return [f"cm://{partition}"] + [
            f"cm://{partition}!{n}"
            for n in range(1, len(self.cm_replicas.get(partition, ())) + 1)
        ]

    # ------------------------------------------------------------------
    # Clients and peers
    # ------------------------------------------------------------------

    def create_client(
        self,
        email: str,
        password: str,
        region: str = "CH",
        net_addr: Optional[str] = None,
        register: bool = True,
        version: Optional[str] = None,
        image: Optional[bytes] = None,
        key_bits: Optional[int] = None,
        keypair=None,
    ) -> Client:
        """Register (optionally) and build one client in a region.

        ``keypair`` injects a pre-generated client RSA key (see
        :class:`~repro.core.client.Client`); synthetic fleets share one
        to skip the per-client keygen cost.
        """
        if register and not self.accounts.exists(email):
            self.accounts.register(email, password)
        self._client_counter += 1
        client = Client(
            email=email,
            password=password,
            version=version or self.client_version,
            image=image if image is not None else self.client_image,
            net_addr=net_addr or self.geo.random_address(region, self.rng),
            redirection=self.redirection,
            directory=self.directory,
            drbg=self._drbg.fork(f"client-{self._client_counter}-{email}".encode()),
            key_bits=key_bits or self.key_bits,
            keypair=keypair,
        )
        if self.tracer is not None:
            client.tracer = self.tracer
        return client

    def make_peer(self, client: Client, channel_id: str, capacity: int = 4) -> Peer:
        """Wrap a ticketed client as an overlay peer."""
        return self._build_peer(client, channel_id, capacity, Peer)

    def make_adversarial_peer(
        self,
        client: Client,
        channel_id: str,
        config: "AdversaryConfig",
        capacity: int = 4,
    ) -> "AdversarialPeer":
        """Wrap a ticketed client as a *Byzantine* overlay peer.

        The adversary is a fully authorized viewer -- it passes every
        ticket check -- whose misbehavior schedule is ``config``.
        """
        from repro.p2p.adversary import AdversarialPeer

        return self._build_peer(
            client, channel_id, capacity, AdversarialPeer, config=config
        )

    def _build_peer(self, client, channel_id, capacity, peer_cls, **extra):
        if client.channel_ticket is None or client.channel_ticket.channel_id != channel_id:
            raise ReproError("client must hold a channel ticket for this channel")
        record = self.policy_manager.get_channel(channel_id)
        geo_record = self.geo.lookup(client.net_addr)
        peer = peer_cls(
            peer_id=f"peer-{client.channel_ticket.user_id}",
            client=client,
            channel_id=channel_id,
            cm_public_key=self.channel_managers[record.partition].public_key,
            drbg=self._drbg.fork(f"peer-{client.channel_ticket.user_id}".encode()),
            capacity=capacity,
            region=geo_record.region if geo_record is not None else "?",
            asn=geo_record.asn if geo_record is not None else 0,
            **extra,
        )
        if self.tracer is not None:
            peer.tracer = self.tracer
        if self.crypto_pool is not None:
            peer.crypto_pool = self.crypto_pool
        if self.scorecard is not None:
            peer.scorecard = self.scorecard
            self.scorecard.note_address(peer.peer_id, peer.address)
        return peer

    def watch(self, client: Client, channel_id: str, now: float, capacity: int = 4) -> Peer:
        """Convenience: switch + join + register in one call.

        Returns the client's overlay peer, fully connected.
        """
        response = client.switch_channel(channel_id, now)
        peer = self.make_peer(client, channel_id, capacity=capacity)
        self.overlay(channel_id).join(peer, response.peers, now)
        return peer
