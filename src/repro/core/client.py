"""The client state machine.

Walks the full lifecycle of Fig. 1: bootstrap via the Redirection
Manager, the two-round login with the User Manager, Channel List
maintenance against the Channel Policy Manager (driven by utime
deltas), the two-round channel switch with the Channel Manager, the
one-round join with target peers, and finally content-key handling and
packet decryption.

The client is *functional*: every method takes ``now`` explicitly, and
remote managers are duck-typed objects resolved through a
:class:`~repro.core.directory.ServiceDirectory`.  The P2P layer wraps
clients in :class:`repro.p2p.peer.Peer` objects for forwarding duties;
this class is only the DRM endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.accounts import secure_hash_password
from repro.core.challenge import answer_challenge
from repro.core.directory import ServiceDirectory
from repro.core.keystream import ContentKey, ContentKeyRing
from repro.core.packets import decrypt_key_from_link, decrypt_packet
from repro.core.policy_manager import ChannelRecord
from repro.core.protocol import (
    JoinAccept,
    JoinReject,
    JoinRequest,
    KeyUpdate,
    Login1Request,
    Login1Response,
    Login2Request,
    Switch1Request,
    Switch2Request,
    Switch2Response,
)
from repro.core.tickets import ChannelTicket, UserTicket
from repro.core.user_manager import ChecksumParams
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import RsaPrivateKey, generate_keypair
from repro.crypto.stream import SymmetricKey
from repro.errors import (
    CapacityError,
    ProtocolError,
    ReplayError,
    ReproError,
    TransportError,
)
from repro.trace.span import Tracer, maybe_span
from repro.util.wire import Decoder


def build_login2_request(
    email: str,
    key: RsaPrivateKey,
    shp: bytes,
    version: str,
    image: bytes,
    response: Login1Response,
) -> Tuple[Login2Request, float]:
    """Answer a LOGIN1 reply (Fig. 4a).

    Opens the blob under the secure password hash ``shp``, computes
    the image checksum with the parameters it carries, and signs
    nonce + checksum + version.  Returns the LOGIN2 request and the
    server time the blob carried.
    """
    blob_key = SymmetricKey(material=shp[:16])
    plain = blob_key.decrypt(
        response.encrypted_blob, nonce=response.blob_nonce, aad=b"login1"
    )
    dec = Decoder(plain)
    nonce = dec.get_bytes()
    params = ChecksumParams(
        salt=dec.get_bytes(), offset_seed=dec.get_u32(), length=dec.get_u32()
    )
    server_time = dec.get_f64()
    dec.finish()
    checksum = params.compute(image)
    payload = nonce + checksum + version.encode("utf-8")
    request = Login2Request(
        email=email,
        client_public_key=key.public_key,
        token=response.token,
        nonce=nonce,
        checksum=checksum,
        version=version,
        signature=key.sign(payload),
    )
    return request, server_time


def switch2_request(
    request1: Switch1Request, token, signature: bytes
) -> Switch2Request:
    """The SWITCH2 (or RENEW2) request answering ``request1``'s
    challenge: same User Ticket, same target (channel or expiring
    ticket), plus the signed nonce (Fig. 4b)."""
    return Switch2Request(
        user_ticket=request1.user_ticket,
        token=token,
        signature=signature,
        channel_id=request1.channel_id,
        expiring_ticket=request1.expiring_ticket,
    )


@dataclass
class ParentLink:
    """State for one parent peer relationship."""

    peer_id: str
    session_key: SymmetricKey


class Client:
    """One user's client application instance.

    Parameters
    ----------
    email, password:
        The user's out-of-band-registered credentials.
    version:
        Client software version string, checked against the User
        Manager's floor.
    image:
        The client binary image, attested via checksum at login.  A
        tampered client carries a different image and fails LOGIN2.
    net_addr:
        The client's current network address (its NetAddr attribute).
    redirection:
        The built-in Redirection Manager endpoint (Section V).
    directory:
        Name resolution for manager addresses.
    key_bits:
        RSA modulus size for the client keypair.
    """

    def __init__(
        self,
        email: str,
        password: str,
        version: str,
        image: bytes,
        net_addr: str,
        redirection,
        directory: ServiceDirectory,
        drbg: HmacDrbg,
        key_bits: int = 512,
        keypair: Optional[RsaPrivateKey] = None,
    ) -> None:
        self.email = email
        self._shp = secure_hash_password(email, password)
        self.version = version
        self.image = bytes(image)
        self.net_addr = net_addr
        self._redirection = redirection
        self._directory = directory
        self._drbg = drbg
        # An injected keypair skips the dominant per-client cost (RSA
        # keygen, ~16 ms at 512 bits); large synthetic fleets share one
        # keypair so a 10k-viewer storm stays tractable.  Real clients
        # always generate their own.
        if keypair is not None:
            self._key: RsaPrivateKey = keypair
        else:
            self._key = generate_keypair(drbg.fork(b"client-key"), bits=key_bits)

        self.user_ticket: Optional[UserTicket] = None
        self._prev_utimes: Dict[Tuple[str, str], Optional[float]] = {}
        self.channel_list: Dict[str, ChannelRecord] = {}
        self.channel_ticket: Optional[ChannelTicket] = None
        self.key_ring = ContentKeyRing()
        self.parents: Dict[str, ParentLink] = {}
        self.clock_offset = 0.0
        self.packets_decrypted = 0
        self.decrypt_failures = 0
        #: Replay window (seconds): a key update whose activation time
        #: trails the newest accepted key by more than this is rejected
        #: as a replay.  Must be *narrower* than the ring's working set
        #: (capacity x epoch, ~240s at defaults): any serial still in
        #: the ring is caught by activate_at dedup, so the window only
        #: needs to cover honestly-delayed fresh keys (seconds), and a
        #: window wider than the ring span would let an aged-out serial
        #: re-enter and evict a live key.
        self.key_replay_window = 150.0
        self._newest_key_activation = 0.0
        self.key_replays_rejected = 0
        #: Logins served by a non-primary User Manager replica.
        self.failovers = 0
        #: Shared tracer, attached by Deployment.enable_tracing().
        self.tracer: Optional[Tracer] = None

    @property
    def public_key(self):
        """The client's public key (certified by managers in tickets)."""
        return self._key.public_key

    @property
    def private_key(self) -> RsaPrivateKey:
        """Exposed for the P2P peer wrapper and for threat-model tests."""
        return self._key

    # ------------------------------------------------------------------
    # Login (Fig. 4a)
    # ------------------------------------------------------------------

    def login(self, now: float) -> UserTicket:
        """Run LOGIN1 + LOGIN2; store and return the User Ticket.

        Also performs the utime comparison of Section IV-B: attributes
        whose utime advanced since the previous ticket trigger a
        Channel List refresh from the Channel Policy Manager.
        """
        with maybe_span(self.tracer, "LOGIN", now=now, kind="op"):
            return self._login(now)

    def _login(self, now: float) -> UserTicket:
        route = self._redirection.lookup(self.email)
        user_manager, endpoint = self._resolve_user_manager(route)

        with maybe_span(self.tracer, "LOGIN1", now=now, kind="round"):
            response1 = user_manager.login1(
                Login1Request(email=self.email, client_public_key=self.public_key), now
            )
        request2, server_time = build_login2_request(
            self.email, self._key, self._shp, self.version, self.image, response1
        )
        self.clock_offset = server_time - now
        with maybe_span(self.tracer, "LOGIN2", now=now, kind="round"):
            response2 = user_manager.login2(
                request2, observed_addr=self.net_addr, now=now
            )
        ticket = response2.ticket
        ticket.verify(endpoint.public_key, now)

        stale = self._stale_attribute_keys(ticket)
        self.user_ticket = ticket
        if stale is None:
            self._refresh_channel_list(route, ticket, now, stale_keys=None)
        elif stale:
            self._refresh_channel_list(route, ticket, now, stale_keys=stale)
        self._prev_utimes = ticket.attributes.utime_map()
        return ticket

    def _resolve_user_manager(self, route):
        """Resolve the first reachable User Manager replica.

        A replica whose address no longer resolves (crashed farm,
        directory binding gone) is skipped and reported down to the
        Redirection Manager, steering later lookups -- this client's
        and other clients' -- away from it.  All replicas of a farm
        share one key pair, so the ticket verifies identically
        whichever instance serves the login.
        """
        endpoints = list(route.user_manager_replicas) or [route.user_manager]
        last_exc: Optional[Exception] = None
        for index, endpoint in enumerate(endpoints):
            try:
                user_manager = self._directory.resolve(endpoint.address)
            except TransportError as exc:
                last_exc = exc
                self._redirection.mark_down(endpoint.address)
                continue
            if index:
                self.failovers += 1
            return user_manager, endpoint
        raise last_exc

    def _stale_attribute_keys(
        self, new_ticket: UserTicket
    ) -> Optional[List[Tuple[str, str]]]:
        """Attribute keys whose utime advanced; None means 'first login'."""
        if not self._prev_utimes:
            return None
        stale: List[Tuple[str, str]] = []
        for key, utime in new_ticket.attributes.utime_map().items():
            if utime is None:
                continue
            previous = self._prev_utimes.get(key)
            if previous is None or utime > previous:
                stale.append(key)
        return stale

    def _refresh_channel_list(
        self,
        route,
        ticket: UserTicket,
        now: float,
        stale_keys: Optional[List[Tuple[str, str]]],
    ) -> None:
        """Fetch (part of) the Channel List from the CPM.

        The CPM challenges with a nonce which we answer with our
        private key (Section IV-G1).
        """
        cpm = self._directory.resolve(route.channel_policy_manager.address)
        token = cpm.request_channel_list(ticket, now)
        signature = answer_challenge(token, self._key)
        updated = cpm.fetch_channel_list(ticket, token, signature, stale_keys, now)
        if stale_keys is None:
            self.channel_list = updated
            return
        # Partial refresh: any cached channel touching a stale
        # attribute key that the CPM no longer reports has been
        # deleted from the lineup.
        wanted = set(stale_keys)
        for channel_id, record in list(self.channel_list.items()):
            touches = any(attr.key in wanted for attr in record.attributes)
            if touches and channel_id not in updated:
                del self.channel_list[channel_id]
        self.channel_list.update(updated)

    # ------------------------------------------------------------------
    # Channel selection
    # ------------------------------------------------------------------

    def viewable_channels(self, now: float) -> List[str]:
        """Channels this user's attributes would be accepted on.

        Client-side evaluation for the programme guide only; the
        Channel Manager re-evaluates authoritatively at switch time.
        """
        if self.user_ticket is None:
            raise ProtocolError("not logged in")
        viewable = []
        for channel_id, record in sorted(self.channel_list.items()):
            # The compiled index makes the full-lineup scan cheap:
            # each record's policy plan is built once per fetched
            # version, not re-sorted per EPG refresh.
            result = record.compiled().evaluate(self.user_ticket.attributes, now)
            if result.accepted:
                viewable.append(channel_id)
        return viewable

    # ------------------------------------------------------------------
    # Channel switching (Fig. 4b)
    # ------------------------------------------------------------------

    def switch_channel(self, channel_id: str, now: float) -> Switch2Response:
        """Run SWITCH1 + SWITCH2 for a fresh Channel Ticket."""
        with maybe_span(
            self.tracer, "SWITCH", now=now, kind="op", channel=channel_id
        ):
            return self._switch_channel(channel_id, now)

    def _switch_channel(self, channel_id: str, now: float) -> Switch2Response:
        if self.user_ticket is None:
            raise ProtocolError("not logged in")
        record = self.channel_list.get(channel_id)
        if record is None or record.channel_manager_addr is None:
            raise ProtocolError(f"channel {channel_id!r} not in my channel list")
        request1 = Switch1Request(user_ticket=self.user_ticket, channel_id=channel_id)
        response2 = self._switch_rounds(record, request1, ("SWITCH1", "SWITCH2"), now)
        self._adopt_channel_ticket(response2.ticket, reset_state=True)
        return response2

    def renew_channel_ticket(self, now: float) -> Switch2Response:
        """Renew the current Channel Ticket (Section IV-D)."""
        with maybe_span(self.tracer, "RENEWAL", now=now, kind="op"):
            return self._renew_channel_ticket(now)

    def _renew_channel_ticket(self, now: float) -> Switch2Response:
        if self.user_ticket is None or self.channel_ticket is None:
            raise ProtocolError("nothing to renew")
        record = self.channel_list.get(self.channel_ticket.channel_id)
        if record is None or record.channel_manager_addr is None:
            raise ProtocolError("channel no longer in my channel list")
        request1 = Switch1Request(
            user_ticket=self.user_ticket, expiring_ticket=self.channel_ticket
        )
        response2 = self._switch_rounds(record, request1, ("RENEW1", "RENEW2"), now)
        self._adopt_channel_ticket(response2.ticket, reset_state=False)
        return response2

    def _switch_rounds(
        self,
        record: ChannelRecord,
        request1: Switch1Request,
        round_names: Tuple[str, str],
        now: float,
    ) -> Switch2Response:
        """The shared SWITCH1+SWITCH2 exchange (fresh issue or renewal)
        with the channel's manager, one span per round."""
        round1_name, round2_name = round_names
        channel_manager = self._directory.resolve(record.channel_manager_addr)
        with maybe_span(self.tracer, round1_name, now=now, kind="round"):
            response1 = channel_manager.switch1(request1, now)
        signature = answer_challenge(response1.token, self._key)
        with maybe_span(self.tracer, round2_name, now=now, kind="round"):
            return channel_manager.switch2(
                switch2_request(request1, response1.token, signature),
                observed_addr=self.net_addr,
                now=now,
            )

    def _adopt_channel_ticket(self, ticket: ChannelTicket, reset_state: bool) -> None:
        self.channel_ticket = ticket
        if reset_state:
            # A genuine channel switch invalidates old keys and parents.
            self.key_ring = ContentKeyRing()
            self.parents = {}

    # ------------------------------------------------------------------
    # Peer join (Fig. 4c)
    # ------------------------------------------------------------------

    def join_peer(self, peer, now: float) -> JoinAccept:
        """Join one target peer; raises on rejection.

        On accept, decrypts the session key with our private key and
        the bundled content key with the session key (Section IV-E).
        """
        with maybe_span(self.tracer, "JOIN", now=now, kind="op"):
            return self._join_peer(peer, now)

    def _join_peer(self, peer, now: float) -> JoinAccept:
        if self.channel_ticket is None:
            raise ProtocolError("no channel ticket to join with")
        result = peer.handle_join(
            JoinRequest(channel_ticket=self.channel_ticket),
            observed_addr=self.net_addr,
            now=now,
        )
        if isinstance(result, JoinReject):
            raise CapacityError(f"join rejected by {result.peer_id}: {result.reason}")
        assert isinstance(result, JoinAccept)
        session_material = self._key.decrypt(result.encrypted_session_key)
        session_key = SymmetricKey(material=session_material)
        self.parents[result.peer_id] = ParentLink(
            peer_id=result.peer_id, session_key=session_key
        )
        content_key = decrypt_key_from_link(
            result.encrypted_content_key,
            serial=result.content_key_serial,
            session_key=session_key,
            channel_id=self.channel_ticket.channel_id,
            activate_at=0.0,
        )
        self.key_ring.offer(content_key)
        return result

    def drop_parent(self, peer_id: str) -> None:
        """Forget a parent link (the peer severed us, or churned away)."""
        self.parents.pop(peer_id, None)

    # ------------------------------------------------------------------
    # Content and key reception
    # ------------------------------------------------------------------

    def receive_key_update(self, update: KeyUpdate, parent_id: str) -> bool:
        """Handle a pushed content key; False if it was a duplicate.

        Duplicates arise naturally when a peer has several parents
        (peer-division multiplexing) and are discarded by serial.
        """
        link = self.parents.get(parent_id)
        if link is None:
            raise ProtocolError(f"key update from unknown parent {parent_id!r}")
        # Dedup must compare activation times, not bare serials: after
        # a serial wraparound the same serial names a *newer* key,
        # which the ring replaces rather than discards.
        if self.key_ring.is_duplicate(update.serial, update.activate_at):
            self.key_ring.duplicates_discarded += 1
            return False
        # Replay window: honest re-delivery of a key the ring still
        # holds is caught above (same activation time); an update whose
        # activation trails the newest accepted key by more than the
        # window is an *old* serial trying to re-enter after its ring
        # slot was recycled -- a replay attack, not network weather.
        if (
            self._newest_key_activation - update.activate_at
            > self.key_replay_window
        ):
            self.key_replays_rejected += 1
            raise ReplayError(
                f"key update serial {update.serial} activates at "
                f"{update.activate_at:g}, {self._newest_key_activation - update.activate_at:g}s "
                f"behind the newest accepted key (window {self.key_replay_window:g}s)"
            )
        content_key = decrypt_key_from_link(
            update.encrypted_content_key,
            serial=update.serial,
            session_key=link.session_key,
            channel_id=update.channel_id,
            activate_at=update.activate_at,
        )
        accepted = self.key_ring.offer(content_key)
        if accepted:
            self._newest_key_activation = max(
                self._newest_key_activation, update.activate_at
            )
        return accepted

    def receive_packet(self, packet) -> bytes:
        """Decrypt a content packet; raises DecryptionError on failure."""
        if self.channel_ticket is None:
            raise ProtocolError("not joined to any channel")
        try:
            payload = decrypt_packet(self.key_ring, self.channel_ticket.channel_id, packet)
        except ReproError:
            self.decrypt_failures += 1
            raise
        self.packets_decrypted += 1
        return payload

    # ------------------------------------------------------------------
    # Mobility
    # ------------------------------------------------------------------

    def move_to(self, new_addr: str) -> None:
        """The user carries the account to a different computer/network.

        Tickets bound to the old NetAddr stop matching; the client must
        re-login and re-switch from the new address (Section IV-D walks
        through exactly this scenario).
        """
        self.net_addr = new_addr
        self.user_ticket = None
        self.channel_ticket = None
        self.key_ring = ContentKeyRing()
        self.parents = {}
