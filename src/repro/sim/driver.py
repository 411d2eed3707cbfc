"""Event-driven protocol execution: the functional DRM under virtual time.

:class:`AsyncClient` performs the real protocol exchanges -- the same
crypto, request builders and manager handlers as the synchronous
:class:`~repro.core.client.Client` -- but as chained messages over a
:class:`~repro.sim.rpc.VirtualNetwork`.  Every round's latency is then
an *emergent* quantity: request one-way delay + farm queueing/service +
reply one-way delay, plus the client's own compute charged from a
deterministic cost model (:mod:`repro.sim.costs`).

This is the highest-fidelity rig in the repository: unit tests verify
logic, the timing model gives scale, and this driver gives both at
moderate scale.  Used by the virtual-time integration tests and the
`test_bench_rpc_storm` benchmark.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from repro.core.accounts import secure_hash_password
from repro.core.challenge import answer_challenge
from repro.core.client import build_login2_request, switch2_request
from repro.core.protocol import (
    JoinAccept,
    Login1Request,
    Login1Response,
    Login2Response,
    Switch1Request,
    Switch2Response,
)
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import generate_keypair
from repro.crypto.stream import SymmetricKey
from repro.metrics.collector import LatencyCollector
from repro.sim.costs import (
    OP_CHALLENGE_SIGN,
    OP_JOIN_DECRYPT,
    OP_LOGIN_BLOB,
    FixedCostModel,
)
from repro.sim.rpc import RpcService, VirtualNetwork
from repro.trace.span import Span, Tracer


def wire_user_manager(network: VirtualNetwork, manager, address: str, station=None) -> RpcService:
    """Expose a functional User Manager as an RPC service.

    The observed connection address -- what the paper's NetAddr checks
    key on -- is taken from the RPC context, exactly as a real server
    reads the socket peer address.
    """
    service = RpcService(address=address, station=station)
    service.register("login1", lambda payload, ctx: manager.login1(payload, ctx.now))
    service.register(
        "login2",
        lambda payload, ctx: manager.login2(
            payload, observed_addr=ctx.caller_address, now=ctx.now
        ),
    )
    network.attach(service)
    return service


def wire_channel_manager(network: VirtualNetwork, manager, address: str, station=None) -> RpcService:
    """Expose a functional Channel Manager as an RPC service."""
    service = RpcService(address=address, station=station)
    service.register("switch1", lambda payload, ctx: manager.switch1(payload, ctx.now))
    service.register(
        "switch2",
        lambda payload, ctx: manager.switch2(
            payload, observed_addr=ctx.caller_address, now=ctx.now
        ),
    )
    network.attach(service)
    return service


def wire_peer(network: VirtualNetwork, peer, address: Optional[str] = None) -> RpcService:
    """Expose a peer's join admission as an RPC service."""
    service = RpcService(address=address or f"peer://{peer.peer_id}", region=peer.region)
    service.register(
        "join",
        lambda payload, ctx: peer.handle_join(
            payload, observed_addr=ctx.caller_address, now=ctx.now
        ),
    )
    network.attach(service)
    return service


class AsyncClient:
    """A client driving the DRM protocols as virtual-time messages.

    Client-side compute (RSA signing, blob decryption, checksum) runs
    for real, but the virtual delay charged before the next message
    leaves comes from ``cost_model`` -- a deterministic per-operation
    table by default (:class:`~repro.sim.costs.FixedCostModel`), so
    the same seed always yields the same transcript.  Pass
    :class:`~repro.sim.costs.WallClockCostModel` to recover the old
    measured-cost behaviour, or a calibrated table from
    :func:`~repro.sim.costs.calibrated_cost_model`.
    """

    def __init__(
        self,
        network: VirtualNetwork,
        email: str,
        password: str,
        version: str,
        image: bytes,
        net_addr: str,
        region: str,
        drbg: HmacDrbg,
        collector: Optional[LatencyCollector] = None,
        key_bits: int = 512,
        tracer: Optional[Tracer] = None,
        round_timeout: Optional[float] = None,
        cost_model=None,
    ) -> None:
        self._network = network
        self.email = email
        self._shp = secure_hash_password(email, password)
        self.version = version
        self.image = bytes(image)
        self.net_addr = net_addr
        self.region = region
        self._key = generate_keypair(drbg.fork(b"async-client-key"), bits=key_bits)
        self.collector = collector or LatencyCollector()
        self.tracer = tracer
        self.user_ticket = None
        self.channel_ticket = None
        self.peers = ()
        self.errors: List[Exception] = []
        #: Per-round timeout.  When set, a lost request/reply surfaces
        #: as an ``RpcTimeoutError`` to ``on_fail`` instead of hanging
        #: forever -- the hook the resilience layer's retry loop uses.
        self.round_timeout = round_timeout
        #: Virtual cost charged for client-side compute; deterministic
        #: by default so transcripts reproduce bit-for-bit.
        self.cost_model = cost_model if cost_model is not None else FixedCostModel()

    @property
    def public_key(self):
        return self._key.public_key

    # ------------------------------------------------------------------
    # Tracing helpers: spans across async hops are parented explicitly
    # (the callback chain has no ambient stack to inherit from).
    # ------------------------------------------------------------------

    def _open_span(self, name: str, kind: str, parent=None) -> Optional[Span]:
        if self.tracer is None:
            return None
        span = self.tracer.start_span(
            name, now=self._network.sim.now, parent=parent, kind=kind
        )
        span.annotate("client", self.email)
        return span

    def _close_span(
        self, span: Optional[Span], error: Optional[Exception] = None
    ) -> None:
        if span is None:
            return
        if error is not None:
            span.annotate("error", type(error).__name__)
        self.tracer.finish(span, now=self._network.sim.now)

    @staticmethod
    def _ctx(span: Optional[Span]):
        return span.context if span is not None else None

    def _charge_compute(
        self, op: str, fn: Callable[[], None], then: Callable[[], None]
    ) -> None:
        """Run client-side work now; advance virtual time by its *modeled* cost.

        The work itself executes immediately (its result feeds the next
        message), but the virtual delay comes from the cost model, not
        the wall clock -- charging measured ``perf_counter`` durations
        here made event orderings nondeterministic run-to-run.  The
        measured duration is still passed to the model so the opt-in
        wall-clock mode can return it.
        """
        start = time.perf_counter()
        fn()
        measured = time.perf_counter() - start
        cost = self.cost_model.charge(op, measured)
        self._network.sim.schedule(cost, lambda sim: then())

    # ------------------------------------------------------------------
    # Login (two chained exchanges)
    # ------------------------------------------------------------------

    def start_login(
        self,
        um_address: str,
        on_done: Callable[[], None],
        on_fail: Optional[Callable[[Exception], None]] = None,
    ) -> None:
        """Begin the login flow; callbacks fire in virtual time."""
        sim = self._network.sim
        sent_at = sim.now
        op = self._open_span("LOGIN", kind="op")
        spans = {"round": self._open_span("LOGIN1", kind="round", parent=self._ctx(op))}

        def fail(exc: Exception) -> None:
            self._close_span(spans["round"], error=exc)
            self._close_span(op, error=exc)
            self.errors.append(exc)
            if on_fail is not None:
                on_fail(exc)

        def handle_login1(response: Login1Response) -> None:
            self.collector.record("LOGIN1", sent_at, sim.now - sent_at)
            self._close_span(spans["round"])
            state = {}

            def compute() -> None:
                state["request"], _ = build_login2_request(
                    self.email, self._key, self._shp, self.version, self.image, response
                )

            def send_round2() -> None:
                sent2_at = sim.now
                spans["round"] = self._open_span(
                    "LOGIN2", kind="round", parent=self._ctx(op)
                )

                def handle_login2(response2: Login2Response) -> None:
                    self.collector.record("LOGIN2", sent2_at, sim.now - sent2_at)
                    self._close_span(spans["round"])
                    self._close_span(op)
                    self.user_ticket = response2.ticket
                    on_done()

                self._network.call(
                    caller_address=self.net_addr,
                    caller_region=self.region,
                    dst_address=um_address,
                    method="login2",
                    payload=state["request"],
                    on_reply=handle_login2,
                    on_error=fail,
                    timeout=self.round_timeout,
                    trace=self._ctx(spans["round"]),
                )

            self._charge_compute(OP_LOGIN_BLOB, compute, send_round2)

        self._network.call(
            caller_address=self.net_addr,
            caller_region=self.region,
            dst_address=um_address,
            method="login1",
            payload=Login1Request(email=self.email, client_public_key=self.public_key),
            on_reply=handle_login1,
            on_error=fail,
            timeout=self.round_timeout,
            trace=self._ctx(spans["round"]),
        )

    # ------------------------------------------------------------------
    # Channel switch (two chained exchanges)
    # ------------------------------------------------------------------

    def start_switch(
        self,
        cm_address: str,
        channel_id: str,
        on_done: Callable[[Switch2Response], None],
        on_fail: Optional[Callable[[Exception], None]] = None,
    ) -> None:
        """Begin the switch flow for ``channel_id``."""
        if self.user_ticket is None:
            raise RuntimeError("login first")
        self._start_switch_rounds(
            cm_address,
            op_name="SWITCH",
            round_names=("SWITCH1", "SWITCH2"),
            request1=Switch1Request(
                user_ticket=self.user_ticket, channel_id=channel_id
            ),
            on_done=on_done,
            on_fail=on_fail,
        )

    def start_renewal(
        self,
        cm_address: str,
        on_done: Callable[[Switch2Response], None],
        on_fail: Optional[Callable[[Exception], None]] = None,
    ) -> None:
        """Begin renewal of the held Channel Ticket (Section IV-D)."""
        if self.user_ticket is None or self.channel_ticket is None:
            raise RuntimeError("switch first")
        self._start_switch_rounds(
            cm_address,
            op_name="RENEWAL",
            round_names=("RENEW1", "RENEW2"),
            request1=Switch1Request(
                user_ticket=self.user_ticket, expiring_ticket=self.channel_ticket
            ),
            on_done=on_done,
            on_fail=on_fail,
        )

    def _start_switch_rounds(
        self,
        cm_address: str,
        op_name: str,
        round_names,
        request1: Switch1Request,
        on_done: Callable[[Switch2Response], None],
        on_fail: Optional[Callable[[Exception], None]],
    ) -> None:
        """The shared SWITCH1+SWITCH2 exchange (fresh issue or renewal)."""
        sim = self._network.sim
        sent_at = sim.now
        round1_name, round2_name = round_names
        op = self._open_span(op_name, kind="op")
        spans = {
            "round": self._open_span(round1_name, kind="round", parent=self._ctx(op))
        }

        def fail(exc: Exception) -> None:
            self._close_span(spans["round"], error=exc)
            self._close_span(op, error=exc)
            self.errors.append(exc)
            if on_fail is not None:
                on_fail(exc)

        def handle_switch1(response1) -> None:
            self.collector.record(round1_name, sent_at, sim.now - sent_at)
            self._close_span(spans["round"])
            state = {}

            def compute() -> None:
                state["signature"] = answer_challenge(response1.token, self._key)

            def send_round2() -> None:
                sent2_at = sim.now
                spans["round"] = self._open_span(
                    round2_name, kind="round", parent=self._ctx(op)
                )

                def handle_switch2(response2: Switch2Response) -> None:
                    self.collector.record(round2_name, sent2_at, sim.now - sent2_at)
                    self._close_span(spans["round"])
                    self._close_span(op)
                    self.channel_ticket = response2.ticket
                    self.peers = response2.peers
                    on_done(response2)

                self._network.call(
                    caller_address=self.net_addr,
                    caller_region=self.region,
                    dst_address=cm_address,
                    method="switch2",
                    payload=switch2_request(
                        request1, response1.token, state["signature"]
                    ),
                    on_reply=handle_switch2,
                    on_error=fail,
                    timeout=self.round_timeout,
                    trace=self._ctx(spans["round"]),
                )

            self._charge_compute(OP_CHALLENGE_SIGN, compute, send_round2)

        self._network.call(
            caller_address=self.net_addr,
            caller_region=self.region,
            dst_address=cm_address,
            method="switch1",
            payload=request1,
            on_reply=handle_switch1,
            on_error=fail,
            timeout=self.round_timeout,
            trace=self._ctx(spans["round"]),
        )

    # ------------------------------------------------------------------
    # Peer join (single exchange)
    # ------------------------------------------------------------------

    def start_join(
        self,
        peer_address: str,
        on_done: Callable[[JoinAccept], None],
        on_fail: Optional[Callable[[Exception], None]] = None,
    ) -> None:
        """Begin the join exchange with one target peer."""
        sim = self._network.sim
        if self.channel_ticket is None:
            raise RuntimeError("switch first")
        sent_at = sim.now
        from repro.core.protocol import JoinReject, JoinRequest
        from repro.errors import CapacityError

        op = self._open_span("JOIN", kind="op")
        spans = {"round": self._open_span("JOIN1", kind="round", parent=self._ctx(op))}

        def fail(exc: Exception) -> None:
            self._close_span(spans["round"], error=exc)
            self._close_span(op, error=exc)
            self.errors.append(exc)
            if on_fail is not None:
                on_fail(exc)

        def handle_join(result) -> None:
            self.collector.record("JOIN", sent_at, sim.now - sent_at)
            if isinstance(result, JoinReject):
                fail(CapacityError(result.reason))
                return
            self._close_span(spans["round"])
            # Decrypt the session key (client compute), then done.
            state = {}

            def compute() -> None:
                state["session"] = SymmetricKey(
                    material=self._key.decrypt(result.encrypted_session_key)
                )

            def finish() -> None:
                self._close_span(op)
                on_done(result)

            self._charge_compute(OP_JOIN_DECRYPT, compute, finish)

        self._network.call(
            caller_address=self.net_addr,
            caller_region=self.region,
            dst_address=peer_address,
            method="join",
            payload=JoinRequest(channel_ticket=self.channel_ticket),
            on_reply=handle_join,
            on_error=fail,
            timeout=self.round_timeout,
            trace=self._ctx(spans["round"]),
        )
