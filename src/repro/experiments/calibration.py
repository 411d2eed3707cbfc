"""Calibration: measure the real implementation's per-request costs.

The week-long timing simulation replays millions of requests, far too
many to execute through the full cryptographic stack in pure Python.
Instead, the simulator charges each request a *service time* -- and
this module is where those service times come from: it runs the actual
functional handlers (:meth:`UserManager.login1`/``login2``,
:meth:`ChannelManager.switch1`/``switch2``, :meth:`Peer.handle_join`)
under a wall-clock microbenchmark and reports the measured means.

This closes the substitution loop documented in DESIGN.md: the
simulator's constants are not invented, they are measurements of the
very code this repository ships.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict

from repro.core.challenge import answer_challenge
from repro.core.client import switch2_request
from repro.core.protocol import JoinRequest, Login1Request, Switch1Request
from repro.deployment import Deployment
from repro.experiments.common import ServiceTimes


@dataclass
class CalibrationReport:
    """Measured mean seconds per operation, by protocol round."""

    login1: float
    login2: float
    switch1: float
    switch2: float
    join_peer: float
    client_compute: float

    def as_service_times(self) -> ServiceTimes:
        """Feed the measurements into the simulator's configuration."""
        return ServiceTimes(
            login1=self.login1,
            login2=self.login2,
            switch1=self.switch1,
            switch2=self.switch2,
            join_peer=self.join_peer,
            client_compute=self.client_compute,
        )


def _time_op(operation: Callable[[int], None], repetitions: int) -> float:
    """Mean wall-clock seconds of ``operation`` over ``repetitions``."""
    start = time.perf_counter()
    for i in range(repetitions):
        operation(i)
    return (time.perf_counter() - start) / repetitions


def calibrate(repetitions: int = 30, seed: int = 99) -> CalibrationReport:
    """Run the functional protocol handlers under a microbenchmark.

    Builds a small deployment, then times each handler in isolation.
    The client-side compute bucket times one RSA signature (the
    dominant client cost between rounds).
    """
    deployment = Deployment(seed=seed)
    deployment.add_free_channel("cal", regions=["CH"])
    client = deployment.create_client("cal@example.org", "pw", region="CH")
    user_manager = deployment.user_managers["domain-0"]
    channel_manager = deployment.channel_manager_for("cal")

    now = 0.0
    # Warm state: a logged-in, ticketed, joined client.
    client.login(now)
    response = client.switch_channel("cal", now)
    peer = deployment.make_peer(client, "cal", capacity=10_000)
    deployment.overlay("cal").join(peer, response.peers, now)

    # LOGIN1 in isolation (does not mutate client state).
    login1_request = Login1Request(email=client.email, client_public_key=client.public_key)
    t_login1 = _time_op(lambda i: user_manager.login1(login1_request, now), repetitions)

    # SWITCH1 in isolation (fresh challenge each call).  All calls use
    # the warm client's current tickets at a fixed `now`, so validity
    # windows hold for every repetition.
    switch1_request = Switch1Request(user_ticket=client.user_ticket, channel_id="cal")
    t_switch1 = _time_op(
        lambda i: channel_manager.switch1(switch1_request, now), repetitions
    )

    # SWITCH2 in isolation: pre-answer a challenge per iteration.
    def run_switch2(i: int) -> None:
        token = channel_manager.switch1(switch1_request, now).token
        signature = answer_challenge(token, client.private_key)
        channel_manager.switch2(
            switch2_request(switch1_request, token, signature),
            observed_addr=client.net_addr,
            now=now,
        )

    t_switch2_total = _time_op(run_switch2, max(5, repetitions // 3))
    t_switch2 = max(1e-6, t_switch2_total - t_switch1)

    # JOIN at a peer (admission handler only).
    join_request = JoinRequest(channel_ticket=client.channel_ticket)
    t_join = _time_op(
        lambda i: peer.handle_join(join_request, observed_addr=client.net_addr, now=now),
        repetitions,
    )

    # Full login minus LOGIN1 gives LOGIN2 + client compute.  Timed
    # last because it replaces the client's User Ticket.
    t_full_login = _time_op(lambda i: client.login(now), max(5, repetitions // 3))

    # Client compute: one RSA signature over a nonce-sized payload.
    payload = b"x" * 48
    t_sign = _time_op(lambda i: client.private_key.sign(payload), repetitions)

    t_login2 = max(1e-6, t_full_login - t_login1 - 2 * t_sign)
    return CalibrationReport(
        login1=t_login1,
        login2=t_login2,
        switch1=t_switch1,
        switch2=t_switch2,
        join_peer=t_join,
        client_compute=t_sign,
    )
