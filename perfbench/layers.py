"""Traced layer split: wall time of a workload attributed to its layers.

The split is taken from outside the program.  :class:`LayerTracer`
replaces the public entry points of each layer's module with a wrapper
that times the call and charges its *self* time (its duration minus
the time covered by nested wrapped calls) to the layer.  Wrapping
happens before the workload builds any object, so no bound method
escapes it, and module-level functions are replaced in every loaded
``repro`` module that imported them by name.

Everything outside a wrapped call -- the benchmark's own loop, code
between entry points -- is ``other``: the traced wall time minus the
time the outermost wrapped calls covered.  Each wrapper charges its
duration minus its children's to its layer and its whole duration to
its parent (or to the covered time), so the layer self times plus
``other`` equal the traced wall time by construction.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: layer -> [(module, attribute path)].  An attribute path is either a
#: module-level function or ``Class.method``.
LAYER_MAP: Dict[str, List[Tuple[str, str]]] = {
    "crypto.rsa": [
        ("repro.crypto.rsa", "RsaPrivateKey.sign"),
        ("repro.crypto.rsa", "RsaPrivateKey.decrypt"),
        ("repro.crypto.rsa", "RsaPublicKey.verify"),
        ("repro.crypto.rsa", "RsaPublicKey.encrypt"),
    ],
    "crypto.rsa.keygen": [("repro.crypto.rsa", "generate_keypair")],
    "crypto.drbg": [("repro.crypto.drbg", "HmacDrbg.generate")],
    "crypto.stream": [
        ("repro.crypto.stream", "SymmetricKey.encrypt"),
        ("repro.crypto.stream", "SymmetricKey.encrypt_many"),
        ("repro.crypto.stream", "SymmetricKey.decrypt"),
    ],
    "core.packets": [
        ("repro.core.packets", "encrypt_packet"),
        ("repro.core.packets", "encrypt_packets"),
        ("repro.core.packets", "decrypt_packet"),
        ("repro.core.packets", "reencrypt_key_for_link"),
        ("repro.core.packets", "reencrypt_key_for_links"),
        ("repro.core.packets", "decrypt_key_from_link"),
        ("repro.core.packets", "ContentPacket.to_bytes"),
        ("repro.core.packets", "ContentPacket.from_bytes"),
    ],
    "core.tickets": [
        ("repro.core.tickets", f"{cls}.{name}")
        for cls in ("UserTicket", "ChannelTicket")
        for name in ("signed", "verify", "to_bytes", "from_bytes")
    ],
    "core.policy": [("repro.core.policy_index", "CompiledPolicyIndex.evaluate")],
    "core.user_manager": [
        ("repro.core.user_manager", "UserManager.login1"),
        ("repro.core.user_manager", "UserManager.login2"),
    ],
    "core.channel_manager": [
        ("repro.core.channel_manager", "ChannelManager.switch1"),
        ("repro.core.channel_manager", "ChannelManager.switch2"),
    ],
    "core.client": [
        ("repro.core.client", "Client.login"),
        ("repro.core.client", "Client.switch_channel"),
        ("repro.core.client", "Client.receive_packet"),
        ("repro.core.client", "Client.receive_key_update"),
    ],
    "p2p.selection": [
        ("repro.p2p.selection", "RankedPeerListProvider.__call__"),
        ("repro.p2p.selection", "RankedPeerListProvider.select_repair"),
        ("repro.p2p.selection", "RegionAwarePeerSampler.__call__"),
    ],
    "p2p.index": [
        ("repro.p2p.index", f"CandidateIndex.{name}")
        for name in (
            "top_local", "top_remote", "sample_eligible", "sample_region",
            "sample_outside_region", "add_peer", "remove_peer", "update_peer",
            "set_admissible",
        )
    ],
    "p2p.overlay": [
        ("repro.p2p.overlay", "ChannelOverlay.join"),
        ("repro.p2p.overlay", "ChannelOverlay.remove_peer"),
    ],
    "p2p.peer": [
        ("repro.p2p.peer", "Peer.handle_join"),
        ("repro.p2p.peer", "Peer.push_key_update"),
        ("repro.p2p.peer", "Peer.forward_packet"),
        ("repro.p2p.peer", "Peer.deliver_packet"),
    ],
    "sim.engine": [("repro.sim.engine", "Simulator.run")],
    "sim.station": [("repro.sim.station", "ServiceStation.submit")],
    "sim.rpc": [("repro.sim.rpc", "VirtualNetwork.call")],
    "sim.driver": [
        ("repro.sim.driver", f"AsyncClient.{name}")
        for name in (
            "start_login", "start_switch", "start_renewal",
            "_start_switch_rounds", "start_join", "_charge_compute",
        )
    ],
    "workload": [
        ("repro.workload.flashcrowd", "FlashCrowdWorkload._materialize"),
        ("repro.workload.flashcrowd", "FlashCrowdWorkload.events"),
        ("repro.workload.traces", "WeekTraceGenerator.generate"),
    ],
    "metrics.collector": [("repro.metrics.collector", "LatencyCollector.record")],
    "trace": [
        ("repro.trace.span", "Tracer.start_span"),
        ("repro.trace.span", "Tracer.finish"),
    ],
}

LAYERS: List[str] = list(LAYER_MAP) + ["other"]

#: Ratio and count metrics read from the program's counter blocks,
#: with their units, in report order.
COUNTER_METRICS: Dict[str, str] = {
    "crypto.rsa.private_ops": "count",
    "crypto.drbg.bytes_per_call": "bytes",
    "core.tickets.cache_hit_ratio": "ratio",
    "crypto.stream.bytes_sealed": "bytes",
    "crypto.stream.bytes_opened": "bytes",
    "p2p.peer.fanout_messages": "count",
    "p2p.peer.packets_dropped_undecryptable": "count",
    "p2p.selection.candidates_per_request": "count",
    "p2p.index.stale_ratio": "ratio",
    "p2p.overlay.join_attempts_per_join": "count",
    "p2p.overlay.repair_success_ratio": "ratio",
    "p2p.overlay.remove_peer_incl_s": "s",
    "sim.engine.events": "count",
    "sim.station.wait_vs": "s",
    "resilience.retries": "count",
    "resilience.failovers": "count",
    "trace.spans": "count",
    "tracing_overhead": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(COUNTER_METRICS)
    return units


def _resolve(path: str, module) -> Tuple[object, str]:
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class LayerTracer:
    """Self-time accounting over wrapped layer entry points."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYER_MAP}
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYER_MAP}
        #: Sum of the durations of outermost wrapped calls; the layer
        #: self times add up to exactly this by construction.
        self.covered_s = 0.0
        #: Inclusive wall time per wrapped entry point ("Class.method"),
        #: counting only its outermost call when it recurses.
        self.inclusive_s: Dict[str, float] = {}
        self._open: Dict[str, int] = {}
        self.drbg_bytes = 0
        self.sim_events = 0
        self.stations: Dict[int, object] = {}
        self._stack: List[List[float]] = []
        #: Undo actions for :meth:`uninstall`, in install order.
        self._restore: List[Callable[[], None]] = []

    # ------------------------------------------------------------------

    def _wrap(
        self, layer: str, path: str, fn: Callable, probe: Optional[Callable] = None
    ) -> Callable:
        stack = self._stack
        inclusive = self.inclusive_s
        inclusive[path] = 0.0
        open_calls = self._open
        open_calls[path] = 0
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            open_calls[path] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self_s[layer] += duration - frame[0]
                open_calls[path] -= 1
                if not open_calls[path]:
                    inclusive[path] += duration
                calls[layer] += 1
                if stack:
                    stack[-1][0] += duration
                else:
                    tracer.covered_s += duration
                if probe is not None:
                    probe(args, kwargs)

        return wrapper

    def _probe_for(self, path: str) -> Optional[Callable]:
        if path == "HmacDrbg.generate":
            def probe(args, kwargs):
                self.drbg_bytes += args[1] if len(args) > 1 else kwargs["nbytes"]
            return probe
        if path == "ServiceStation.submit":
            def probe(args, kwargs):
                self.stations[id(args[0])] = args[0]
            return probe
        return None

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYER_MAP`."""
        for layer, entries in LAYER_MAP.items():
            for module_name, path in entries:
                module = importlib.import_module(module_name)
                owner, attr = _resolve(path, module)
                probe = self._probe_for(path)
                if path == "Simulator.run":
                    self._install_engine(owner, layer, path)
                    continue
                if inspect.isclass(owner):
                    raw = inspect.getattr_static(owner, attr)
                    if isinstance(raw, classmethod):
                        setattr(owner, attr, classmethod(self._wrap(layer, path, raw.__func__, probe)))
                    else:
                        setattr(owner, attr, self._wrap(layer, path, raw, probe))
                    self._restore.append(functools.partial(setattr, owner, attr, raw))
                else:
                    original = getattr(owner, attr)
                    wrapped = self._wrap(layer, path, original, probe)
                    _rebind_everywhere(original, wrapped)
                    self._restore.append(functools.partial(_rebind_everywhere, wrapped, original))

    def uninstall(self) -> None:
        """Put back every entry point :meth:`install` wrapped.  Objects
        built while it was installed keep any wrapped bound methods."""
        while self._restore:
            self._restore.pop()()

    def _install_engine(self, simulator_cls, layer: str, path: str) -> None:
        """``Simulator.run`` also reports the events it processed."""
        original = simulator_cls.run

        def run_counting(sim, *args, **kwargs):
            before = sim.events_processed
            try:
                return original(sim, *args, **kwargs)
            finally:
                self.sim_events += sim.events_processed - before

        simulator_cls.run = self._wrap(
            layer, path, functools.wraps(original)(run_counting)
        )
        self._restore.append(functools.partial(setattr, simulator_cls, "run", original))

    # ------------------------------------------------------------------

    def station_wait(self) -> float:
        """Mean virtual queue wait per completed request (s)."""
        completions = sum(s.stats.completions for s in self.stations.values())
        if not completions:
            return 0.0
        waited = sum(
            max(0.0, s.stats.total_sojourn - s.stats.busy_time)
            for s in self.stations.values()
        )
        return waited / completions

    def split(self, wall_s: float) -> Tuple[Dict[str, Tuple[int, float]], List[str]]:
        """``{layer: (calls, self_s)}`` including ``other``, and problems.

        ``other`` is the traced wall time the outermost wrapped calls did
        not cover.  A wrapped call still open, or covered time longer
        than the window, means a wrapper ran outside the traced window.
        """
        problems: List[str] = []
        if self._stack:
            problems.append(f"{len(self._stack)} wrapped calls still open")
        other = wall_s - self.covered_s
        if other < -1e-6 * max(1.0, wall_s):
            problems.append(
                f"wrapped calls covered {self.covered_s:.6f}s of a {wall_s:.6f}s window"
            )
        out = {layer: (self.calls[layer], self.self_s[layer]) for layer in LAYER_MAP}
        out["other"] = (0, max(0.0, other))
        return out, problems


def _rebind_everywhere(original: Callable, wrapped: Callable) -> None:
    """Replace ``original`` in every loaded ``repro`` module that bound it
    by name (``from module import function``)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


# ----------------------------------------------------------------------
# Counter blocks, read as deltas around the traced window
# ----------------------------------------------------------------------


def _blocks():
    from repro.metrics.dataplane import counters as dataplane
    from repro.metrics.hotpath import counters as hotpath
    from repro.metrics.selection import counters as selection

    return {"hotpath": hotpath, "dataplane": dataplane, "selection": selection}


@dataclass
class CounterMark:
    values: Dict[str, Dict[str, int]]

    @staticmethod
    def take() -> "CounterMark":
        return CounterMark({name: block.snapshot() for name, block in _blocks().items()})

    def delta(self) -> Dict[str, Dict[str, int]]:
        now = CounterMark.take().values
        return {
            block: {key: now[block][key] - self.values[block][key] for key in now[block]}
            for block in now
        }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_metrics(
    tracer: LayerTracer,
    delta: Dict[str, Dict[str, int]],
    workload_counts: Dict[str, float],
    overhead: float,
) -> Dict[str, float]:
    """The :data:`COUNTER_METRICS` values for one traced window.

    ``workload_counts`` carries the per-instance counters the workload
    read off its own objects (overlay join attempts, repair outcomes,
    resilience retries/failovers, tracer spans).
    """
    hot, data, sel = delta["hotpath"], delta["dataplane"], delta["selection"]
    joins = workload_counts.get("joins", 0) + workload_counts.get("repairs", 0)
    return {
        "crypto.rsa.private_ops": hot["rsa_private_ops"],
        "crypto.drbg.bytes_per_call": _ratio(tracer.drbg_bytes, tracer.calls["crypto.drbg"]),
        "core.tickets.cache_hit_ratio": _ratio(
            hot["ticket_cache_hits"], hot["ticket_cache_hits"] + hot["ticket_cache_misses"]
        ),
        "crypto.stream.bytes_sealed": data["bytes_sealed"],
        "crypto.stream.bytes_opened": data["bytes_opened"],
        "p2p.peer.fanout_messages": data["fanout_messages"],
        "p2p.peer.packets_dropped_undecryptable": data["packets_dropped_undecryptable"],
        "p2p.selection.candidates_per_request": _ratio(
            sel["candidates_considered"], sel["requests"]
        ),
        "p2p.index.stale_ratio": _ratio(
            sel["stale_entries_skipped"],
            sel["stale_entries_skipped"] + sel["candidates_considered"],
        ),
        "p2p.overlay.join_attempts_per_join": _ratio(
            workload_counts.get("join_attempts", 0), joins
        ),
        "p2p.overlay.repair_success_ratio": _ratio(
            workload_counts.get("repairs_ok", 0), workload_counts.get("repairs", 0)
        ),
        "p2p.overlay.remove_peer_incl_s": tracer.inclusive_s["ChannelOverlay.remove_peer"],
        "sim.engine.events": tracer.sim_events,
        "sim.station.wait_vs": tracer.station_wait(),
        "resilience.retries": workload_counts.get("retries", 0),
        "resilience.failovers": workload_counts.get("failovers", 0),
        "trace.spans": workload_counts.get("spans", 0),
        "tracing_overhead": overhead,
    }
