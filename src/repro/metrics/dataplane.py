"""Data-plane instrumentation: cipher and forwarding counters.

The steady-state cost of the system is not the ticket pipeline but the
data plane: the Channel Server seals every media packet under the
rotating content key (Section IV-E), every peer opens each packet for
local playback and forwards it verbatim, and each key rotation fans
out one re-encrypted key message per tree link.  This module counts
that traffic -- bytes and packets through the seal/open paths, link
messages through the key fan-out, and raw keystream blocks -- so
benchmarks and operators can verify the vectorized fast path is doing
the work (and exactly the expected amount of it).

Like :mod:`repro.metrics.hotpath`, the module is deliberately
dependency-free (no imports from ``repro.core`` or ``repro.crypto``)
so the crypto layer can import it without a cycle.  Counters are plain
integers on a process-global instance: the simulator is
single-threaded and the real system would shard these per worker.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.block import CounterBlock


@dataclass
class DataplaneCounters(CounterBlock):
    """Process-wide counters for the media data plane."""

    #: Plaintext bytes sealed into content packets (Channel Server side).
    bytes_sealed: int = 0
    #: Ciphertext-body bytes successfully opened (client/peer side).
    bytes_opened: int = 0
    #: Content packets sealed.
    packets_sealed: int = 0
    #: Content packets successfully opened.
    packets_opened: int = 0
    #: Packet deliveries pushed down tree links by forwarding peers.
    packets_forwarded: int = 0
    #: Packets a peer could not decrypt and therefore refused to
    #: forward (lost authorization, or the channel was hijacked).
    packets_dropped_undecryptable: int = 0
    #: SHA-256 counter blocks generated by the keystream.
    keystream_blocks: int = 0
    #: Per-link re-encrypted key messages built by the fan-out path.
    fanout_messages: int = 0
    #: Batched fan-out invocations (one per key per forwarding peer).
    fanout_batches: int = 0


#: The process-global counter instance the library increments.
counters = DataplaneCounters()
