"""The shared counter-block base and the keys its users read."""

import pytest

from repro.metrics.dataplane import counters as dataplane_counters
from repro.metrics.hotpath import counters as hotpath_counters
from repro.metrics.selection import counters as selection_counters
from repro.metrics.sharding import ShardingCounters
from repro.resilience.counters import ResilienceCounters


def test_snapshot_keys_of_process_global_blocks():
    """Benchmarks and reports read these blocks by key name."""
    assert list(hotpath_counters.snapshot()) == [
        "rsa_private_ops", "rsa_crt_ops", "rsa_verifies", "ticket_cache_hits",
        "ticket_cache_misses", "policy_index_builds", "policy_index_evals",
    ]
    assert list(dataplane_counters.snapshot()) == [
        "bytes_sealed", "bytes_opened", "packets_sealed", "packets_opened",
        "packets_forwarded", "packets_dropped_undecryptable",
        "keystream_blocks", "fanout_messages", "fanout_batches",
    ]
    assert list(selection_counters.snapshot()) == [
        "requests", "index_hits", "fallback_scans", "candidates_considered",
        "stale_entries_skipped", "index_events", "rebuilds", "verify_checks",
    ]


def test_reset_restores_field_defaults():
    block = ResilienceCounters(retries=3, degraded_seconds=2.5)
    block.reset()
    assert block == ResilienceCounters()
    assert isinstance(block.degraded_seconds, float)


def test_merge_and_delta_since():
    block = ShardingCounters()
    mark = block.snapshot()
    block.merge({"keys_moved": 4, "ring_lookups": 1})
    delta = block.delta_since(mark)
    assert delta["keys_moved"] == 4 and delta["ring_lookups"] == 1
    assert sum(delta.values()) == 5
    with pytest.raises(ValueError, match="unknown"):
        block.merge({"not_a_counter": 1})
