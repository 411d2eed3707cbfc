"""Gather-and-sort reference for :meth:`CandidateIndex.top_remote`.

The index answers the proximity-0 list with a lazy k-way merge across
its remote region buckets.  This oracle is the former body: pop the
``count`` best matching entries from *every* remote bucket, sort the
union by the shared ranking key and keep ``count``.  It examines about
``buckets x count`` candidates where the merge examines about
``count``, but both return the same list from any index state, since
ranking keys are unique (they end in the peer id).
``tests/p2p/test_index.py`` pins the merge against it.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from repro.metrics.selection import counters
from repro.p2p.index import CandidateIndex, PeerFilter


def _take(
    index: CandidateIndex,
    heap: List,
    count: int,
    exclude_addr: Optional[str],
    accept: Optional[PeerFilter],
    exclude_asn: int,
) -> List:
    """Pop one bucket's ``count`` best matching entries, dropping stale
    tuples, then push every valid tuple back."""
    popped = []
    out = []
    while heap and len(out) < count:
        item = heapq.heappop(heap)
        entry = index._entries.get(item[3])
        if entry is None or not entry.eligible or item[4] != entry.token:
            counters.stale_entries_skipped += 1
            continue
        popped.append(item)
        counters.candidates_considered += 1
        if exclude_addr is not None and entry.address == exclude_addr:
            continue
        if exclude_asn and entry.asn == exclude_asn:
            continue
        if accept is not None and not accept(entry.peer):
            continue
        out.append(entry)
    for item in popped:
        heapq.heappush(heap, item)
    return out


def gather_top_remote(
    index: CandidateIndex,
    record,
    count: int,
    exclude_addr: Optional[str] = None,
    accept: Optional[PeerFilter] = None,
) -> List:
    """``top_remote`` by gathering ``count`` per bucket, then sorting."""
    if count <= 0:
        return []
    region = getattr(record, "region", None) if record is not None else None
    asn = getattr(record, "asn", 0) if record is not None else 0
    gathered = []
    for name, bucket in index._by_region.items():
        if name == region:
            continue
        gathered.extend(
            _take(index, bucket.heap, count, exclude_addr, accept, exclude_asn=asn)
        )
    gathered.sort(key=lambda entry: entry.key())
    return [entry.peer for entry in gathered[:count]]
