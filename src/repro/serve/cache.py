"""Canonical-form segmented-LRU result cache with hit/miss/eviction metrics.

Keys are the canonical request hashes of
:func:`repro.serve.request.request_key`; values are the deterministic
``(value, steps, work)`` outcome dicts.  Because a key identifies the
*content* of a request, the cache doubles as the deduplicator: any two
requests over semantically equal trees with the same algorithm and
parameters share one entry.

Capacity semantics:

* ``capacity=None`` — unbounded (never evicts);
* ``capacity=0`` — disabled (every lookup misses, nothing is stored);
* ``capacity=k > 0`` — segmented LRU (Karedla, Love & Wherry, IEEE
  Computer 1994) over two LRU segments that share the ``k`` slots.  A
  new key enters *probation*.  A lookup that hits a probationary key
  moves it to *protected*, which holds at most ``⌊4k/5⌋`` entries
  (:data:`PROTECTED_SHARE`); when protected overflows, its least
  recently used entry drops back to the most recent end of probation.
  Eviction takes probation's least recently used entry only, so a key
  asked for twice outlives a run of one-off misses that would push it
  out of a plain LRU.  ``put`` of a present key refreshes it within its
  segment.  At ``k = 1`` protected holds nothing and the policy is
  exactly LRU.

The cache never influences response content — only whether a request
is recomputed — which the cache-correctness property tests pin down
by serving identical streams at capacities 0, k and ∞.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = ["CacheStats", "PROTECTED_SHARE", "ResultCache"]

#: Protected segment's share of a bounded capacity ``k``, as
#: ``(numerator, denominator)``: it holds at most ``⌊4k/5⌋`` entries.
PROTECTED_SHARE = (4, 5)


@dataclass
class CacheStats:
    """Counters accumulated over a cache's lifetime."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (0.0 when nothing was looked up)."""
        return self.hits / self.lookups if self.lookups else 0.0


class ResultCache:
    """Segmented-LRU mapping from canonical request key to outcome dict."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and (
            isinstance(capacity, bool) or not isinstance(capacity, int)
        ):
            raise ValueError(
                f"capacity must be an int or None, not {capacity!r}"
            )
        if capacity is not None and capacity < 0:
            raise ValueError("capacity must be >= 0 (or None for unbounded)")
        self.capacity = capacity
        self.stats = CacheStats()
        num, den = PROTECTED_SHARE
        # Unbounded never evicts, so its protected segment needs no bound.
        self._protected_cap = (
            None if capacity is None else capacity * num // den
        )
        self._probation: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._protected: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._probation) + len(self._protected)

    def __contains__(self, key: str) -> bool:
        return key in self._protected or key in self._probation

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Look one key up; a hit refreshes it, promoting a probationary
        key to protected."""
        entry = self._protected.get(key)
        if entry is not None:
            self._protected.move_to_end(key)
            self.stats.hits += 1
            return entry
        entry = self._probation.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        del self._probation[key]
        self._protected[key] = entry
        cap = self._protected_cap
        if cap is not None and len(self._protected) > cap:
            demoted, value = self._protected.popitem(last=False)
            self._probation[demoted] = value
        return entry

    def put(self, key: str, outcome: Dict[str, Any]) -> None:
        """Insert (or refresh) one entry; beyond capacity, evict
        probation's least recently used entry."""
        if self.capacity == 0:
            return
        probation, protected = self._probation, self._protected
        segment = protected if key in protected else probation
        if key in segment:
            segment[key] = outcome
            segment.move_to_end(key)
            return
        probation[key] = outcome
        self.stats.insertions += 1
        if (self.capacity is not None
                and len(probation) + len(protected) > self.capacity):
            probation.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop all entries (stats are preserved)."""
        self._probation.clear()
        self._protected.clear()
