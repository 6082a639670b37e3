"""Segmented-LRU semantics and metrics of the canonical result cache.

Plain LRU, the baseline of the segmented policy, lives here only as a
reference model (:class:`_Lru`).  Run as a script, this file prints the
LRU-vs-cache miss grid of docs/serving.md:

    PYTHONPATH=src python tests/serve/test_cache.py
"""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import ResultCache, request_key, synthetic_stream


def _outcome(i):
    return {"value": float(i), "steps": i, "work": i}


def test_unbounded_cache_never_evicts():
    cache = ResultCache(None)
    for i in range(100):
        cache.put(f"k{i}", _outcome(i))
    assert len(cache) == 100
    assert cache.stats.insertions == 100
    assert cache.stats.evictions == 0
    assert cache.get("k0") == _outcome(0)


def test_disabled_cache_stores_nothing():
    cache = ResultCache(0)
    cache.put("k", _outcome(1))
    assert len(cache) == 0
    assert cache.get("k") is None
    assert cache.stats.misses == 1
    assert cache.stats.insertions == 0


def test_lru_evicts_least_recently_used():
    cache = ResultCache(2)
    cache.put("a", _outcome(1))
    cache.put("b", _outcome(2))
    assert cache.get("a") is not None  # refresh "a": "b" is now LRU
    cache.put("c", _outcome(3))
    assert "b" not in cache
    assert "a" in cache and "c" in cache
    assert cache.stats.evictions == 1


def test_put_refreshes_recency_without_reinserting():
    cache = ResultCache(2)
    cache.put("a", _outcome(1))
    cache.put("b", _outcome(2))
    cache.put("a", _outcome(10))  # refresh + overwrite, no new slot
    assert cache.stats.insertions == 2
    cache.put("c", _outcome(3))
    assert "b" not in cache
    assert cache.get("a") == _outcome(10)


def test_eviction_order_is_insertion_order_without_lookups():
    cache = ResultCache(3)
    for key in ("a", "b", "c", "d", "e"):
        cache.put(key, _outcome(0))
    assert list(["c" in cache, "d" in cache, "e" in cache]) == [True] * 3
    assert "a" not in cache and "b" not in cache
    assert cache.stats.evictions == 2


def test_hit_miss_counters_and_hit_rate():
    cache = ResultCache(None)
    assert cache.stats.hit_rate == 0.0
    cache.put("a", _outcome(1))
    assert cache.get("a") is not None
    assert cache.get("nope") is None
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.lookups == 2
    assert cache.stats.hit_rate == pytest.approx(0.5)


def test_clear_drops_entries_but_keeps_stats():
    cache = ResultCache(None)
    cache.put("a", _outcome(1))
    cache.get("a")
    cache.clear()
    assert len(cache) == 0
    assert cache.stats.hits == 1
    assert cache.stats.insertions == 1


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        ResultCache(-1)


@pytest.mark.parametrize("capacity", [2.5, 8.0, True, False, "8"])
def test_non_int_capacity_rejected(capacity):
    with pytest.raises(ValueError):
        ResultCache(capacity)


# ---------------------------------------------------------------------------
# reference models
# ---------------------------------------------------------------------------
class _Lru:
    """Plain LRU: the baseline the segmented policy is checked against."""

    def __init__(self, capacity):
        self.capacity, self.entries = capacity, OrderedDict()

    def get(self, key):
        if key in self.entries:
            self.entries.move_to_end(key)
        return self.entries.get(key)

    def put(self, key, outcome):
        if self.capacity != 0:
            self.entries[key] = outcome
            self.entries.move_to_end(key)
            if self.capacity is not None and len(self.entries) > self.capacity:
                self.entries.popitem(last=False)


class _SlruModel:
    """Segmented LRU written straight from its statement, on two lists."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.protected_cap = None if capacity is None else 4 * capacity // 5
        self.probation, self.protected, self.values = [], [], {}
        self.hits = self.misses = self.insertions = self.evictions = 0

    def get(self, key):
        if key in self.protected:
            self.protected.remove(key)
        elif key in self.probation:
            self.probation.remove(key)
        else:
            self.misses += 1
            return None
        self.hits += 1
        self.protected.append(key)
        if (self.protected_cap is not None
                and len(self.protected) > self.protected_cap):
            self.probation.append(self.protected.pop(0))
        return self.values[key]

    def put(self, key, outcome):
        if self.capacity == 0:
            return
        self.values[key] = outcome
        for segment in (self.protected, self.probation):
            if key in segment:
                segment.remove(key)
                segment.append(key)
                return
        self.probation.append(key)
        self.insertions += 1
        if (self.capacity is not None
                and len(self.probation) + len(self.protected) > self.capacity):
            del self.values[self.probation.pop(0)]
            self.evictions += 1


def _segments(cache):
    """The cache's (probation, protected) keys, least recent first."""
    return list(cache._probation), list(cache._protected)


def _contents(cache):
    return {**cache._probation, **cache._protected}


# ---------------------------------------------------------------------------
# segmented-LRU policy
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("capacity", [2, 5, 8, 256])
def test_key_hit_once_survives_a_scan_of_capacity_fresh_keys(capacity):
    cache, lru = ResultCache(capacity), _Lru(capacity)
    for model in (cache, lru):
        model.put("hot", _outcome(1))
        assert model.get("hot") == _outcome(1)
        for i in range(capacity):
            model.put(f"scan{i}", _outcome(i))
    assert "hot" in cache
    assert lru.get("hot") is None  # plain LRU loses it: the test is live
    assert len(cache) == capacity
    assert cache.stats.evictions == 1


def test_protected_overflow_drops_back_to_probation_mru():
    cache = ResultCache(6)  # protected holds 4
    for key in "abcdef":
        cache.put(key, _outcome(0))
    for key in "abcde":
        cache.get(key)
    assert _segments(cache) == (["f", "a"], ["b", "c", "d", "e"])
    cache.put("g", _outcome(0))  # evicts "f", probation's LRU
    assert _segments(cache) == (["a", "g"], ["b", "c", "d", "e"])
    cache.put("c", _outcome(9))  # a refresh stays in protected
    assert _segments(cache) == (["a", "g"], ["b", "d", "e", "c"])
    assert cache.get("c") == _outcome(9)


# Long enough that capacity 8 fills and overflows protected while
# probation holds other keys.
_OPS = st.lists(
    st.tuples(st.sampled_from(["get", "put"]),
              st.integers(min_value=0, max_value=9)),
    min_size=30, max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(capacity=st.sampled_from([0, 1, 2, 3, 5, 8, None]), ops=_OPS)
def test_cache_matches_segmented_lru_model(capacity, ops):
    cache, model = ResultCache(capacity), _SlruModel(capacity)
    for step, (op, key) in enumerate(ops):
        if op == "get":
            assert cache.get(key) == model.get(key)
        else:
            cache.put(key, _outcome(step))
            model.put(key, _outcome(step))
        assert _segments(cache) == (model.probation, model.protected)
        assert _contents(cache) == model.values
        if capacity is not None:
            assert len(cache) <= capacity
            assert len(cache._protected) <= 4 * capacity // 5
        stats = cache.stats
        assert stats.insertions - stats.evictions == len(cache)
        assert (stats.hits, stats.misses, stats.insertions,
                stats.evictions) == (model.hits, model.misses,
                                     model.insertions, model.evictions)


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_capacity_one_is_plain_lru(ops):
    cache, lru = ResultCache(1), _Lru(1)
    for step, (op, key) in enumerate(ops):
        if op == "get":
            assert cache.get(key) == lru.get(key)
        else:
            cache.put(key, _outcome(step))
            lru.put(key, _outcome(step))
        assert list(_contents(cache).items()) == list(lru.entries.items())


# ---------------------------------------------------------------------------
# traffic: miss counts on the repo's own request streams
# ---------------------------------------------------------------------------
def _key_stream(zipf_s, num_trees, num_requests=4000, seed=1):
    return [
        request_key(req) for req in synthetic_stream(
            num_requests, seed=seed, num_trees=num_trees, zipf_s=zipf_s
        )
    ]


def _misses(cache, keys, batch=8):
    """Replay ``keys`` as ``serve()`` does: per batch, each distinct key
    is looked up once, then every miss is stored."""
    misses = 0
    for start in range(0, len(keys), batch):
        missed = [k for k in dict.fromkeys(keys[start:start + batch])
                  if cache.get(k) is None]
        for key in missed:
            cache.put(key, {})
        misses += len(missed)
    return misses


@pytest.mark.parametrize("zipf_s", [0.0, 1.2, 1.5])
@pytest.mark.parametrize("num_trees,capacities", [(12, (1, 8)),
                                                  (64, (64, 256))])
def test_never_misses_more_than_lru_on_zipf_traffic(
    zipf_s, num_trees, capacities
):
    keys = _key_stream(zipf_s, num_trees)
    for capacity in capacities:
        slru = _misses(ResultCache(capacity), keys)
        lru = _misses(_Lru(capacity), keys)
        assert slru <= lru, (capacity, slru, lru)
        if (zipf_s, num_trees, capacity) == (1.2, 64, 256):
            assert slru < lru


if __name__ == "__main__":
    GRID = [(12, 1), (12, 2), (12, 4), (12, 8), (12, 16), (12, 32),
            (64, 16), (64, 64), (64, 256), (200, 256)]
    SKEWS = (0.0, 0.8, 1.2, 1.5)
    N = 20000
    print(f"Misses of ResultCache / plain LRU, {N} synthetic_stream "
          "requests (seed 1), deduplicated per batch of 8.\n")
    print("| pool | capacity | " + " | ".join(f"s={s}" for s in SKEWS)
          + " |")
    print("|---:|---:|" + "---:|" * len(SKEWS))
    streams = {(s, pool): _key_stream(s, pool, N)
               for s in SKEWS for pool in sorted({p for p, _ in GRID})}
    for pool, capacity in GRID:
        cells = []
        for s in SKEWS:
            keys = streams[s, pool]
            slru = _misses(ResultCache(capacity), keys)
            lru = _misses(_Lru(capacity), keys)
            cells.append(f"{slru}/{lru} ({slru / lru:.2f})")
        print(f"| {pool} | {capacity} | " + " | ".join(cells) + " |")
