"""Behavioural cache simulator: LRU set-associative arrays, victim caches,
prefetching, and the two-level hierarchy of Tables II-III."""

from repro.cache.hierarchy import CachePort, LatencyConfig, MemoryHierarchy
from repro.cache.prefetch import NextLinePrefetcher, PrefetchStats
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.stats import CacheStats, HierarchyStats
from repro.cache.victim import VictimCache

__all__ = [
    "SetAssociativeCache",
    "VictimCache",
    "MemoryHierarchy",
    "CachePort",
    "LatencyConfig",
    "NextLinePrefetcher",
    "PrefetchStats",
    "CacheStats",
    "HierarchyStats",
]
