"""Behavioural cache simulator: set-associative arrays, victim caches,
replacement policies, prefetching, and the two-level hierarchy of Tables
II-III."""

from repro.cache.hierarchy import CachePort, LatencyConfig, MemoryHierarchy
from repro.cache.prefetch import NextLinePrefetcher, PrefetchStats
from repro.cache.replacement import (
    FIFOPolicy,
    LRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    make_policy,
)
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
    "ReplacementPolicy",
    "LRUPolicy",
    "FIFOPolicy",
    "RandomPolicy",
    "make_policy",
    "CacheStats",
    "HierarchyStats",
]
