"""Cell-level fault maps for SRAM arrays operated below Vcc-min.

The paper's methodology (Section V): faults occur at the granularity of a
cell, uniformly at random, with probability ``pfail`` per cell (0.001 in the
evaluation, matching Wilkerson et al.).  A *fault map* records which cells of
a cache array would fail at low voltage; it is measured once at boot by a
low-voltage memory test and then consulted by whichever disabling scheme the
cache implements.

A :class:`FaultMap` is a boolean matrix of shape ``(d, k)`` — ``d`` blocks by
``k`` cells per block — over the *complete* block contents laid out as::

    [ data bits | tag bits | valid bit(s) ]

Schemes interpret the same substrate differently:

* block-disabling looks at **all** cells (a fault in data, tag, or valid
  disables the block);
* word-disabling looks at **data cells only**, because it rebuilds the tag
  array out of fault-immune 10T cells (Section II).

Everything is NumPy-vectorised; generating the paper's 50 fault-map pairs
for a 32KB cache takes milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.faults.geometry import CacheGeometry


def _as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class FaultMap:
    """Faulty-cell map of one cache array.

    Attributes
    ----------
    geometry:
        The array's shape (defines ``d``, ``k``, and the data/tag split).
    faults:
        Boolean matrix of shape ``(num_blocks, cells_per_block)``; ``True``
        marks a cell that fails below Vcc-min.
    pfail:
        The per-cell failure probability the map was drawn with (metadata;
        0.0 for an empty map).
    """

    geometry: CacheGeometry
    faults: np.ndarray
    pfail: float = 0.0

    def __post_init__(self) -> None:
        expected = (self.geometry.num_blocks, self.geometry.cells_per_block)
        if self.faults.shape != expected:
            raise ValueError(
                f"fault matrix shape {self.faults.shape} does not match "
                f"geometry {expected}"
            )
        if self.faults.dtype != np.bool_:
            raise ValueError("fault matrix must be boolean")

    # ----- constructors ----------------------------------------------------------

    @classmethod
    def generate(
        cls,
        geometry: CacheGeometry,
        pfail: float,
        seed: int | np.random.Generator | None = None,
    ) -> "FaultMap":
        """Draw a uniform random fault map: every cell fails independently
        with probability ``pfail`` (the paper's fault model)."""
        if not 0.0 <= pfail <= 1.0:
            raise ValueError(f"pfail must be a probability, got {pfail!r}")
        rng = _as_rng(seed)
        shape = (geometry.num_blocks, geometry.cells_per_block)
        faults = rng.random(shape) < pfail
        return cls(geometry=geometry, faults=faults, pfail=pfail)

    @classmethod
    def generate_batch(
        cls,
        geometry: CacheGeometry,
        pfail: float,
        count: int,
        seed: int | np.random.Generator | None = None,
    ) -> list["FaultMap"]:
        """Draw ``count`` uniform fault maps as **one** ``(count, d, k)``
        RNG call.

        PCG64 fills a requested shape from the same contiguous stream a
        sequence of per-map draws would consume, so map *i* here is
        bit-identical to the *i*-th sequential :meth:`generate` call on
        the same generator — campaign points amortise the RNG dispatch
        without perturbing any existing seed stream (locked by
        ``tests/faults/test_fault_map.py``).
        """
        if not 0.0 <= pfail <= 1.0:
            raise ValueError(f"pfail must be a probability, got {pfail!r}")
        if count < 0:
            raise ValueError("count must be non-negative")
        rng = _as_rng(seed)
        shape = (count, geometry.num_blocks, geometry.cells_per_block)
        faults = rng.random(shape) < pfail
        return [
            cls(geometry=geometry, faults=faults[i], pfail=pfail)
            for i in range(count)
        ]

    @classmethod
    def generate_clustered(
        cls,
        geometry: CacheGeometry,
        pfail: float,
        cluster_size: float = 4.0,
        seed: int | np.random.Generator | None = None,
    ) -> "FaultMap":
        """Draw a *clustered* fault map (the paper's future-work model).

        The expected number of faulty cells matches the uniform model
        (``pfail * d * k``), but faults arrive in bursts of geometrically
        distributed length (mean ``cluster_size``) at physically adjacent
        cells within a block row.  ``cluster_size=1`` degenerates to an
        (approximately) uniform map.
        """
        if not 0.0 <= pfail <= 1.0:
            raise ValueError(f"pfail must be a probability, got {pfail!r}")
        if cluster_size < 1.0:
            raise ValueError("cluster_size must be >= 1")
        rng = _as_rng(seed)
        d = geometry.num_blocks
        k = geometry.cells_per_block
        total = d * k
        n_faults = rng.binomial(total, pfail)
        faults = np.zeros((d, k), dtype=bool)
        placed = 0
        while placed < n_faults:
            length = min(rng.geometric(1.0 / cluster_size), n_faults - placed)
            block = int(rng.integers(d))
            start = int(rng.integers(k))
            stop = min(start + length, k)
            faults[block, start:stop] = True
            placed += stop - start
        return cls(geometry=geometry, faults=faults, pfail=pfail)

    @classmethod
    def empty(cls, geometry: CacheGeometry) -> "FaultMap":
        """A fault-free map (high-voltage operation)."""
        shape = (geometry.num_blocks, geometry.cells_per_block)
        return cls(geometry=geometry, faults=np.zeros(shape, dtype=bool), pfail=0.0)

    # ----- persistence (the boot-time BIST artifact) --------------------------------

    def save(self, path: str) -> None:
        """Persist the map as ``.npz`` — the artifact a boot-time memory
        test would hand the disabling hardware."""
        np.savez_compressed(
            path,
            faults=np.packbits(self.faults, axis=1),
            cells_per_block=self.geometry.cells_per_block,
            pfail=self.pfail,
            size_bytes=self.geometry.size_bytes,
            ways=self.geometry.ways,
            block_bytes=self.geometry.block_bytes,
            address_bits=self.geometry.address_bits,
            tag_bits=-1 if self.geometry.tag_bits is None else self.geometry.tag_bits,
            valid_bits=self.geometry.valid_bits,
            word_bits=self.geometry.word_bits,
        )

    @classmethod
    def load(cls, path: str) -> "FaultMap":
        """Inverse of :meth:`save`.  The ``NpzFile`` is closed before
        returning (``np.load`` keeps the archive open for lazy reads,
        which leaks the file handle if left to the garbage collector)."""
        with np.load(path) as data:
            tag_bits = int(data["tag_bits"])
            geometry = CacheGeometry(
                size_bytes=int(data["size_bytes"]),
                ways=int(data["ways"]),
                block_bytes=int(data["block_bytes"]),
                address_bits=int(data["address_bits"]),
                tag_bits=None if tag_bits < 0 else tag_bits,
                valid_bits=int(data["valid_bits"]),
                word_bits=int(data["word_bits"]),
            )
            k = int(data["cells_per_block"])
            faults = np.unpackbits(data["faults"], axis=1)[:, :k].astype(bool)
            pfail = float(data["pfail"])
        return cls(geometry=geometry, faults=faults, pfail=pfail)

    # ----- cell-region views -----------------------------------------------------

    @property
    def data_faults(self) -> np.ndarray:
        """Fault matrix restricted to data cells, shape ``(d, data_bits)``."""
        return self.faults[:, : self.geometry.data_bits_per_block]

    @property
    def tag_faults(self) -> np.ndarray:
        """Fault matrix over tag + valid cells, shape ``(d, tag+valid)``."""
        return self.faults[:, self.geometry.data_bits_per_block :]

    # ----- block-level queries ---------------------------------------------------

    @property
    def num_faulty_cells(self) -> int:
        return int(self.faults.sum())

    def block_fault_counts(self, include_tag: bool = True) -> np.ndarray:
        """Faulty-cell count per block, shape ``(d,)``."""
        cells = self.faults if include_tag else self.data_faults
        return cells.sum(axis=1)

    def faulty_block_mask(self, include_tag: bool = True) -> np.ndarray:
        """Boolean mask of blocks containing at least one faulty cell.

        ``include_tag=True`` is the block-disabling view (Section III: "a
        block is disabled when there is a faulty bit in either or both the
        tag or data of a block").
        """
        cells = self.faults if include_tag else self.data_faults
        return cells.any(axis=1)

    def num_faulty_blocks(self, include_tag: bool = True) -> int:
        return int(self.faulty_block_mask(include_tag).sum())

    def capacity_fraction(self, include_tag: bool = True) -> float:
        """Fraction of fault-free blocks (block-disabling capacity)."""
        d = self.geometry.num_blocks
        return 1.0 - self.num_faulty_blocks(include_tag) / d

    # ----- word-level queries (word-disabling's view) ------------------------------

    def word_fault_counts(self) -> np.ndarray:
        """Faulty-cell count per data word, shape ``(d, words_per_block)``.

        Only data cells are counted: word-disabling protects the tag array
        with 10T cells, so tag faults never occur in that design.
        """
        d = self.geometry.num_blocks
        words = self.geometry.words_per_block
        return self.data_faults.reshape(d, words, self.geometry.word_bits).sum(axis=2)

    def faulty_word_mask(self) -> np.ndarray:
        """Boolean mask of data words containing at least one faulty cell."""
        return self.word_fault_counts() > 0

    def faulty_words_per_block(self) -> np.ndarray:
        """Number of faulty words in each block, shape ``(d,)``."""
        return self.faulty_word_mask().sum(axis=1)

    # ----- set/way structure -----------------------------------------------------

    def block_index(self, set_index: int, way: int) -> int:
        """Row in the fault matrix of (set, way).  Blocks are laid out
        set-major: block = set * ways + way."""
        ways = self.geometry.ways
        if not 0 <= way < ways:
            raise IndexError(f"way {way} out of range for {ways}-way cache")
        if not 0 <= set_index < self.geometry.num_sets:
            raise IndexError(f"set {set_index} out of range")
        return set_index * ways + way

    def faulty_ways_by_set(self, include_tag: bool = True) -> np.ndarray:
        """Boolean matrix (num_sets, ways): which ways of each set are faulty."""
        mask = self.faulty_block_mask(include_tag)
        return mask.reshape(self.geometry.num_sets, self.geometry.ways)

    def usable_ways_per_set(self, include_tag: bool = True) -> np.ndarray:
        """Number of fault-free ways in each set (block-disabling leaves a
        cache with *variable associativity per set*, Section III)."""
        faulty = self.faulty_ways_by_set(include_tag)
        return self.geometry.ways - faulty.sum(axis=1)


@dataclass(frozen=True)
class FaultMapPair:
    """One experiment sample: an instruction-cache map and a data-cache map.

    Section V: "block-disabling configurations are evaluated with 50 random
    fault map pairs.  Each pair consists of two maps one for the instruction
    cache and another for the data cache."
    """

    icache: FaultMap
    dcache: FaultMap

    @property
    def pfail(self) -> float:
        return self.icache.pfail


def fault_map_pair(
    geometry: CacheGeometry, pfail: float, index: int, seed: int = 0
) -> FaultMapPair:
    """Pair ``index`` of :func:`sample_fault_map_pairs`, from its own
    PCG64 stream: no pair needs the ones before it."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    # One (2, d, k) draw per pair — same stream, same bits as two
    # sequential generate() calls (see FaultMap.generate_batch).
    icache, dcache = FaultMap.generate_batch(geometry, pfail, 2, rng)
    return FaultMapPair(icache=icache, dcache=dcache)


def sample_fault_map_pairs(
    geometry: CacheGeometry,
    pfail: float,
    count: int,
    seed: int = 0,
) -> Iterator[FaultMapPair]:
    """Yield ``count`` reproducible fault-map pairs.

    Each pair gets an independent PCG64 stream derived from ``seed`` so that
    pair *i* is identical regardless of how many pairs are drawn — experiment
    subsets stay comparable across quick/full runs.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    for i in range(count):
        yield fault_map_pair(geometry, pfail, i, seed)
