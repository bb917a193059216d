"""Bit-interleaving under clustered faults (the paper's stated future work).

Section VIII: "Future work will extend the analytical framework to consider
the effects of bit-interleaving and non-uniform fault clustering."

Physical SRAM arrays interleave the bits of several logical words in one
physical row.  Under *uniform* random faults interleaving changes nothing —
each cell is independent, so which logical word a cell belongs to is
irrelevant.  Under *clustered* faults (multiple physically adjacent cells
failing together, e.g. shared-well variation) interleaving spreads one
physical cluster across many logical blocks, converting a few badly damaged
blocks into many lightly damaged ones.

For block-disabling that trade is **harmful**: one faulty cell already kills
a block, so spreading a cluster over ``f`` blocks can disable up to ``f``
blocks where a non-interleaved layout would lose one.  For word-disabling it
is **helpful**: it pushes per-word fault counts toward the uniform case and
away from the >4-faulty-words cliff.  This module quantifies both directions
by Monte Carlo on a clustered fault model (:func:`_clustered_matrix`): the
uniform model's expected fault count, placed in bursts of geometrically
distributed length at adjacent cells of one physical row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.faults.geometry import CacheGeometry


def interleave_fault_matrix(faults: np.ndarray, degree: int) -> np.ndarray:
    """Reinterpret a physical fault matrix under ``degree``-way bit
    interleaving.

    ``faults`` has shape ``(rows, cells)`` where each row is one physical
    word line holding ``degree`` logical blocks' cells interleaved
    cell-by-cell.  Returns the logical view of shape
    ``(rows * degree, cells // degree)``: logical block ``r*degree + j``
    owns physical cells ``j, j+degree, j+2*degree, ...`` of row ``r``.
    """
    rows, cells = faults.shape
    if degree <= 0:
        raise ValueError(f"degree must be positive, got {degree}")
    if cells % degree != 0:
        raise ValueError(f"{cells} cells do not interleave {degree} ways")
    # (rows, cells//degree, degree) -> transpose the last two axes so each
    # logical block's cells are contiguous, then flatten blocks.
    view = faults.reshape(rows, cells // degree, degree)
    return view.transpose(0, 2, 1).reshape(rows * degree, cells // degree)


@dataclass(frozen=True)
class InterleavingStudyResult:
    """Capacity of block-disabling with and without interleaving, under a
    clustered fault process of the same expected fault count."""

    degree: int
    cluster_size: float
    pfail: float
    capacity_non_interleaved: float
    capacity_interleaved: float
    capacity_uniform_reference: float

    @property
    def interleaving_penalty(self) -> float:
        """Capacity lost by interleaving under clustered faults (positive
        means interleaving hurts block-disabling, the expected direction)."""
        return self.capacity_non_interleaved - self.capacity_interleaved


def clustered_interleaving_study(
    geometry: CacheGeometry,
    pfail: float,
    degree: int = 4,
    cluster_size: float = 4.0,
    trials: int = 50,
    seed: int = 0,
) -> InterleavingStudyResult:
    """Monte Carlo comparison of block-disabling capacity with clustered
    faults, with vs without ``degree``-way interleaving.

    The physical array is modelled as ``num_blocks / degree`` rows each
    holding ``degree`` blocks.  In the non-interleaved layout each block's
    cells are contiguous in the row; in the interleaved layout they are
    strided.  The same physical fault pattern is scored both ways.
    """
    _check_study_inputs(geometry, pfail, degree, trials)
    if not 1.0 <= cluster_size < math.inf:
        raise ValueError(f"cluster_size must be finite and >= 1, got {cluster_size!r}")
    rng = np.random.default_rng(seed)
    d = geometry.num_blocks
    k = geometry.cells_per_block
    rows = d // degree
    row_cells = k * degree

    non_interleaved = np.empty(trials)
    interleaved = np.empty(trials)
    uniform_ref = np.empty(trials)
    for t in range(trials):
        physical = _clustered_matrix(rows, row_cells, pfail, cluster_size, rng)
        # Non-interleaved: block j of row r owns cells [j*k, (j+1)*k).
        blocks_contig = physical.reshape(rows * degree, k)
        non_interleaved[t] = 1.0 - blocks_contig.any(axis=1).mean()
        # Interleaved: strided ownership.
        blocks_strided = interleave_fault_matrix(physical, degree)
        interleaved[t] = 1.0 - blocks_strided.any(axis=1).mean()
        uniform = rng.random((d, k)) < pfail
        uniform_ref[t] = 1.0 - uniform.any(axis=1).mean()

    return InterleavingStudyResult(
        degree=degree,
        cluster_size=cluster_size,
        pfail=pfail,
        capacity_non_interleaved=float(non_interleaved.mean()),
        capacity_interleaved=float(interleaved.mean()),
        capacity_uniform_reference=float(uniform_ref.mean()),
    )


def _check_study_inputs(
    geometry: CacheGeometry, pfail: float, degree: int, trials: int
) -> None:
    """Raise ``ValueError``, naming the argument, for inputs the studies'
    Monte Carlo cannot use."""
    if not 0.0 <= pfail <= 1.0:
        raise ValueError(f"pfail must be a probability, got {pfail!r}")
    if degree <= 0:
        raise ValueError(f"degree must be positive, got {degree}")
    if geometry.num_blocks % degree != 0:
        raise ValueError(
            f"degree {degree} does not divide {geometry.num_blocks} blocks"
        )
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")


def _clustered_matrix(
    rows: int,
    cells: int,
    pfail: float,
    cluster_size: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Clustered fault matrix with expected density ``pfail``: a
    binomial fault count, placed in bursts of geometrically distributed
    length (mean ``cluster_size``) at physically adjacent cells of one
    row.  ``cluster_size=1`` places every fault alone, an (approximately)
    uniform matrix."""
    total = rows * cells
    n_faults = rng.binomial(total, pfail)
    faults = np.zeros((rows, cells), dtype=bool)
    placed = 0
    while placed < n_faults:
        length = min(int(rng.geometric(1.0 / cluster_size)), n_faults - placed)
        row = int(rng.integers(rows))
        start = int(rng.integers(cells))
        stop = min(start + length, cells)
        faults[row, start:stop] = True
        placed += stop - start
    return faults


def uniform_fault_invariance(
    geometry: CacheGeometry,
    pfail: float,
    degree: int = 4,
    trials: int = 50,
    seed: int = 0,
) -> tuple[float, float]:
    """Sanity companion: under *uniform* faults, interleaved and
    non-interleaved capacities agree in expectation.  Returns the two
    sampled means (tests assert they are statistically indistinguishable).
    """
    _check_study_inputs(geometry, pfail, degree, trials)
    rng = np.random.default_rng(seed)
    d = geometry.num_blocks
    k = geometry.cells_per_block
    rows = d // degree
    caps_contig = np.empty(trials)
    caps_strided = np.empty(trials)
    for t in range(trials):
        physical = rng.random((rows, k * degree)) < pfail
        caps_contig[t] = 1.0 - physical.reshape(d, k).any(axis=1).mean()
        caps_strided[t] = (
            1.0 - interleave_fault_matrix(physical, degree).any(axis=1).mean()
        )
    return float(caps_contig.mean()), float(caps_strided.mean())
