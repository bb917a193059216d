"""SECDED ECC capacity analysis at sub-Vcc-min fault rates (related-work ablation).

The paper's related-work section argues (citing Kim et al., MICRO 2007) that
classic error-correcting codes become very inefficient when faults are as
dense as they are below Vcc-min: a single-error-correct/double-error-detect
(SECDED) code per word repairs at most one faulty cell per word, so a block
survives only if *every* word has at most one fault — and the check bits
themselves are exposed to faults too.

This module quantifies that claim with the same machinery as Section IV so
it can be compared head-to-head with block-disabling:

* ``p_word_ok``: a protected word survives iff its ``data + check`` cells
  contain <= 1 fault.
* A block survives iff all its words survive; capacity follows Eq. 2's
  pattern with the per-block survival probability swapped in.

At pfail = 0.001 SECDED looks great (few multi-bit words), but its ~22%
storage overhead (7 check bits per 32-bit word) is paid at *all* voltages,
and by pfail ≈ 0.01 double-bit words are common enough that capacity
collapses — matching the paper's qualitative argument.
"""

from __future__ import annotations

import numpy as np

# scipy.stats is imported in the functions that call it: importing it
# takes about a second, which `import repro` would otherwise pay.

from repro.faults.geometry import CacheGeometry


def secded_check_bits(data_bits: int) -> int:
    """Check bits for a SECDED (extended Hamming) code over ``data_bits``:
    smallest ``r`` with ``2^(r-1) >= data_bits + r``."""
    if data_bits <= 0:
        raise ValueError(f"data_bits must be positive, got {data_bits}")
    r = 2
    while (1 << (r - 1)) < data_bits + r:
        r += 1
    return r


def word_survival_probability(pfail: float, word_bits: int = 32) -> float:
    """Probability that one SECDED-protected word is correctable:
    <= 1 faulty cell among data + check bits."""
    from scipy import stats
    if not 0.0 <= pfail <= 1.0:
        raise ValueError(f"pfail must be a probability, got {pfail!r}")
    total_bits = word_bits + secded_check_bits(word_bits)
    # P[X <= 1], X ~ Binomial(total_bits, pfail).
    return float(stats.binom.cdf(1, total_bits, pfail))


def block_survival_probability(
    pfail: float, words_per_block: int = 16, word_bits: int = 32
) -> float:
    """Probability that a SECDED-per-word block is fully correctable."""
    if words_per_block <= 0:
        raise ValueError(f"words_per_block must be positive, got {words_per_block}")
    return word_survival_probability(pfail, word_bits) ** words_per_block


def ecc_capacity_curve(
    pfails: np.ndarray | list[float],
    words_per_block: int = 16,
    word_bits: int = 32,
) -> np.ndarray:
    """Expected fraction of usable blocks when faulty-beyond-correction
    blocks are disabled (ECC + block-disable hybrid)."""
    p = np.asarray(pfails, dtype=float)
    return np.array(
        [block_survival_probability(float(pi), words_per_block, word_bits) for pi in p]
    )


def ecc_storage_overhead(word_bits: int = 32) -> float:
    """Fractional storage overhead of SECDED per word (~0.22 for 32-bit
    words: 7 check bits)."""
    return secded_check_bits(word_bits) / word_bits


def ecc_vs_block_disable(
    geometry: CacheGeometry, pfail: float
) -> dict[str, float]:
    """Head-to-head summary at one operating point.

    Returns effective capacities *net of storage overhead* so the comparison
    reflects silicon spent, not just surviving blocks.
    """
    from repro.analysis.urn import expected_capacity_fraction

    ecc_cap = block_survival_probability(
        pfail, geometry.words_per_block, geometry.word_bits
    )
    overhead = ecc_storage_overhead(geometry.word_bits)
    bd_cap = expected_capacity_fraction(geometry.cells_per_block, pfail)
    return {
        "pfail": pfail,
        "block_disable_capacity": bd_cap,
        "ecc_capacity": ecc_cap,
        "ecc_storage_overhead": overhead,
        "ecc_capacity_net": ecc_cap / (1.0 + overhead),
    }
