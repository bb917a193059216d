"""Whole-cache-failure analysis of the word-disabling scheme (Eqs. 4-5, Fig. 5).

Word-disabling (Wilkerson et al., ISCA 2008) merges pairs of physical blocks
into one logical block and tolerates up to half the words of each *subblock*
being faulty.  With the paper's parameters — 64B blocks, 32-bit words, 8-word
subblocks — a subblock ("half-block") with **more than 4 faulty words**
cannot be repaired, and a single such subblock anywhere in the cache renders
the whole cache unusable at low voltage.

Equation 5 gives the probability that one ``a``-word half-block exceeds the
tolerance::

    phbf = sum_{i=a/2+1}^{a} C(a, i) * pwf^i * (1 - pwf)^(a-i)

with ``pwf = 1 - (1 - pfail)^32`` the probability of a faulty word.  The
whole cache fails if *any* of the ``2d`` half-blocks fails:

    pwcf = 1 - (1 - phbf)^(2d)                               (Eq. 4)

Note on Eq. 4: the paper's text prints ``1 - phbf^(2d)``, which tends to 1 as
``phbf -> 0`` and so cannot be the intended formula (the paper itself notes
the ISPASS version carried a typo in this derivation).  The complement form
above reproduces Fig. 5 exactly: pwcf ≈ 1.6e-3 at pfail = 0.001, a tenfold
rise to ≈ 1e-2 by pfail = 0.0015.

Tag bits are excluded throughout: word-disabling stores tags in fault-immune
10T cells.
"""

from __future__ import annotations

import numpy as np

# scipy.stats is imported in the functions that call it: importing it
# takes about a second, which `import repro` would otherwise pay.

from repro.faults.geometry import CacheGeometry


def word_fault_probability(pfail: float, word_bits: int = 32) -> float:
    """``pwf``: probability that a ``word_bits``-bit word has >= 1 faulty cell."""
    if not 0.0 <= pfail <= 1.0:
        raise ValueError(f"pfail must be a probability, got {pfail!r}")
    if word_bits <= 0:
        raise ValueError(f"word_bits must be positive, got {word_bits}")
    return 1.0 - (1.0 - pfail) ** word_bits


def half_block_fail_probability(
    pfail: float,
    words_per_half_block: int = 8,
    word_bits: int = 32,
    tolerance: int | None = None,
) -> float:
    """Equation 5: probability that a half-block (subblock) of ``a`` words
    contains more faulty words than word-disabling can repair.

    ``tolerance`` defaults to ``a // 2`` (the scheme pairs two physical
    half-blocks, so it can lose at most half the words of each).
    """
    from scipy import stats
    a = words_per_half_block
    if a <= 0:
        raise ValueError(f"words_per_half_block must be positive, got {a}")
    if tolerance is None:
        tolerance = a // 2
    if not 0 <= tolerance <= a:
        raise ValueError(f"tolerance must be in [0, {a}], got {tolerance}")
    pwf = word_fault_probability(pfail, word_bits)
    # P[X > tolerance] for X ~ Binomial(a, pwf).
    return float(stats.binom.sf(tolerance, a, pwf))


def whole_cache_failure_probability(
    pfail: float,
    num_blocks: int = 512,
    words_per_half_block: int = 8,
    word_bits: int = 32,
) -> float:
    """Equation 4 (corrected form): probability that a word-disable cache of
    ``d`` blocks is unusable at low voltage because at least one of its
    ``2d`` half-blocks has too many faulty words."""
    if num_blocks <= 0:
        raise ValueError(f"num_blocks must be positive, got {num_blocks}")
    phbf = half_block_fail_probability(pfail, words_per_half_block, word_bits)
    # log1p form keeps precision for the tiny phbf regime Fig. 5 plots.
    return float(-np.expm1(2 * num_blocks * np.log1p(-phbf)))


def whole_cache_failure_curve(
    pfails: np.ndarray | list[float],
    num_blocks: int = 512,
    words_per_half_block: int = 8,
    word_bits: int = 32,
) -> np.ndarray:
    """Fig. 5 series: pwcf for each ``pfail`` (vectorised)."""
    p = np.asarray(pfails, dtype=float)
    return np.array(
        [
            whole_cache_failure_probability(
                float(pi), num_blocks, words_per_half_block, word_bits
            )
            for pi in p
        ]
    )


def whole_cache_failure_for_geometry(
    geometry: CacheGeometry, pfail: float, subblock_words: int = 8
) -> float:
    """Eq. 4 on a concrete geometry (half-block = ``subblock_words`` words)."""
    return whole_cache_failure_probability(
        pfail,
        num_blocks=geometry.num_blocks,
        words_per_half_block=subblock_words,
        word_bits=geometry.word_bits,
    )


def word_disable_capacity(pfail: float, *_unused: object) -> float:
    """Word-disabling's capacity at low voltage: a flat 50% whenever the
    cache is usable at all (Section II).  Provided for symmetry with the
    block-disabling capacity functions."""
    if not 0.0 <= pfail <= 1.0:
        raise ValueError(f"pfail must be a probability, got {pfail!r}")
    return 0.5
