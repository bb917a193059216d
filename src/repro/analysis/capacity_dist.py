"""Probability distribution of block-disabled cache capacity (Eq. 3, Fig. 4).

Beyond the *mean* capacity (Eq. 2), the paper derives the full distribution:
with each block independently faulty with probability
``pbf = 1 - (1 - pfail)^k``, the number of fault-free blocks is binomial, so
the probability that a cache retains exactly ``x`` fault-free blocks is

    C(d, x) * pbf^(d-x) * (1 - pbf)^x                        (Eq. 3)

For the running example (d=512, k=537, pfail=0.001) this is approximately
normal with mean 58% capacity and σ ≈ 2%, giving a 99.9% probability of
retaining more than half the cache — the paper's argument that
block-disabling "will virtually always have higher capacity than
word-disabling".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# scipy.stats is imported in the functions that call it: importing it
# takes about a second, which `import repro` would otherwise pay.

from repro.faults.geometry import CacheGeometry


def block_fault_probability(k: int, pfail: float) -> float:
    """``pbf``: probability that a block of ``k`` cells contains at least one
    faulty cell."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if not 0.0 <= pfail <= 1.0:
        raise ValueError(f"pfail must be a probability, got {pfail!r}")
    return 1.0 - (1.0 - pfail) ** k


@dataclass(frozen=True)
class CapacityDistribution:
    """Distribution of the number of fault-free blocks in a ``d``-block cache.

    ``pmf[x]`` is the probability of exactly ``x`` fault-free blocks
    (capacity fraction ``x / d``).
    """

    d: int
    k: int
    pfail: float

    @property
    def pbf(self) -> float:
        return block_fault_probability(self.k, self.pfail)

    @property
    def p_block_ok(self) -> float:
        return 1.0 - self.pbf

    def pmf(self) -> np.ndarray:
        """Equation 3 over all ``x`` in ``0..d`` (length ``d + 1``)."""
        from scipy import stats
        x = np.arange(self.d + 1)
        return stats.binom.pmf(x, self.d, self.p_block_ok)

    def capacity_fractions(self) -> np.ndarray:
        """x-axis companion to :meth:`pmf`: ``x / d``."""
        return np.arange(self.d + 1) / self.d

    @property
    def mean_blocks(self) -> float:
        """Mean number of fault-free blocks, ``d * (1 - pbf)``."""
        return self.d * self.p_block_ok

    @property
    def mean_capacity(self) -> float:
        return self.p_block_ok

    @property
    def std_blocks(self) -> float:
        """Binomial standard deviation in blocks."""
        return math.sqrt(self.d * self.pbf * self.p_block_ok)

    @property
    def std_capacity(self) -> float:
        """Standard deviation as a capacity fraction (the paper quotes
        ≈ 2.02% for the running example)."""
        return self.std_blocks / self.d

    def prob_capacity_above(self, fraction: float) -> float:
        """P[capacity > fraction] — e.g. P[> 0.5] ≈ 99.9% in the paper."""
        from scipy import stats
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        threshold = int(math.floor(fraction * self.d))
        # P[X > threshold] = survival function at threshold.
        return float(stats.binom.sf(threshold, self.d, self.p_block_ok))

    def prob_capacity_at_most(self, fraction: float) -> float:
        return 1.0 - self.prob_capacity_above(fraction)

    def quantile(self, q: float) -> float:
        """Capacity fraction at quantile ``q`` (e.g. worst-case planning)."""
        from scipy import stats
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        blocks = float(stats.binom.ppf(q, self.d, self.p_block_ok))
        return blocks / self.d

    def normal_approximation(self) -> tuple[float, float]:
        """(mean, sigma) of the normal approximation in capacity fractions —
        the paper reads Fig. 4 as 'a normal distribution with mean at 58% and
        standard deviation of 2.02'."""
        return self.mean_capacity, self.std_capacity


def capacity_distribution_for_geometry(
    geometry: CacheGeometry, pfail: float
) -> CapacityDistribution:
    """Eq. 3 distribution for a concrete cache geometry."""
    return CapacityDistribution(
        d=geometry.num_blocks, k=geometry.cells_per_block, pfail=pfail
    )
