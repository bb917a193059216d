"""Front-end predictors from Table II.

* :class:`GsharePredictor` — 8KB gshare: 2^15 two-bit counters indexed by
  PC xor 15 bits of global history.
* :class:`ReturnAddressStack` — 16 entries, for call/return pairs.
* :class:`LinePredictor` — next-fetch-line predictor (6.5KB in the paper's
  Alpha-like front end); modelled as a direct-mapped PC-indexed table of
  predicted target lines.  A taken branch whose target line is not the one
  the table predicts costs a one-cycle fetch bubble.
"""

from __future__ import annotations


class GsharePredictor:
    """Two-bit-counter gshare direction predictor."""

    def __init__(self, history_bits: int = 15) -> None:
        if not 1 <= history_bits <= 24:
            raise ValueError(f"history_bits out of range: {history_bits}")
        self.history_bits = history_bits
        self._size = 1 << history_bits
        self._mask = self._size - 1
        self._table = bytearray(b"\x02") * self._size  # weakly taken
        self._history = 0
        self.predictions = 0
        self.mispredictions = 0

    @property
    def storage_bits(self) -> int:
        """2 bits per counter — 8KB for the paper's 15-bit configuration."""
        return 2 * self._size

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict ``pc``'s direction, then train with the real outcome.
        Returns whether the prediction was *correct*."""
        index = ((pc >> 2) ^ self._history) & self._mask
        counter = self._table[index]
        prediction = counter >= 2
        correct = prediction == taken
        self.predictions += 1
        if not correct:
            self.mispredictions += 1
        if taken:
            if counter < 3:
                self._table[index] = counter + 1
        else:
            if counter > 0:
                self._table[index] = counter - 1
        self._history = ((self._history << 1) | int(taken)) & self._mask
        return correct

    @property
    def misprediction_rate(self) -> float:
        if self.predictions == 0:
            return 0.0
        return self.mispredictions / self.predictions


class ReturnAddressStack:
    """Fixed-depth return-address stack; overflow drops the oldest entry."""

    def __init__(self, entries: int = 16) -> None:
        if entries <= 0:
            raise ValueError(f"entries must be positive, got {entries}")
        self.entries = entries
        self._stack: list[int] = []
        self.pushes = 0
        self.pops = 0
        self.mispredictions = 0

    def push(self, return_pc: int) -> None:
        self.pushes += 1
        if len(self._stack) == self.entries:
            self._stack.pop(0)  # overflow corrupts the deepest frame
        self._stack.append(return_pc)

    def pop_and_check(self, actual_return_pc: int) -> bool:
        """Pop a prediction and compare with the actual return target.
        An empty stack or a mismatch counts as a misprediction."""
        self.pops += 1
        if not self._stack:
            self.mispredictions += 1
            return False
        predicted = self._stack.pop()
        if predicted != actual_return_pc:
            self.mispredictions += 1
            return False
        return True

    @property
    def depth(self) -> int:
        return len(self._stack)


class LinePredictor:
    """Direct-mapped next-line predictor.

    ``predict_and_update(branch_pc, target_line)`` returns ``True`` when the
    stored target line matches (no fetch bubble) and trains the entry
    otherwise.  Capacity defaults to 2048 entries, in the area class of the
    paper's 6.5KB line predictor.
    """

    def __init__(self, entries: int = 2048) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError(f"entries must be a power of two, got {entries}")
        self._mask = entries - 1
        self._table: list[int] = [-1] * entries
        self.lookups = 0
        self.misses = 0

    def predict_and_update(self, branch_pc: int, target_line: int) -> bool:
        index = (branch_pc >> 2) & self._mask
        self.lookups += 1
        hit = self._table[index] == target_line
        if not hit:
            self.misses += 1
            self._table[index] = target_line
        return hit

    @property
    def miss_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.misses / self.lookups
