"""Workload profile schema for the synthetic SPEC CPU 2000 suite.

SPEC binaries and reference inputs cannot ship with a reproduction, so each
of the paper's 26 benchmarks is replaced by a *profile*: a parameter vector
describing the program behaviours that drive the paper's experiments —
instruction mix, data working-set size and access-pattern mixture, code
footprint, branch predictability, and dependence density.  The trace
generator (:mod:`repro.workloads.generator`) turns a profile into a
deterministic committed-instruction trace.

The parameters that matter for the paper's comparisons:

* ``ws_kb`` + pattern mix — how much the benchmark suffers when L1 capacity
  drops (word-disable halves it; block-disable keeps ~58% at pfail=1e-3);
* ``conflict_blocks``/``conflict_sets`` — set-conflict pressure, which
  punishes the unlucky low-associativity sets of a block-disabled cache and
  is exactly what the victim cache rescues (Section III-A);
* ``code_kb`` — I-cache pressure (gcc, vortex, eon, sixtrack);
* ``branch_frac`` × (1 - ``predictability``) — front-end sensitivity, which
  amplifies word-disabling's +1-cycle I-cache latency.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WorkloadProfile:
    """Synthetic stand-in for one SPEC CPU 2000 benchmark."""

    name: str
    suite: str  # "int" or "fp"

    # --- instruction mix (fractions of all instructions) ---
    load_frac: float
    store_frac: float
    branch_frac: float
    call_frac: float = 0.01
    #: Of the remaining compute instructions, the fraction that are FP.
    fp_frac: float = 0.0
    #: Of compute instructions, the fraction that are multiplies.
    mul_frac: float = 0.05

    # --- data-side behaviour ---
    ws_kb: int = 64
    #: Access-pattern mixture over the working set (normalised internally).
    stream_frac: float = 0.4
    stride_frac: float = 0.3
    random_frac: float = 0.3
    #: Set-conflict traffic: fraction of accesses cycling through a pool of
    #: ``conflict_blocks`` blocks that map onto only ``conflict_sets`` sets.
    conflict_frac: float = 0.0
    conflict_blocks: int = 12
    conflict_sets: int = 2
    stride_bytes: int = 1024

    # --- code-side behaviour ---
    code_kb: int = 32
    basic_block_mean: float = 8.0

    # --- predictability and ILP ---
    #: Fraction of static branches with a strong (easily learned) bias.
    predictability: float = 0.92
    #: Probability a source operand comes from a recently produced value.
    dep_density: float = 0.35

    def __post_init__(self) -> None:
        if self.suite not in ("int", "fp"):
            raise ValueError(f"suite must be 'int' or 'fp', got {self.suite!r}")
        mix = self.load_frac + self.store_frac + self.branch_frac + self.call_frac
        if not 0.0 < mix < 1.0:
            raise ValueError(
                f"{self.name}: load+store+branch+call fractions must leave room "
                f"for compute instructions (got {mix:.2f})"
            )
        for field_name in (
            "load_frac",
            "store_frac",
            "branch_frac",
            "call_frac",
            "fp_frac",
            "mul_frac",
            "stream_frac",
            "stride_frac",
            "random_frac",
            "conflict_frac",
            "predictability",
            "dep_density",
        ):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{self.name}: {field_name} must be in [0,1]")
        # Sizes and counts index and divide the generator's address
        # arithmetic: a zero pool or set count divides by zero, a float
        # size makes float addresses, a non-positive stride a negative one.
        for field_name in (
            "ws_kb",
            "code_kb",
            "conflict_blocks",
            "conflict_sets",
            "stride_bytes",
        ):
            value = getattr(self, field_name)
            if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
                raise ValueError(
                    f"{self.name}: {field_name} must be a positive int, got {value!r}"
                )
        pattern = self.stream_frac + self.stride_frac + self.random_frac + self.conflict_frac
        if pattern <= 0:
            raise ValueError(f"{self.name}: access-pattern mixture sums to zero")

    @property
    def pattern_weights(self) -> tuple[float, float, float, float]:
        """(stream, stride, random, conflict) normalised to sum to 1."""
        total = (
            self.stream_frac + self.stride_frac + self.random_frac + self.conflict_frac
        )
        return (
            self.stream_frac / total,
            self.stride_frac / total,
            self.random_frac / total,
            self.conflict_frac / total,
        )
