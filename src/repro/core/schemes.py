"""The low-voltage cache operation framework.

A *scheme* decides how a cache built from unreliable 6T cells keeps
operating below Vcc-min.  Given the cache's geometry and a boot-time fault
map, a scheme produces a :class:`CacheConfiguration`: the effective geometry
the program sees, which ways of which sets may hold data, any extra access
latency the scheme's repair machinery costs, and whether the cache is usable
at all.

This mirrors the paper's framing exactly — disable bits and fault masks are
computed once during the boot-time low-voltage memory test (Section II/III),
and the cache then operates conventionally under that configuration.

Schemes implemented:

* :class:`~repro.core.baseline.BaselineScheme` — no fault tolerance; the
  normalisation reference.
* :class:`~repro.core.block_disable.BlockDisableScheme` — the paper's
  proposal (Section III).
* :class:`~repro.core.word_disable.WordDisableScheme` — Wilkerson et al.'s
  comparator (Section II).
* :class:`~repro.core.incremental.IncrementalWordDisableScheme` — the
  graceful-degradation variant analysed in Section IV-C.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field

import numpy as np

from repro.cache.set_assoc import SetAssociativeCache
from repro.faults.fault_map import FaultMap
from repro.faults.geometry import CacheGeometry


class VoltageMode(enum.Enum):
    """Operating regime relative to Vcc-min."""

    HIGH = "high"  # at or above Vcc-min: every cell is reliable
    LOW = "low"  # below Vcc-min: 6T cells fail per the fault map


@dataclass(frozen=True)
class CacheConfiguration:
    """What a scheme turns a (geometry, fault map, voltage) triple into.

    Attributes
    ----------
    geometry:
        Effective geometry (word-disabling halves size and ways at low
        voltage; everything else keeps the physical geometry).
    enabled_ways:
        Boolean (num_sets, ways) allocation mask over ``geometry``;
        ``None`` means all ways usable.
    latency_adder:
        Extra cycles on every access (word-disabling's alignment network
        costs +1 in *both* voltage modes).
    usable:
        ``False`` if the scheme cannot operate this cache at all (word-
        disabling's whole-cache failure).
    scheme_name, voltage:
        Provenance for reports.
    """

    geometry: CacheGeometry
    enabled_ways: np.ndarray | None
    latency_adder: int
    usable: bool
    scheme_name: str
    voltage: VoltageMode
    notes: str = ""

    @property
    def usable_blocks(self) -> int:
        if self.enabled_ways is None:
            return self.geometry.num_blocks
        return int(self.enabled_ways.sum())

    def capacity_fraction(self, reference: CacheGeometry) -> float:
        """Capacity relative to ``reference`` (the physical, fault-free
        cache) — the quantity Figs. 3-7 plot."""
        if not self.usable:
            return 0.0
        return (
            self.usable_blocks
            * self.geometry.block_bytes
            / (reference.num_blocks * reference.block_bytes)
        )

    def require_usable(self) -> None:
        """Raise ``ValueError`` when the scheme cannot operate this cache."""
        if not self.usable:
            raise ValueError(
                f"{self.scheme_name}: cache is unusable at {self.voltage.value} "
                "voltage (whole-cache failure); cannot build it"
            )

    def build_cache(self, name: str = "l1") -> SetAssociativeCache:
        """Instantiate the behavioural cache this configuration describes."""
        self.require_usable()
        return SetAssociativeCache(
            self.geometry, enabled_ways=self.enabled_ways, name=name
        )


class LowVoltageScheme(abc.ABC):
    """Strategy interface: fault map -> operating configuration."""

    #: Registry key and report label, e.g. ``"block-disable"``.
    name: str = "abstract"

    @abc.abstractmethod
    def configure(
        self,
        geometry: CacheGeometry,
        fault_map: FaultMap | None,
        voltage: VoltageMode,
    ) -> CacheConfiguration:
        """Produce the operating configuration.

        ``fault_map`` may be ``None`` in HIGH voltage mode (faults are
        irrelevant there); LOW mode requires a map.
        """

    def latency_adder(self, voltage: VoltageMode) -> int:
        """Extra access cycles this scheme costs at ``voltage`` (0 unless
        the scheme inserts logic on the access path, like word-disabling's
        alignment network)."""
        return 0

    def _require_map(self, fault_map: FaultMap | None) -> FaultMap:
        if fault_map is None:
            raise ValueError(
                f"{self.name}: low-voltage configuration requires a fault map"
            )
        return fault_map


@dataclass
class SchemeRegistry:
    """Name -> scheme factory registry so experiments and the CLI can refer
    to schemes by string."""

    _factories: dict[str, type[LowVoltageScheme]] = field(default_factory=dict)

    def register(self, cls: type[LowVoltageScheme]) -> type[LowVoltageScheme]:
        if cls.name in self._factories:
            raise ValueError(f"scheme {cls.name!r} already registered")
        self._factories[cls.name] = cls
        return cls

    def create(self, name: str, **kwargs: object) -> LowVoltageScheme:
        try:
            cls = self._factories[name]
        except KeyError:
            raise ValueError(
                f"unknown scheme {name!r}; choose from {sorted(self._factories)}"
            ) from None
        return cls(**kwargs)  # type: ignore[call-arg]

    def names(self) -> list[str]:
        return sorted(self._factories)


#: Process-wide registry; scheme modules register themselves on import.
SCHEMES = SchemeRegistry()
