"""Deterministic fault injection for the simulated GPU platform.

Production serving layers are judged by how they behave when the
substrate misbehaves: PCIe transfers occasionally time out, allocations
fail under fragmentation spikes, drivers hiccup.  The real hardware the
paper ran on exhibited all of these; the simulator is perfectly
reliable, which makes retry/degradation logic untestable.  This module
closes that gap with a *seedable, deterministic* fault injector that the
:class:`~repro.gpusim.SimRuntime` consults before every transfer and
allocation.

Fault decisions are made **per site**, not per draw: whether the
transfer of buffer ``K1`` faults is a pure function of ``(seed, kind,
buffer name)``.  A site that has faulted once is *healed* — retrying the
request will sail past it and, at worst, trip over the next faulty site.
That is the defining property of a transient fault, and it gives retry
loops monotone progress: a request whose plan touches *k* faulty sites
completes in exactly ``k + 1`` attempts, reproducibly, for any seed.

Determinism matters more than realism here: a given ``(seed, rate)``
pair produces the same fault set on every run and under any thread
interleaving, so tests of the retry machinery in :mod:`repro.service`
are exactly reproducible.  Decisions are derived from private
:class:`random.Random` instances seeded by strings — global RNG state is
never touched.  All injected faults derive from :class:`TransientFault`
so callers can catch the family without enumerating kinds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


class TransientFault(RuntimeError):
    """A fault that does not recur if the operation is retried."""


class TransientTransferError(TransientFault):
    """An injected host<->device transfer failure (bus timeout, ECC)."""


class TransientAllocError(TransientFault):
    """An injected device-allocation failure (fragmentation/OOM spike)."""


def _site_draw(seed: int, *parts: str) -> float:
    """Deterministic uniform [0,1) draw for one fault site.

    String-seeded :class:`random.Random` hashes via SHA-512, so the draw
    is stable across processes, platforms, and ``PYTHONHASHSEED``.
    """
    return random.Random("|".join((str(seed),) + parts)).random()


@dataclass(frozen=True, kw_only=True)
class FaultSpec:
    """Configuration of one injector: rates in [0, 1] plus the seed.

    A rate is the expected fraction of *sites* (distinct buffer
    transfers / allocations) that fault once before healing.
    ``max_faults`` additionally caps the total number of injected
    failures; ``None`` means unlimited (healing already guarantees
    forward progress).
    """

    transfer_failure_rate: float = 0.0
    alloc_failure_rate: float = 0.0
    seed: int = 0
    max_faults: int | None = None

    def __post_init__(self) -> None:
        for name in ("transfer_failure_rate", "alloc_failure_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")

    def injector(self) -> "FaultInjector":
        return FaultInjector(self)


class FaultInjector:
    """Injects each faulty site's failure once, then heals it.

    One injector backs one logical request: the service layer creates a
    fresh :class:`~repro.gpusim.SimRuntime` per attempt but *shares* the
    injector across retries, so the healed-site set persists and every
    retry makes progress past the faults already seen.
    """

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self._healed: set[tuple[str, str]] = set()
        self.injected_transfer_faults = 0
        self.injected_alloc_faults = 0

    @property
    def injected_faults(self) -> int:
        return self.injected_transfer_faults + self.injected_alloc_faults

    def _exhausted(self) -> bool:
        cap = self.spec.max_faults
        return cap is not None and self.injected_faults >= cap

    def adopt(self, advanced: "FaultInjector") -> None:
        """Take on ``advanced``'s healed sites and counts: this injector
        after a run in another process (a fleet worker's)."""
        self._healed = advanced._healed
        self.injected_transfer_faults = advanced.injected_transfer_faults
        self.injected_alloc_faults = advanced.injected_alloc_faults

    # -- hooks (called by SimRuntime) ------------------------------------
    def on_transfer(self, kind: str, name: str, nbytes: int) -> None:
        """Raise :class:`TransientTransferError` if this site faults."""
        rate = self.spec.transfer_failure_rate
        site = (kind, name)
        if rate <= 0.0 or site in self._healed or self._exhausted():
            return
        if _site_draw(self.spec.seed, "transfer", kind, name) < rate:
            self._healed.add(site)
            self.injected_transfer_faults += 1
            raise TransientTransferError(
                f"injected {kind} failure for {name!r} ({nbytes} B), "
                f"fault #{self.injected_faults} of seed {self.spec.seed}"
            )

    def on_alloc(self, name: str, nbytes: int) -> None:
        """Raise :class:`TransientAllocError` if this site faults."""
        rate = self.spec.alloc_failure_rate
        site = ("alloc", name)
        if rate <= 0.0 or site in self._healed or self._exhausted():
            return
        if _site_draw(self.spec.seed, "alloc", name) < rate:
            self._healed.add(site)
            self.injected_alloc_faults += 1
            raise TransientAllocError(
                f"injected allocation failure for {name!r} ({nbytes} B), "
                f"fault #{self.injected_faults} of seed {self.spec.seed}"
            )


__all__ = [
    "FaultInjector",
    "FaultSpec",
    "TransientAllocError",
    "TransientFault",
    "TransientTransferError",
]
