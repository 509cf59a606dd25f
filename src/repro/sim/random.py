"""Named, seeded random streams.

Every stochastic element in a simulation draws from its own named stream so
that (a) experiments are exactly reproducible given a seed, and (b) changing
how many random numbers one element consumes does not perturb the draws made
by another element.  Stream seeds are derived deterministically from the
registry seed and the stream name.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator


def derive_seed(*components: object) -> int:
    """Derive a 64-bit seed from an arbitrary tuple of components.

    The derivation hashes the ``":"``-joined string forms of the components,
    so it is stable across processes and Python invocations (unlike
    ``hash()``, which is salted).  This is the primitive both
    :class:`RngRegistry` and the scenario runner use: a worker process can
    recompute the exact seed for any (scenario, parameters, trial) point
    without coordination.
    """
    text = ":".join(str(component) for component in components)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """Factory for deterministic per-name :class:`random.Random` streams."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: dict[str, random.Random] = {}

    @property
    def seed(self) -> int:
        """The registry-wide base seed."""
        return self._seed

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The same registry always returns the same object for a given name,
        so an element can look its stream up repeatedly without resetting it.
        """
        if name not in self._streams:
            self._streams[name] = random.Random(self._derive_seed(name))
        return self._streams[name]

    def names(self) -> Iterator[str]:
        """Iterate over the stream names created so far."""
        return iter(sorted(self._streams))

    def _derive_seed(self, name: str) -> int:
        return derive_seed(self._seed, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(seed={self._seed}, streams={len(self._streams)})"
