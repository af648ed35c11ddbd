"""Deterministic random streams.

Every stochastic operation in the package takes an explicit Rng. Child
streams are derived functionally (blake2s over the parent seed and a key
tuple), so a run is reproducible from its root seed alone and a resumed
run re-derives the exact streams of the original without snapshotting
generator state.
"""

from __future__ import annotations

import hashlib

import numpy as np

def _mix(seed: int, keys: tuple) -> int:
    material = repr((seed,) + keys).encode("utf-8")
    digest = hashlib.blake2s(material).digest()
    return int.from_bytes(digest[:8], "little")


class Rng:
    """A seeded PCG64 stream with functional child derivation."""

    def __init__(self, seed: int):
        self.seed = int(seed) & (2**64 - 1)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def derive(self, *keys: int | str) -> "Rng":
        """Child stream keyed by (purpose, indices); independent of draw order."""
        return Rng(_mix(self.seed, keys))

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size=size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self._gen.normal(loc, scale, size=size)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
