"""Deterministic, named random-number streams.

Every component draws randomness from its own stream, derived from the
engine seed and a stable name.  Adding a new component therefore never
perturbs the random sequence seen by existing components — essential
for reproducible experiments and meaningful A/B ablations.
"""

from __future__ import annotations

import hashlib
import random


class RngStreams:
    """A factory of independent ``random.Random`` streams."""

    def __init__(self, root_seed: int = 0):
        self.root_seed = root_seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating if needed) the stream for ``name``."""
        if name not in self._streams:
            digest = hashlib.sha256(f"{self.root_seed}:{name}".encode()).digest()
            self._streams[name] = random.Random(int.from_bytes(digest[:8], "big"))
        return self._streams[name]
