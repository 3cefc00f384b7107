"""A per-node LRU cache of recently resident role images.

Writing a full bitstream from flash costs ~1 s and even a partial
role-region write costs ~100 ms (§4.3) — both orders of magnitude above
the ~250 µs Model Reload the Queue Manager pays to switch models.  The
asymmetry is the whole point of the paper's partial-reconfiguration
future work: if the image a node needs is already staged in its board
DRAM, swapping the role region is a model-reload-class operation, not a
flash read.

:class:`BitstreamCache` models that staging memory.  Each node keeps
the last ``capacity_per_node`` images it was configured with (LRU);
when the Mapping Manager re-places a service onto a slot that recently
ran its role, a hit downgrades the node's reconfiguration to
:data:`CACHED_RELOAD_NS` (the §4.3 model-reload worst case).  Hardware
service wipes the staging memory — the repair queue invalidates every
node of a serviced slot — and hit/miss counters surface through
:class:`~repro.cluster.scheduler.CapacityReport` so benchmarks can
attribute re-placement speedups to the cache.

The cache is *opt-in* (``ClusterManager(..., bitstream_cache=...)``):
without one, every configure path is bit-identical to the uncached
control plane.
"""

from __future__ import annotations

import collections

from repro.hardware.bitstream import Bitstream
from repro.hardware.constants import MODEL_RELOAD_WORST_NS

# A cache hit swaps the role region at model-reload cost: the image is
# already staged board-side, so no flash read and no PCIe transfer.
CACHED_RELOAD_NS = MODEL_RELOAD_WORST_NS

# §3.1: board DRAM is shared with the role's working set; a handful of
# ~21 MB images is what realistically stays resident per node.
DEFAULT_CAPACITY_PER_NODE = 4


class BitstreamCache:
    """LRU of the role images staged in each node's board DRAM."""

    def __init__(self, capacity_per_node: int = DEFAULT_CAPACITY_PER_NODE):
        if capacity_per_node < 1:
            raise ValueError(
                f"cache needs at least one image per node, got {capacity_per_node}"
            )
        self.capacity_per_node = capacity_per_node
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        # machine_id -> OrderedDict[Bitstream, None], oldest first.
        self._staged: dict[str, collections.OrderedDict] = {}

    # -- lookup / install --------------------------------------------------------

    def lookup(self, machine_id: str, bitstream: Bitstream) -> bool:
        """Whether ``bitstream`` is staged on ``machine_id`` (counts)."""
        images = self._staged.get(machine_id)
        if images is not None and bitstream in images:
            images.move_to_end(bitstream)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def install(self, machine_id: str, bitstream: Bitstream) -> None:
        """Record that ``machine_id`` now holds ``bitstream`` (MRU)."""
        images = self._staged.setdefault(machine_id, collections.OrderedDict())
        images[bitstream] = None
        images.move_to_end(bitstream)
        while len(images) > self.capacity_per_node:
            images.popitem(last=False)
            self.evictions += 1

    def invalidate(self, machine_id: str) -> int:
        """Drop every staged image (hardware serviced/replaced)."""
        images = self._staged.pop(machine_id, None)
        dropped = len(images) if images else 0
        self.invalidations += dropped
        return dropped

    # -- observation -------------------------------------------------------------

    def staged_on(self, machine_id: str) -> list[Bitstream]:
        """Staged images, oldest first (exposed for tests)."""
        return list(self._staged.get(machine_id, ()))

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }

    def __repr__(self) -> str:
        return (
            f"<BitstreamCache nodes={len(self._staged)} "
            f"hits={self.hits} misses={self.misses}>"
        )
