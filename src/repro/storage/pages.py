"""Disk-page model for the simulated storage layer.

The paper's Figures 4 and 5 report **disk accesses**.  Our substitute for
the original Java testbed's disk is explicit accounting: a node of the
R*-tree is one disk page, and every visit counts as one access.
:class:`PageConfig` turns a byte page size into index fanout, so
experiments can sweep realistic page sizes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PageConfig:
    """Sizing of the simulated disk pages.

    ``page_size`` is in bytes; ``pointer_size`` and ``float_size`` model the
    on-disk footprint of child pointers / payload ids and rectangle
    coordinates.  The defaults (4 KiB pages, 8-byte words) give a 2-D R*
    fanout of ~102 and a 1-D fanout of ~170 — the 1-D trees of the separate
    strategy are shallower *per tree*, which the paper's experiment shapes
    reflect.
    """

    page_size: int = 4096
    pointer_size: int = 8
    float_size: int = 8

    def __post_init__(self) -> None:
        if self.page_size < 128:
            raise ValueError(f"page_size too small to hold a node: {self.page_size}")

    def index_entry_size(self, dimensions: int) -> int:
        """Bytes for one index entry: a k-dim rectangle plus a pointer."""
        return 2 * dimensions * self.float_size + self.pointer_size

    def index_fanout(self, dimensions: int) -> int:
        """Maximum entries per R*-tree node for this page size."""
        fanout = self.page_size // self.index_entry_size(dimensions)
        if fanout < 4:
            raise ValueError(
                f"page size {self.page_size} holds only {fanout} {dimensions}-D entries; "
                "R*-tree nodes need at least 4"
            )
        return fanout
