"""Fig. 6's TAT tree, pinned to the bytes of its description.

The tree is the 53,145-rectangle Long Beach build at capacity 100, the
largest tuple-at-a-time build of the regeneration.  The digest was
recorded from the scalar-era implementation (``Rect`` entries and a
per-row ChooseLeaf) before the array insert loop replaced it, so any
change to the loop that moves one float of one node MBR fails here.
"""

import hashlib

from repro.experiments.common import get_dataset
from repro.packing import tat_description

FIG6_TAT_SHA256 = "16854eb0e3d09812c8956a5091626aa648dc89ac9c8820b3f003b90ef7af5f63"
"""sha256 over each level's ``lo.tobytes()`` then ``hi.tobytes()``,
root first."""


def description_digest(desc) -> str:
    h = hashlib.sha256()
    for level in desc.levels:
        h.update(level.lo.tobytes())
        h.update(level.hi.tobytes())
    return h.hexdigest()


def test_fig6_tat_description_is_byte_identical():
    desc = tat_description(get_dataset("tiger"), 100)
    assert desc.node_counts == (1, 13, 762)
    assert description_digest(desc) == FIG6_TAT_SHA256
