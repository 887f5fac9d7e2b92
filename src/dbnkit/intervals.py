"""Allen interval-algebra relations between real time intervals.

Exactly one of the 13 relations holds for any ordered pair of valid
intervals, and Allen defines each by how the two intervals' endpoints are
ordered.  :func:`allen_relation` looks up the pair's four endpoint orders in
one table, and each relation's inverse is derived from that table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


@dataclass(frozen=True)
class Interval:
    """A non-degenerate interval with ``start`` strictly before ``end``."""

    start: float
    end: float

    def __post_init__(self):
        if not self.start < self.end:
            raise ValueError(
                f"interval start must be strictly before end, got [{self.start}, {self.end}]"
            )


class AllenRelation(enum.Enum):
    PRECEDES = "precedes"
    PRECEDED_BY = "preceded-by"
    MEETS = "meets"
    MET_BY = "met-by"
    OVERLAPS = "overlaps"
    OVERLAPPED_BY = "overlapped-by"
    STARTS = "starts"
    STARTED_BY = "started-by"
    DURING = "during"
    CONTAINS = "contains"
    FINISHES = "finishes"
    FINISHED_BY = "finished-by"
    EQUALS = "equals"

    @property
    def inverse(self) -> "AllenRelation":
        """The relation that holds for the swapped pair of intervals."""
        return _INVERSES[self]


# The relation of (x, y) by its four endpoint orders (x.start vs y.start,
# x.end vs y.end, x.start vs y.end, x.end vs y.start), each -1, 0 or 1.
_BY_ORDER = {
    (-1, -1, -1, -1): AllenRelation.PRECEDES,
    (1, 1, 1, 1): AllenRelation.PRECEDED_BY,
    (-1, -1, -1, 0): AllenRelation.MEETS,
    (1, 1, 0, 1): AllenRelation.MET_BY,
    (-1, -1, -1, 1): AllenRelation.OVERLAPS,
    (1, 1, -1, 1): AllenRelation.OVERLAPPED_BY,
    (0, -1, -1, 1): AllenRelation.STARTS,
    (0, 1, -1, 1): AllenRelation.STARTED_BY,
    (1, -1, -1, 1): AllenRelation.DURING,
    (-1, 1, -1, 1): AllenRelation.CONTAINS,
    (1, 0, -1, 1): AllenRelation.FINISHES,
    (-1, 0, -1, 1): AllenRelation.FINISHED_BY,
    (0, 0, -1, 1): AllenRelation.EQUALS,
}

# Swapping the pair negates each order and swaps the two mixed ones.
_INVERSES = {rel: _BY_ORDER[-a, -b, -d, -c] for (a, b, c, d), rel in _BY_ORDER.items()}


def _order(a, b):
    return int(a > b) - int(a < b)


def allen_relation(x: Interval, y: Interval) -> AllenRelation:
    """Classify the unique Allen relation holding between ``x`` and ``y``."""
    return _BY_ORDER[_order(x.start, y.start), _order(x.end, y.end), _order(x.start, y.end), _order(x.end, y.start)]
