"""Allen interval-algebra relations between real time intervals.

Exactly one of the 13 relations holds for any ordered pair of valid
intervals; :func:`allen_relation` classifies a pair by comparing endpoint
order, and each relation knows its inverse.
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


_INVERSES = {
    a: b
    for x, y in (
        (AllenRelation.PRECEDES, AllenRelation.PRECEDED_BY),
        (AllenRelation.MEETS, AllenRelation.MET_BY),
        (AllenRelation.OVERLAPS, AllenRelation.OVERLAPPED_BY),
        (AllenRelation.STARTS, AllenRelation.STARTED_BY),
        (AllenRelation.DURING, AllenRelation.CONTAINS),
        (AllenRelation.FINISHES, AllenRelation.FINISHED_BY),
        (AllenRelation.EQUALS, AllenRelation.EQUALS),
    )
    for a, b in ((x, y), (y, x))
}


def allen_relation(x: Interval, y: Interval) -> AllenRelation:
    """Classify the unique Allen relation holding between ``x`` and ``y``."""
    if x.end < y.start:
        return AllenRelation.PRECEDES
    if y.end < x.start:
        return AllenRelation.PRECEDED_BY
    if x.end == y.start:
        return AllenRelation.MEETS
    if y.end == x.start:
        return AllenRelation.MET_BY
    # The intervals now properly overlap: x.start < y.end and y.start < x.end.
    if x.start == y.start:
        if x.end == y.end:
            return AllenRelation.EQUALS
        return AllenRelation.STARTS if x.end < y.end else AllenRelation.STARTED_BY
    if x.end == y.end:
        return AllenRelation.FINISHES if x.start > y.start else AllenRelation.FINISHED_BY
    if y.start < x.start and x.end < y.end:
        return AllenRelation.DURING
    if x.start < y.start and y.end < x.end:
        return AllenRelation.CONTAINS
    return AllenRelation.OVERLAPS if x.start < y.start else AllenRelation.OVERLAPPED_BY
