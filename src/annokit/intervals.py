"""Half-open integer intervals and the 13 pairwise relations between them.

Spans are 0-based and half-open: an interval (start, end) covers positions
p with start <= p < end, and a null interval has start == end. Under this
reading adjacency is exact: (1,3) meets (3,5) with no gap arithmetic.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ValidationError


@dataclass(frozen=True, order=True, slots=True)
class Interval:
    """A half-open character (or token) span. start <= end, both >= 0.
    Intervals order by start, then end: the canonical order."""

    start: int
    end: int

    def __post_init__(self):
        if self.start < 0:
            raise ValidationError(f"interval start must be >= 0, got {self.start}")
        if self.start > self.end:
            raise ValidationError(
                f"interval start must not exceed end: ({self.start}, {self.end})"
            )

    @property
    def is_null(self) -> bool:
        return self.start == self.end

    def __len__(self) -> int:
        return self.end - self.start

    def __repr__(self) -> str:
        return f"({self.start},{self.end})"


class AllenRelation(Enum):
    """The 13 pairwise interval relations, named from the first argument's
    point of view: ``i BEFORE j`` means i ends strictly before j starts."""

    EQ = "eq"
    BEFORE = "before"
    AFTER = "after"
    MEETS = "meets"
    MET_BY = "met-by"
    DURING = "during"
    CONTAINS = "contains"
    STARTS = "starts"
    STARTED_BY = "started-by"
    FINISHES = "finishes"
    FINISHED_BY = "finished-by"
    OVERLAPS = "overlaps"
    OVERLAPPED_BY = "overlapped-by"

    @classmethod
    def from_string(cls, tag: str) -> "AllenRelation":
        """Parse a relation tag, accepting - or _ separators, any case."""
        normalized = tag.strip().lower().replace("_", "-")
        for rel in cls:
            if rel.value == normalized:
                return rel
        raise ValidationError(
            f"unknown relation {tag!r}; valid tags: "
            + ", ".join(r.value for r in cls)
        )


# Predicates deciding "i REL j", evaluated on raw endpoints.
_PREDICATES = {
    AllenRelation.EQ: lambda i, j: i.start == j.start and i.end == j.end,
    AllenRelation.BEFORE: lambda i, j: i.end < j.start,
    AllenRelation.AFTER: lambda i, j: i.start > j.end,
    AllenRelation.MEETS: lambda i, j: i.end == j.start,
    AllenRelation.MET_BY: lambda i, j: i.start == j.end,
    AllenRelation.DURING: lambda i, j: i.start > j.start and i.end < j.end,
    AllenRelation.CONTAINS: lambda i, j: j.start > i.start and j.end < i.end,
    AllenRelation.STARTS: lambda i, j: i.start == j.start and i.end < j.end,
    AllenRelation.STARTED_BY: lambda i, j: i.start == j.start and i.end > j.end,
    AllenRelation.FINISHES: lambda i, j: j.start < i.start and i.end == j.end,
    AllenRelation.FINISHED_BY: lambda i, j: j.start > i.start and i.end == j.end,
    AllenRelation.OVERLAPS: lambda i, j: i.start < j.start < i.end < j.end,
    AllenRelation.OVERLAPPED_BY: lambda i, j: j.start < i.start < j.end < i.end,
}

INF = math.inf

# Inclusive bounds (s_lo, s_hi, e_lo, e_hi) on an interval i such that,
# given b = (bs, be), "i REL b" holds exactly when i lies within them.
# Derived from the predicates above plus i.start <= i.end, null intervals
# included; the bounds are exact, so an index scanning this box never
# calls the predicate.
BOUNDS = {
    AllenRelation.EQ: lambda bs, be: (bs, bs, be, be),
    AllenRelation.BEFORE: lambda bs, be: (0, bs - 1, 0, bs - 1),
    AllenRelation.AFTER: lambda bs, be: (be + 1, INF, be + 1, INF),
    AllenRelation.MEETS: lambda bs, be: (0, bs, bs, bs),
    AllenRelation.MET_BY: lambda bs, be: (be, be, be, INF),
    AllenRelation.DURING: lambda bs, be: (bs + 1, be - 1, bs + 1, be - 1),
    AllenRelation.CONTAINS: lambda bs, be: (0, bs - 1, be + 1, INF),
    AllenRelation.STARTS: lambda bs, be: (bs, bs, bs, be - 1),
    AllenRelation.STARTED_BY: lambda bs, be: (bs, bs, be + 1, INF),
    AllenRelation.FINISHES: lambda bs, be: (bs + 1, be, be, be),
    AllenRelation.FINISHED_BY: lambda bs, be: (0, bs - 1, be, be),
    AllenRelation.OVERLAPS: lambda bs, be: (0, bs - 1, bs + 1, be - 1),
    AllenRelation.OVERLAPPED_BY: lambda bs, be: (bs + 1, be - 1, be + 1, INF),
}

_INVERSES = {
    AllenRelation.EQ: AllenRelation.EQ,
    AllenRelation.BEFORE: AllenRelation.AFTER,
    AllenRelation.AFTER: AllenRelation.BEFORE,
    AllenRelation.MEETS: AllenRelation.MET_BY,
    AllenRelation.MET_BY: AllenRelation.MEETS,
    AllenRelation.DURING: AllenRelation.CONTAINS,
    AllenRelation.CONTAINS: AllenRelation.DURING,
    AllenRelation.STARTS: AllenRelation.STARTED_BY,
    AllenRelation.STARTED_BY: AllenRelation.STARTS,
    AllenRelation.FINISHES: AllenRelation.FINISHED_BY,
    AllenRelation.FINISHED_BY: AllenRelation.FINISHES,
    AllenRelation.OVERLAPS: AllenRelation.OVERLAPPED_BY,
    AllenRelation.OVERLAPPED_BY: AllenRelation.OVERLAPS,
}


def relate(i: Interval, j: Interval) -> set[AllenRelation]:
    """Every relation that holds between i and j.

    For two non-null intervals exactly one relation holds. When an interval
    is null (start == end) several relations can hold at once, e.g. a null
    interval sitting on j's start both MEETS and STARTS j, so the result is
    a set rather than a single tag.
    """
    return {rel for rel, pred in _PREDICATES.items() if pred(i, j)}


def holds(rel: AllenRelation, i: Interval, j: Interval) -> bool:
    """True iff ``i rel j``. Cheaper than relate() when one tag is tested."""
    return _PREDICATES[rel](i, j)


def inverse(rel: AllenRelation) -> AllenRelation:
    """The relation j bears to i when i bears ``rel`` to j."""
    return _INVERSES[rel]

