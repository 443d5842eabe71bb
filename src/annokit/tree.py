"""Interval index over one start-sorted list, with relation queries.

Entries are ``(start, end, payload, interval)`` tuples kept in canonical
order: start ascending, end breaking ties, then the payloads themselves,
so the payloads stored at one interval must be orderable with ``<`` and
must not change their order while stored. A document indexes its
``Annotation`` objects, whose order breaks ties by id, so iteration
reproduces the canonical annotation order exactly. A start-sorted array
is all that interval queries need (NCList, Alekseyenko & Lee,
Bioinformatics 2007).

Cost model. An ``insert`` whose interval sorts after the last entry's is
one compare plus an append, and so is one at the last entry's interval
whose payload sorts after the last payload: reading a document back in
canonical order, the store inserts every row that way. Any other
``insert``, and every ``remove``, bisects the key, comparing payloads
only within the run of one interval, and shifts the list tail in C.

``query`` bisects the start range that the relation allows and keeps the
entries in it whose end lies in the relation's end range; the bounds are
exact, so no entry is tested with the relation's predicate. No entry is
longer than ``max_len``, the longest span ever inserted, so the range's
lower end is raised to ``e_lo - max_len`` as well. EQ, STARTS,
STARTED_BY, FINISHES, DURING, OVERLAPPED_BY, MET_BY and AFTER bound the
start from below by the probe itself and scan little beyond their hits;
BEFORE scans the entries starting before the probe. MEETS, CONTAINS,
FINISHED_BY and OVERLAPS bound the start from below only through
``max_len``: once one long span is indexed (a section, the whole
document) they scan every entry starting within ``max_len`` before the
probe, about 1 ms per query on 40k entries with one document-length span
(Python 3.11, 2-vCPU VM). ``annokit query --rel`` and
``Document.annotations_satisfying`` issue all thirteen relations, and
so does every session of the benchmark's revisit workload: over one
revisit round (seed 5, one query per relation on each of 20 documents)
CONTAINS, FINISHED_BY, MEETS and OVERLAPS take about 1.9, 1.9, 1.8 and
1.4 ms, against 0.13-0.25 ms each for DURING, STARTS, STARTED_BY,
FINISHES, MET_BY and OVERLAPPED_BY. Bounding those four by what they
return is ROADMAP.md item 1 ("Every Allen relation costs what it
returns"). ``within`` scans exactly the entries that start inside its
interval, and ``starting_from`` only the entries its caller takes.
"""

import math
from bisect import bisect_left

from .errors import DuplicateEntryError, NotFoundError, ValidationError
from .intervals import AllenRelation, Interval

INF = math.inf


# Inclusive bounds (s_lo, s_hi, e_lo, e_hi) on an interval i such that,
# given b = (bs, be), "i REL b" holds exactly when i lies within them.
# Derived from the relation predicates plus i.start <= i.end, null
# intervals included; the bounds are exact, so query() never calls the
# predicate.
_BOUNDS = {
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


class IntervalTree:
    """Ordered index from intervals to payloads.

    The same interval may carry many payloads, kept in payload order; the
    same (interval, payload) pair may be stored only once.
    """

    def __init__(self):
        self._entries = []
        # Longest span ever inserted; never shrinks, so it stays a bound.
        self._max_len = 0
        # Entries scanned by the most recent query(), for pruning checks.
        self.last_visited = 0

    def __len__(self):
        return len(self._entries)

    @property
    def node_count(self) -> int:
        """Number of distinct intervals stored; one pass over the entries."""
        return len({entry[:2] for entry in self._entries})

    def _run(self, interval):
        """Index range of the entries stored at exactly this interval."""
        s, e = interval.start, interval.end
        lo = bisect_left(self._entries, (s, e))
        return lo, bisect_left(self._entries, (s, e + 1), lo)

    def __contains__(self, interval: Interval) -> bool:
        lo, hi = self._run(interval)
        return lo < hi

    def find(self, interval: Interval) -> list:
        """Payloads stored at exactly this interval, in payload order."""
        lo, hi = self._run(interval)
        return [entry[2] for entry in self._entries[lo:hi]]

    def __iter__(self):
        """Yield (interval, payload) pairs in canonical order."""
        for entry in self._entries:
            yield entry[3], entry[2]

    def insert(self, interval: Interval, payload) -> None:
        """Add one (interval, payload) entry in payload order among any
        others at the same interval. Re-adding a payload already stored at
        that interval raises DuplicateEntryError."""
        s, e = interval.start, interval.end
        entries = self._entries
        # (s, e) sorts after the last entry only when the interval does: a
        # pair equal to an entry's key prefix sorts before it. No entry then
        # shares the interval, so there is no duplicate to look for.
        if not entries or (s, e) > entries[-1]:
            k = len(entries)
        elif (entries[-1][0] == s and entries[-1][1] == e
              and entries[-1][2] < payload):
            # The tie of an in-order load: last in its run, and no
            # duplicate, since the payload sorts after every stored one.
            entries.append((s, e, payload, interval))
            return
        else:
            lo, hi = self._run(interval)
            k = bisect_left(entries, (s, e, payload), lo, hi)
            if k < hi and entries[k][2] == payload:
                raise DuplicateEntryError(
                    f"entry ({interval}, {payload!r}) already present"
                )
        entries.insert(k, (s, e, payload, interval))
        if e - s > self._max_len:
            self._max_len = e - s

    def remove(self, interval: Interval, payload) -> None:
        """Drop one entry."""
        lo, hi = self._run(interval)
        if lo == hi:
            raise NotFoundError(f"no entries at {interval}")
        k = bisect_left(self._entries,
                        (interval.start, interval.end, payload), lo, hi)
        if k == hi or self._entries[k][2] != payload:
            raise NotFoundError(
                f"payload {payload!r} not present at {interval}"
            )
        del self._entries[k]

    # queries

    def query(self, relation: AllenRelation, interval: Interval) -> list:
        """All (interval, payload) entries bearing ``relation`` to the query
        interval, in canonical order. Sets ``last_visited`` to the number of
        entries scanned."""
        s_lo, s_hi, e_lo, e_hi = _BOUNDS[relation](interval.start, interval.end)
        self.last_visited = 0
        if s_lo > s_hi or e_lo > e_hi:
            return []
        entries = self._entries
        lo = bisect_left(entries, (max(s_lo, e_lo - self._max_len),))
        hi = bisect_left(entries, (s_hi + 1,), lo)
        self.last_visited = hi - lo
        return [(iv, payload)
                for _, end, payload, iv in entries[lo:hi]
                if e_lo <= end <= e_hi]

    def within(self, interval: Interval) -> list:
        """All (interval, payload) entries lying inside ``interval``,
        boundaries included, in canonical order."""
        entries = self._entries
        lo = bisect_left(entries, (interval.start,))
        hi = bisect_left(entries, (interval.end + 1,), lo)
        return [(iv, payload)
                for _, end, payload, iv in entries[lo:hi]
                if end <= interval.end]

    def starting_from(self, position: int):
        """Yield the (interval, payload) entries starting at or after
        ``position``, in canonical order. Lazy: a caller that stops
        early pays only for the entries it took."""
        entries = self._entries
        for k in range(bisect_left(entries, (position,)), len(entries)):
            _, _, payload, interval = entries[k]
            yield interval, payload

    # integrity

    def audit(self) -> dict:
        """Verify every structural invariant; raise ValidationError on the
        first violation, else return summary statistics."""
        previous = None
        for s, e, payload, iv in self._entries:
            key = (s, e, payload)
            if previous is not None and not previous < key:
                raise ValidationError(f"order violation: {previous} before {key}")
            if (iv.start, iv.end) != (s, e):
                raise ValidationError(f"key {(s, e)} stored for {iv}")
            if e - s > self._max_len:
                raise ValidationError(
                    f"{iv} is longer than the length bound {self._max_len}"
                )
            previous = key
        return {"nodes": self.node_count, "entries": len(self._entries)}
