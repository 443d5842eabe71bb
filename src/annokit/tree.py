"""Interval index over one start-sorted list, with relation queries.

Entries are ``(start, end, payload, interval)`` tuples kept in canonical
order: start ascending, end breaking ties, then the payloads themselves,
so the payloads stored at one interval must be orderable with ``<`` and
must not change their order while stored. A document indexes its
``Annotation`` objects, whose order breaks ties by id, so iteration
reproduces the canonical annotation order exactly. A start-sorted array
is all that interval queries need (NCList, Alekseyenko & Lee,
Bioinformatics 2007).

Cost model. An ``insert`` whose key (interval, then payload) sorts
after the last entry's is one compare plus an append: reading a document
back in canonical order, the store inserts every row that way. Any other
``insert``, and every ``remove``, bisects the key, comparing payloads
only within the run of one interval, and shifts the list tail in C.

Every positional read is one box scan. ``intervals.BOUNDS`` maps each
relation and probe to a box ``(s_lo, s_hi, e_lo, e_hi)`` of starts and
ends, and ``within(b)`` is the box ``(bs, be, bs, be)``. The scan
bisects the start range and keeps the entries whose end lies in the end
range; the bounds are exact, so no entry is tested with a relation's
predicate. No entry is longer than ``max_len``, the longest span ever
inserted, so the start range's lower end is raised to ``e_lo - max_len``
as well. EQ, STARTS, STARTED_BY, FINISHES, DURING, OVERLAPPED_BY,
MET_BY, AFTER and ``within`` bound the start from below by the probe
itself and scan little beyond their hits; BEFORE scans the entries
starting before the probe. MEETS, CONTAINS, FINISHED_BY and OVERLAPS
bound the start from below only through ``max_len``: once one long span
is indexed (a section, the whole document) they scan every entry
starting within ``max_len`` before the probe, about 1 ms per query on
40k entries with one document-length span (Python 3.11, 2-vCPU VM).
``annokit query --rel`` and ``Document.annotations_satisfying`` issue
all thirteen relations. Bounding those four by what they return is
ROADMAP.md item 2 ("Every Allen relation costs what it returns").
``starting_from`` scans only the entries its caller takes.
"""

from bisect import bisect_left

from .errors import DuplicateEntryError, NotFoundError, ValidationError
from .intervals import BOUNDS, AllenRelation, Interval


class IntervalTree:
    """Ordered index from intervals to payloads.

    The same interval may carry many payloads, kept in payload order; the
    same (interval, payload) pair may be stored only once.
    """

    def __init__(self):
        self._entries = []
        # Longest span ever inserted; never shrinks, so it stays a bound.
        self._max_len = 0
        # Entries scanned by the latest query() or within(), for pruning.
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
        # A key that sorts after the last entry's is not stored, so there is
        # no duplicate to look for; a key equal to an entry's prefix sorts
        # before it and takes the bisect path, which finds the duplicate.
        if not entries or (s, e, payload) > entries[-1]:
            k = len(entries)
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
        return self._scan(*BOUNDS[relation](interval.start, interval.end))

    def within(self, interval: Interval) -> list:
        """All (interval, payload) entries lying inside ``interval``,
        boundaries included, in canonical order."""
        return self._scan(interval.start, interval.end,
                          interval.start, interval.end)

    def _scan(self, s_lo, s_hi, e_lo, e_hi) -> list:
        """The entries with s_lo <= start <= s_hi and e_lo <= end <= e_hi,
        in canonical order; sets ``last_visited``."""
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
