"""Documents and stand-off annotations.

A document's text is immutable; all analysis attaches as annotations that
point into the text by character span. Every document carries an index
(interval tree + id map) kept consistent by the operations here; its
per-type id sets are read off the annotations when asked for. Canonical
annotation order, defined once by ``canonical_key``, is start, then end,
then id, with provisional ids after durable ones in creation order; the
store reads annotations back in the same order. When the store replaces
provisional ids, it gives them ids above every durable id of the
document, in canonical order, so no annotation changes place.
Also home to the deliberately simple built-in tokenizer and sentence
splitter, the external tab-separated annotation exchange format, and the
five-way sentence segmentation used for concept-pair context.
"""

import re
from contextlib import contextmanager
from dataclasses import dataclass, field

from .errors import (
    AnnokitError,
    BoundsError,
    DuplicateEntryError,
    ImportFormatError,
    NotFoundError,
    OrderError,
    OverlapError,
    ValidationError,
)
from .intervals import AllenRelation, Interval
from .tree import IntervalTree

# Maximal letter/digit runs, single punctuation marks, or a lone underscore.
TOKEN_PATTERN = re.compile(r"[^\W_]+|[^\w\s]|_")

# Trailing-period words that do not end a sentence (casefolded).
DEFAULT_ABBREVIATIONS = frozenset(
    {"dr.", "mr.", "mrs.", "ms.", "vs.", "e.g.", "i.e."}
)

# Reserved attribute key that carries provenance through the TSV format
# (the store has a column), so no annotation may hold it as an attribute.
_PROVENANCE_KEY = "_provenance"

# The one attribute that holds the id of another annotation: a section's
# parent. The store writes it with the durable id it gives that parent.
_PARENT_REFERENCE = ("section", "parent")


def _check_text(type_name, value, attributes, provenance):
    """Raise ValidationError unless every text is ``str`` (exact class),
    the attributes are a ``dict`` and none is named ``_provenance``."""
    if not (type_name.__class__ is value.__class__ is provenance.__class__
            is str):
        raise ValidationError("type_name, value and provenance must be str")
    if not isinstance(attributes, dict):
        raise ValidationError(
            f"attributes are a {type(attributes).__name__}, not a dict")
    for key, text in attributes.items():
        if not (key.__class__ is text.__class__ is str):
            raise ValidationError(f"attribute {key!r}={text!r} is not str")
    if _PROVENANCE_KEY in attributes:
        raise ValidationError(
            f"attribute key {_PROVENANCE_KEY!r} is reserved for provenance")


def _check_entry(length, span, type_name, value, attributes, provenance):
    """Raise ValidationError or BoundsError unless an annotation may enter
    a document of ``length`` characters: its type, value, provenance and
    attributes are all ``str``, its type is not empty, no attribute is
    named ``_provenance``, and its span ends inside the text."""
    _check_text(type_name, value, attributes, provenance)
    if not type_name:
        raise ValidationError("annotation type_name must be non-empty")
    if span.end > length:
        raise BoundsError(f"span {span} exceeds document length {length}")


def canonical_key(ann):
    """Canonical order: start, end, then id, provisional ids (-1, -2, ...)
    after every durable one and among themselves in creation order."""
    return ann.span.start, ann.span.end, ann.id < 0, abs(ann.id)


@dataclass(eq=True, slots=True)
class Annotation:
    """One stand-off annotation. ``value`` is the principal indexed datum
    (a CUI, POS tag, section name, ...); everything else rides in
    ``attributes``. Negative ids are provisional and get replaced by the
    store on first persist."""

    span: Interval
    type_name: str
    value: str = ""
    attributes: dict = field(default_factory=dict)
    provenance: str = ""
    id: int | None = None

    def __lt__(self, other):
        return canonical_key(self) < canonical_key(other)


class AnnotationIndex:
    """Interval tree of annotations plus an id map, mutated only together.
    The tree orders annotations by ``Annotation.__lt__``, so an
    annotation's span and id may change only through this class."""

    def __init__(self):
        self.tree = IntervalTree()
        self.by_id: dict[int, Annotation] = {}

    def __len__(self):
        return len(self.by_id)

    @property
    def by_type(self) -> dict[str, set[int]]:
        """Each type present, mapped to the ids of its annotations; one
        pass over the annotations."""
        out = {}
        for ann_id, ann in self.by_id.items():
            out.setdefault(ann.type_name, set()).add(ann_id)
        return out

    def add(self, ann: Annotation) -> None:
        if ann.id in self.by_id:
            raise DuplicateEntryError(f"annotation id {ann.id} already used")
        self.tree.insert(ann.span, ann)
        self.by_id[ann.id] = ann

    def respan(self, ann: Annotation, span: Interval) -> None:
        """Give an indexed annotation a new span."""
        if span != ann.span:
            self.tree.remove(ann.span, ann)
            ann.span = span
            self.tree.insert(span, ann)

    def replace_ids(self, new_ids: dict[int, int]) -> None:
        """Rebind annotation ``old`` to id ``new_ids[old]``, for each
        ``old``. Tree entries stay where they are, so the caller must pick
        new ids that keep each one in its place among equal spans."""
        by_id = self.by_id
        for old_id, new_id in new_ids.items():
            ann = by_id.pop(old_id)
            ann.id = new_id
            by_id[new_id] = ann


def _of_type(entries, type_filter: str | None) -> list[Annotation]:
    """The annotations of (interval, annotation) ``entries`` whose type is
    ``type_filter``, or all of them when it is None."""
    return [ann for _, ann in entries
            if type_filter is None or ann.type_name == type_filter]


class Document:
    """A named text plus its annotation index and dirty-tracking."""

    def __init__(self, name: str, content: str, doc_id: int | None = None,
                 metadata: dict | None = None):
        self.id = doc_id
        self.name = name
        self._content = content
        self.metadata = dict(metadata or {})
        self.index = AnnotationIndex()
        self.dirty: set[int] = set()
        self._next_provisional = -1

    @property
    def content(self) -> str:
        """The document text. There is deliberately no setter."""
        return self._content

    def __repr__(self):
        return (f"Document(name={self.name!r}, id={self.id}, "
                f"chars={len(self._content)}, "
                f"annotations={len(self.index)})")

    def add_annotation(self, ann: Annotation) -> int:
        """Attach an annotation, assigning a provisional id when it has
        none, and mark it dirty."""
        _check_entry(len(self._content), ann.span, ann.type_name, ann.value,
                     ann.attributes, ann.provenance)
        return self._attach(ann)

    def _attach(self, ann: Annotation) -> int:
        """``add_annotation`` without the check, for an annotation that
        has passed it."""
        if ann.id is None:
            ann.id = self._next_provisional
            self._next_provisional -= 1
        self.index.add(ann)
        self.dirty.add(ann.id)
        return ann.id

    def annotate(self, span: Interval, type_name: str, value: str = "",
                 attributes: dict | None = None,
                 provenance: str = "") -> Annotation:
        """Build and attach an annotation in one step."""
        ann = Annotation(span=span, type_name=type_name, value=value,
                         attributes=dict(attributes or {}),
                         provenance=provenance)
        self.add_annotation(ann)
        return ann

    def annotation(self, ann_id: int) -> Annotation:
        try:
            return self.index.by_id[ann_id]
        except KeyError:
            raise NotFoundError(
                f"no annotation {ann_id} in document {self.name!r}"
            ) from None

    def annotations(self, type_filter: str | None = None) -> list[Annotation]:
        """All annotations in canonical order (start, end, id)."""
        return _of_type(self.index.tree, type_filter)

    def annotations_satisfying(self, rel: AllenRelation, b: Interval,
                               type_filter: str | None = None
                               ) -> list[Annotation]:
        """Annotations whose span bears ``rel`` to b, canonical order."""
        return _of_type(self.index.tree.query(rel, b), type_filter)

    def next_annotations(self, anchor: Annotation, k: int,
                         type_filter: str | None = None) -> list[Annotation]:
        """The first k annotations starting at or after anchor's end.

        Adjacent spans count: under half-open offsets a token beginning
        exactly at anchor.end is the immediate successor.
        """
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        if self.index.by_id.get(anchor.id) is not anchor:
            raise NotFoundError("anchor does not belong to this document")
        out = []
        for _, ann in self.index.tree.starting_from(anchor.span.end):
            if ann is anchor:
                continue
            if type_filter is not None and ann.type_name != type_filter:
                continue
            out.append(ann)
            if len(out) == k:
                break
        return out

    def annotations_within(self, b: Interval,
                           type_filter: str | None = None
                           ) -> list[Annotation]:
        """Annotations fully inside b (boundaries included), canonical."""
        return _of_type(self.index.tree.within(b), type_filter)

    def update_annotation(self, ann_id: int, span: Interval | None = None,
                          type_name: str | None = None,
                          value: str | None = None,
                          attributes: dict | None = None,
                          provenance: str | None = None) -> Annotation:
        """Modify fields of an existing annotation, keeping the index
        consistent, and mark it dirty. The edited annotation meets the
        rules ``add_annotation`` checks, or nothing changes."""
        ann = self.annotation(ann_id)
        span = ann.span if span is None else span
        type_name = ann.type_name if type_name is None else type_name
        value = ann.value if value is None else value
        attributes = ann.attributes if attributes is None else dict(attributes)
        provenance = ann.provenance if provenance is None else provenance
        _check_entry(len(self._content), span, type_name, value, attributes,
                     provenance)
        self.index.respan(ann, span)
        ann.type_name, ann.value, ann.provenance = type_name, value, provenance
        ann.attributes = attributes
        self.dirty.add(ann_id)
        return ann


@dataclass(frozen=True)
class SegmentContext:
    """The five-way partition of a sentence around an ordered concept pair."""

    preceding: Interval
    concept1: Interval
    between: Interval
    concept2: Interval
    succeeding: Interval

    def spans(self) -> tuple[Interval, ...]:
        return (self.preceding, self.concept1, self.between,
                self.concept2, self.succeeding)


def _span_of(x) -> Interval:
    return x.span if isinstance(x, Annotation) else x


def segment_context(doc: Document, c1, c2, sentence) -> SegmentContext:
    """Partition a sentence into preceding / c1 / between / c2 / succeeding.

    c1 must end at or before c2's start. Concepts lying partly outside the
    sentence are a bounds error; a swapped pair is an order error (callers
    sort, this function does not guess); anything else touching is an
    overlap error.
    """
    s = _span_of(sentence)
    a = _span_of(c1)
    b = _span_of(c2)
    if s.end > len(doc.content):
        raise BoundsError(f"sentence span {s} exceeds document length")
    for label, c in (("c1", a), ("c2", b)):
        if c.start < s.start or c.end > s.end:
            raise BoundsError(f"{label} span {c} lies outside sentence {s}")
    if a.end > b.start:
        if b.end <= a.start:
            raise OrderError(
                f"c2 {b} precedes c1 {a}; pass the concepts in text order"
            )
        raise OverlapError(f"concept spans {a} and {b} overlap")
    return SegmentContext(
        preceding=Interval(s.start, a.start),
        concept1=a,
        between=Interval(a.end, b.start),
        concept2=b,
        succeeding=Interval(b.end, s.end),
    )


def tokenize_text(text: str) -> list[tuple[str, Interval]]:
    """(surface, span) pairs for every token in the text."""
    return [(m.group(), Interval(m.start(), m.end()))
            for m in TOKEN_PATTERN.finditer(text)]


def tokenize(doc: Document) -> list[Annotation]:
    """Token annotations for the document text, ready to add.

    Tokens are maximal letter/digit runs or single punctuation marks. Each
    records its ordinal so word-counted measures can be derived later.
    """
    out = []
    for ordinal, (surface, span) in enumerate(tokenize_text(doc.content)):
        out.append(Annotation(
            span=span, type_name="token", value=surface,
            attributes={"ordinal": str(ordinal)},
            provenance="builtin-tokenizer",
        ))
    return out


def _breaks_sentence(text: str, i: int, abbreviations) -> bool:
    # A closing [.?!] ends the sentence when whitespace and then an
    # uppercase letter follow, unless the word it closes is a known
    # abbreviation ("Dr." etc).
    j = i + 1
    while j < len(text) and text[j] in " \t":
        j += 1
    if j == i + 1 or j >= len(text) or not text[j].isupper():
        return False
    k = i
    while k > 0 and not text[k - 1].isspace():
        k -= 1
    return text[k:i + 1].casefold() not in abbreviations


def split_sentences(doc: Document,
                    abbreviations=DEFAULT_ABBREVIATIONS) -> list[Annotation]:
    """Sentence annotations for the document text, ready to add.

    Rule-based on purpose: break after sentence punctuation followed by
    whitespace and an uppercase letter (abbreviation-guarded), and at
    newlines. Spans are trimmed of surrounding whitespace. Serious
    splitting belongs to external tools whose output is imported.
    """
    text = doc.content
    abbreviations = frozenset(a.casefold() for a in abbreviations)
    pieces = []
    seg_start = 0
    for i, ch in enumerate(text):
        if ch == "\n":
            pieces.append((seg_start, i))
            seg_start = i + 1
        elif ch in ".?!" and _breaks_sentence(text, i, abbreviations):
            pieces.append((seg_start, i + 1))
            seg_start = i + 1
    pieces.append((seg_start, len(text)))

    out = []
    for start, end in pieces:
        while start < end and text[start].isspace():
            start += 1
        while end > start and text[end - 1].isspace():
            end -= 1
        if start < end:
            out.append(Annotation(
                span=Interval(start, end), type_name="sentence",
                attributes={"ordinal": str(len(out))},
                provenance="builtin-sentence-splitter",
            ))
    return out


# text files given by path or as open handles

@contextmanager
def open_text(target, mode="r", newline=""):
    """Yield ``target`` itself when it is already an open text handle,
    else the UTF-8 file at that path, closed on exit. Its line ends are
    read and written as they are; ``newline=None`` reads CRLF and CR as
    LF."""
    if hasattr(target, "read") or hasattr(target, "write"):
        yield target
    else:
        with open(target, mode, encoding="utf-8", newline=newline) as handle:
            yield handle


def read_text(src, newline="") -> str:
    """The whole UTF-8 text of ``src``, a path or an open text handle,
    its line ends as ``open_text`` reads them; text that is not UTF-8 is
    an ``AnnokitError`` naming the file."""
    try:
        with open_text(src, newline=newline) as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        name = getattr(src, "name", src)
        raise AnnokitError(f"cannot read {name}: {exc}") from exc


def _is_content(line: str) -> bool:
    """Whether a line is neither blank nor a ``#`` comment."""
    return bool(line.strip()) and not line.lstrip().startswith("#")


def content_lines(src) -> list[tuple[int, str]]:
    """(line number, line) for each non-blank, non-``#`` line of ``src``,
    newline stripped (a file's lines may end in LF, CRLF or CR); None
    reads as an empty file."""
    if src is None:
        return []
    lines = enumerate(read_text(src, newline=None).split("\n"), start=1)
    return [(lineno, line) for lineno, line in lines if _is_content(line)]


# external tab-separated exchange format

_HEADER = "# doc\tstart\tend\ttype\tvalue\tattributes"

# Attribute keys and values are escaped so that the separators ``;`` and
# ``=`` and the line structure survive any text.
_ESCAPES = {"\\": "\\\\", ";": "\\s", "=": "\\e", "\t": "\\t",
            "\n": "\\n", "\r": "\\r"}
_ESCAPED_CHAR = re.compile(r"[\\;=\t\n\r]")
_UNESCAPES = {escaped[1]: char for char, escaped in _ESCAPES.items()}
_ESCAPE_SEQUENCE = re.compile(r"\\(.?)", re.DOTALL)


def _escape(text: str) -> str:
    return _ESCAPED_CHAR.sub(lambda match: _ESCAPES[match.group()], text)


def _unescape(text: str) -> str:
    """Inverse of _escape; ValueError on an escape it never writes."""
    if "\\" not in text:
        return text

    def replace(match):
        if match.group(1) not in _UNESCAPES:
            raise ValueError(f"bad escape {match.group()!r}")
        return _UNESCAPES[match.group(1)]
    return _ESCAPE_SEQUENCE.sub(replace, text)


def _format_attributes(ann: Annotation) -> str:
    parts = [f"{_escape(k)}={_escape(v)}" for k, v in ann.attributes.items()]
    if ann.provenance:
        parts.append(f"{_PROVENANCE_KEY}={_escape(ann.provenance)}")
    return ";".join(parts)


def _parse_attributes(text: str) -> dict:
    """Inverse of _format_attributes; ValueError on a malformed chunk or
    a key given twice."""
    attributes = {}
    for chunk in filter(None, text.split(";")):
        key, sep, val = chunk.partition("=")
        if not sep:
            raise ValueError(f"attribute {chunk!r} has no '='")
        key = _unescape(key)
        if key in attributes:
            raise ValueError(f"attribute {key!r} is given twice")
        attributes[key] = _unescape(val)
    return attributes


def export_annotations(doc: Document, dest,
                       type_filter: str | None = None) -> int:
    """Write annotations as tab-separated lines (0-based half-open spans).

    Provenance travels as a reserved attribute and attribute text is
    escaped, so a round trip through import_external_annotations loses
    nothing. The document name, type and value are written unescaped, so
    a tab, LF or CR in one of them, or a name that makes the line a
    comment, is a ``ValidationError``, raised before anything is written;
    so is a type, value, provenance or attribute that is not ``str``, or
    an attribute named ``_provenance``, as a stored row may bring in.
    """
    lines = []
    for ann in doc.annotations(type_filter):
        try:
            _check_text(ann.type_name, ann.value, ann.attributes,
                        ann.provenance)
        except ValidationError as exc:
            raise ValidationError(f"annotation {ann.id} of {doc.name!r}"
                                  f" cannot be exported: {exc}") from None
        line = "\t".join((
            doc.name, str(ann.span.start), str(ann.span.end),
            ann.type_name, ann.value, _format_attributes(ann),
        ))
        # The attribute column and the offsets hold no separator.
        if (line.count("\t") != 5 or "\n" in line or "\r" in line
                or not _is_content(line)):
            raise ValidationError(
                f"annotation {ann.id} of {doc.name!r} cannot be exported:"
                " its document name, type or value holds a tab, LF or CR,"
                " or its name makes the line a '#' comment")
        lines.append(line + "\n")
    with open_text(dest, "w") as handle:
        handle.write(_HEADER + "\n")
        handle.writelines(lines)
    return len(lines)


def import_external_annotations(doc: Document, src) -> int:
    """Attach annotations from the tab-separated line format, and return
    how many were added.

    Every line is validated before anything is applied; any bad line
    aborts the whole import with the offending 1-based line numbers. A
    line equal to an annotation the document held before the call (same
    span, type, value, attributes and provenance) is skipped, so a rerun
    adds nothing; repeated lines within one file are all added.
    """
    parsed = []
    bad = []
    for lineno, line in content_lines(src):
        fields = line.split("\t")
        if len(fields) != 6 or fields[0] != doc.name:
            bad.append(lineno)
            continue
        _, raw_start, raw_end, type_name, value, raw_attrs = fields
        try:
            span = Interval(int(raw_start), int(raw_end))
            attributes = _parse_attributes(raw_attrs)
            provenance = attributes.pop(_PROVENANCE_KEY, "")
            _check_entry(len(doc.content), span, type_name, value,
                         attributes, provenance)
        except (ValueError, ValidationError, BoundsError):
            bad.append(lineno)
            continue
        parsed.append((span, type_name, value, attributes, provenance))

    if bad:
        raise ImportFormatError(
            "rejected %d line(s): %s" % (len(bad),
                                         ", ".join(map(str, bad))),
            line_numbers=tuple(bad),
        )
    new = [entry for entry in parsed if not any(
        (held.type_name, held.value, held.attributes, held.provenance)
        == entry[1:] for held in doc.index.tree.find(entry[0]))]
    for entry in new:
        doc._attach(Annotation(*entry))
    return len(new)
