"""Inline XML to stand-off conversion.

Tags are stripped from the markup and each element becomes an annotation
over the exact characters it wrapped, with offsets counted in the
decoded output text. A corpus of repeated record elements can be split
into one document per record. Offsets can be rendered in the canonical
0-based half-open convention or the 1-based fully-inclusive one.
"""

import enum
import re
from dataclasses import dataclass, field
from xml.parsers import expat

from .documents import Annotation, Document
from .errors import ConversionError, ValidationError
from .intervals import Interval

PROVENANCE = "inline-converter"

_XML_DECL = re.compile(r"\s*<\?xml[^>]*\?>")
_DOCTYPE = re.compile(r"\s*<!DOCTYPE[^\[>]*(\[[^\]]*\])?\s*>")
_WRAPPER = b"<annokit-wrapper>"
_WRAPPER_END = b"</annokit-wrapper>"


class OffsetConvention(enum.Enum):
    """half_open_0 is the internal convention; inclusive_1 renders a
    span (s, e) as (s+1, e)."""

    HALF_OPEN_0 = "half_open_0"
    INCLUSIVE_1 = "inclusive_1"

    @classmethod
    def from_string(cls, tag: str) -> "OffsetConvention":
        normalized = tag.strip().lower().replace("-", "_")
        for member in cls:
            if member.value == normalized:
                return member
        raise ValidationError(f"unknown offset convention {tag!r}")


@dataclass
class InlineRecord:
    """One record element: its id, its verbatim inner markup, its
    decoded text, and the stripped tags as (name, attributes, open,
    close) with offsets into ``plain_text``."""

    record_id: str
    raw_text: str
    plain_text: str
    tag_events: list = field(default_factory=list)

    def annotations(self) -> list[Annotation]:
        return [_event_annotation(ev) for ev in self.tag_events]

    def to_document(self) -> Document:
        doc = Document(self.record_id, self.plain_text)
        for ann in self.annotations():
            doc.add_annotation(ann)
        return doc


def _event_annotation(event) -> Annotation:
    name, attrs, start, end = event
    return Annotation(span=Interval(start, end), type_name=name,
                      value=attrs.get("TYPE", name),
                      attributes=dict(attrs), provenance=PROVENANCE)


class _Walker:
    """Streams one expat parse, accumulating decoded text and tag events,
    and optionally slicing out record elements."""

    def __init__(self, text: str, record_element: str | None = None):
        self.record_element = record_element
        self.records: list[InlineRecord] = []

        prefix = 0
        for pattern in (_XML_DECL, _DOCTYPE):
            m = pattern.match(text, prefix)
            if m:
                prefix = m.end()
        # error offsets must point into the caller's string
        self._prefix_chars = prefix
        self._data = text[prefix:].encode("utf-8")

        self._chunks: list[str] = []
        self._plain_len = 0
        self.events: list = []  # [name, attrs, open, close] in open order
        self._open: list[int] = []
        self._depth = 0
        self._record_stack: list[list] = []

        self._parser = expat.ParserCreate("utf-8")
        self._parser.buffer_text = True
        self._parser.StartElementHandler = self._start
        self._parser.EndElementHandler = self._end
        self._parser.CharacterDataHandler = self._chars

    def run(self):
        wrapped = _WRAPPER + self._data + _WRAPPER_END
        try:
            self._parser.Parse(wrapped, True)
        except expat.ExpatError as exc:
            raise ConversionError(
                f"malformed XML: {expat.errors.messages[exc.code]}",
                offset=self._error_offset()) from exc
        if self._open:
            raise ConversionError("unclosed element",
                                  offset=len(self._data))
        self.plain = "".join(self._chunks)
        return self

    def _error_offset(self) -> int:
        byte = self._parser.ErrorByteIndex - len(_WRAPPER)
        byte = max(0, min(byte, len(self._data)))
        chars = len(self._data[:byte].decode("utf-8", errors="replace"))
        return chars + self._prefix_chars

    def _byte_index(self) -> int:
        return self._parser.CurrentByteIndex - len(_WRAPPER)

    def _after_start_tag(self) -> int:
        """Byte index just past the '>' of the tag being handled.
        Attribute values may legally contain '>'."""
        data, i = self._data, self._byte_index()
        quote = None
        while i < len(data):
            c = data[i]
            if quote is not None:
                if c == quote:
                    quote = None
            elif c in (0x22, 0x27):
                quote = c
            elif c == 0x3E:
                return i + 1
            i += 1
        return len(data)

    def _start(self, name, attrs):
        self._depth += 1
        if self._depth == 1:
            return  # synthetic wrapper
        if self.record_element is not None and name == self.record_element:
            # the record's slot is kept in start-tag (document) order
            frame = [self._after_start_tag(), attrs, self._plain_len,
                     len(self._chunks), len(self.events), len(self.records)]
            self._record_stack.append(frame)
            self.records.append(None)
            return
        self._open.append(len(self.events))
        self.events.append([name, dict(attrs), self._plain_len, None])

    def _end(self, name):
        self._depth -= 1
        if self._depth == 0:
            return
        if self.record_element is not None and name == self.record_element \
                and self._record_stack:
            self._finish_record(self._record_stack.pop())
            return
        index = self._open.pop()
        self.events[index][3] = self._plain_len

    def _finish_record(self, frame):
        (content_start, attrs, plain_start, chunks_start, events_start,
         slot) = frame
        content_end = self._byte_index()
        # a self-closing record ends where its one tag starts
        raw = b"" if content_end < content_start \
            else self._data[content_start:content_end]
        record_id = attrs.get("id") or attrs.get("ID") or str(slot + 1)
        plain = "".join(self._chunks[chunks_start:])
        events = [(n, a, s - plain_start, e - plain_start)
                  for n, a, s, e in self.events[events_start:]]
        self.records[slot] = InlineRecord(
            record_id=record_id, raw_text=raw.decode("utf-8"),
            plain_text=plain, tag_events=events)

    def _chars(self, data):
        if self._depth >= 1:
            self._chunks.append(data)
            self._plain_len += len(data)


def convert(inline_text: str) -> tuple[str, list[Annotation]]:
    """Strip inline tags. Returns the decoded plain text and one
    annotation per stripped element, in document order: type is the
    element name, value is its TYPE attribute (falling back to the
    element name), attributes carry every XML attribute."""
    walker = _Walker(inline_text).run()
    annotations = [_event_annotation((n, a, s, e))
                   for n, a, s, e in walker.events]
    return walker.plain, annotations


def split_records(corpus_xml: str,
                  record_element: str = "RECORD") -> list[InlineRecord]:
    """One InlineRecord per record element, in document order. The id is
    the element's id attribute, or its 1-based ordinal when absent."""
    walker = _Walker(corpus_xml, record_element=record_element).run()
    return walker.records


def map_span(span: Interval, convention: OffsetConvention
             ) -> tuple[int, int]:
    if convention is OffsetConvention.INCLUSIVE_1:
        return span.start + 1, span.end
    return span.start, span.end


def render_offsets(annotations, convention=OffsetConvention.HALF_OPEN_0
                   ) -> list[tuple[int, int, str, str]]:
    """Rows of (start, end, type, attribute text) in canonical
    annotation order. Null spans get a null=true flag appended since the
    inclusive mapping turns them inside out."""
    if isinstance(convention, str):
        convention = OffsetConvention.from_string(convention)
    ordered = sorted(annotations,
                     key=lambda a: (a.span.start, a.span.end))
    rows = []
    for ann in ordered:
        start, end = map_span(ann.span, convention)
        parts = []
        for key in sorted(ann.attributes):
            shown = "Type" if key == "TYPE" else key
            parts.append(f"{shown}={ann.attributes[key]}")
        if not parts and ann.value:
            parts.append(ann.value)
        if ann.span.is_null:
            parts.append("null=true")
        rows.append((start, end, ann.type_name, "; ".join(parts)))
    return rows
