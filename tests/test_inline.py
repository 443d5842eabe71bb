"""Inline-to-stand-off conversion tests.

The offset oracle cross-checks every produced span against the element
text that xml.etree sees, so the converter's own bookkeeping is never
trusted to verify itself.
"""

import random
import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annokit.errors import ConversionError, ValidationError
from annokit.inline import (
    InlineRecord,
    OffsetConvention,
    convert,
    map_span,
    render_offsets,
    split_records,
)
from annokit.intervals import Interval

SENTENCE = (
    'The patient underwent an ECHO and endoscopy at '
    '<PHI TYPE="Hospital">Beth Israel Deaconess Medical Center</PHI> '
    'on <PHI TYPE="Date">April 28</PHI>.'
)


class TestConvert:
    def test_phi_sentence_offsets(self):
        plain, anns = convert(SENTENCE)
        assert plain == ("The patient underwent an ECHO and endoscopy at "
                         "Beth Israel Deaconess Medical Center on April 28.")
        assert len(anns) == 2
        hospital, date = anns
        assert (hospital.span.start, hospital.span.end) == (47, 83)
        assert hospital.type_name == "PHI"
        assert hospital.value == "Hospital"
        assert hospital.attributes == {"TYPE": "Hospital"}
        assert (date.span.start, date.span.end) == (87, 95)
        assert date.value == "Date"
        assert plain[47:83] == "Beth Israel Deaconess Medical Center"
        assert plain[87:95] == "April 28"

    def test_untagged_text_is_identity(self):
        text = "no tags here, just text\nwith a newline"
        plain, anns = convert(text)
        assert plain == text
        assert anns == []

    def test_spans_cover_element_text(self):
        markup = "<a>alpha <b>beta</b> tail</a> outer <c>gamma</c>"
        plain, anns = convert(markup)
        assert plain == "alpha beta tail outer gamma"
        by_type = {a.type_name: a for a in anns}
        assert plain[by_type["b"].span.start:by_type["b"].span.end] == "beta"
        assert plain[by_type["a"].span.start:by_type["a"].span.end] == \
            "alpha beta tail"
        assert plain[by_type["c"].span.start:by_type["c"].span.end] == "gamma"

    def test_value_falls_back_to_element_name(self):
        _, anns = convert('<NAME first="Ada">Ada</NAME>')
        assert anns[0].value == "NAME"
        assert anns[0].attributes == {"first": "Ada"}

    def test_entities_decoded_before_offsets(self):
        plain, anns = convert("a &amp; b <x>c &lt; d</x>")
        assert plain == "a & b c < d"
        (x,) = anns
        assert plain[x.span.start:x.span.end] == "c < d"

    def test_whitespace_preserved(self):
        markup = "  leading\t<pad>  mid  </pad>\n\ntrailing  "
        plain, anns = convert(markup)
        assert plain == "  leading\t  mid  \n\ntrailing  "
        (pad,) = anns
        assert plain[pad.span.start:pad.span.end] == "  mid  "

    def test_empty_element_is_null_span(self):
        plain, anns = convert("ab<mark/>cd")
        assert plain == "abcd"
        assert anns[0].span == Interval(2, 2)
        assert anns[0].span.is_null

    def test_length_arithmetic(self):
        markup = '<a>one</a> two <b x="1">three</b>'
        plain, _ = convert(markup)
        tag_bytes = len("<a>") + len("</a>") + len('<b x="1">') + len("</b>")
        assert len(plain) == len(markup) - tag_bytes

    def test_malformed_xml_reports_offset(self):
        bad = "fine text <open>never closed"
        with pytest.raises(ConversionError) as err:
            convert(bad)
        assert err.value.offset is not None
        assert 0 <= err.value.offset <= len(bad)

    def test_overlapping_tags_rejected(self):
        with pytest.raises(ConversionError):
            convert("<a>one<b>two</a>three</b>")

    def test_unicode_text(self):
        plain, anns = convert("naïve <x>café déjà</x> vu")
        (x,) = anns
        assert plain[x.span.start:x.span.end] == "café déjà"

    def test_xml_declaration_tolerated(self):
        plain, anns = convert('<?xml version="1.0"?><d>body</d>')
        assert plain == "body"
        assert anns[0].type_name == "d"

    def test_random_nesting_matches_etree_oracle(self):
        rng = random.Random(31415)
        words = ["alpha", "beta", "gamma", "delta", " ", "x y", "1, 2"]
        names = ["s", "t", "u"]

        def grow(depth):
            parts = []
            for _ in range(rng.randint(1, 3)):
                if depth < 3 and rng.random() < 0.5:
                    name = rng.choice(names)
                    parts.append(f"<{name}>{grow(depth + 1)}</{name}>")
                else:
                    parts.append(rng.choice(words))
            return "".join(parts)

        for _ in range(50):
            markup = f"<root>{grow(0)}</root>"
            plain, anns = convert(markup)
            tree = ET.fromstring(markup)
            assert plain == "".join(tree.itertext())
            # count matches and every span reproduces some element's text
            elements = [tree] + list(tree.iter())[1:]
            assert len(anns) == len(elements)
            texts = sorted("".join(el.itertext()) for el in elements)
            spans = sorted(plain[a.span.start:a.span.end] for a in anns)
            assert spans == texts


CORPUS = """<ROOT>
<RECORD ID="007">
<TEXT>Seen at <PHI TYPE="Hospital">BIDMC</PHI> today.</TEXT>
</RECORD>
<RECORD>
<TEXT>Part one.</TEXT><TEXT> Part two.</TEXT>
</RECORD>
<RECORD ID="009"><TEXT>Final.</TEXT></RECORD>
</ROOT>"""


class TestSplitRecords:
    def test_three_records(self):
        records = split_records(CORPUS)
        assert len(records) == 3
        assert [r.record_id for r in records] == ["007", "2", "009"]

    def test_record_text_concatenates_in_document_order(self):
        records = split_records(CORPUS)
        root = ET.fromstring(CORPUS)
        for record, element in zip(records, root.iter("RECORD")):
            assert record.plain_text == "".join(element.itertext())

    def test_raw_text_is_verbatim_markup(self):
        records = split_records(CORPUS)
        assert records[0].raw_text == (
            '\n<TEXT>Seen at <PHI TYPE="Hospital">BIDMC</PHI>'
            " today.</TEXT>\n")
        assert records[2].raw_text == "<TEXT>Final.</TEXT>"

    def test_tag_events_are_record_relative(self):
        records = split_records(CORPUS)
        first = records[0]
        phi = [e for e in first.tag_events if e[0] == "PHI"][0]
        name, attrs, start, end = phi
        assert first.plain_text[start:end] == "BIDMC"
        assert attrs == {"TYPE": "Hospital"}

    def test_record_annotations_and_document(self):
        records = split_records(CORPUS)
        doc = records[0].to_document()
        assert doc.name == "007"
        phi = doc.annotations("PHI")
        assert len(phi) == 1
        assert doc.content[phi[0].span.start:phi[0].span.end] == "BIDMC"
        assert phi[0].value == "Hospital"

    def test_custom_record_element(self):
        xml = "<all><doc id='a'><TEXT>x</TEXT></doc><doc><TEXT>y</TEXT></doc></all>"
        records = split_records(xml, record_element="doc")
        assert [r.record_id for r in records] == ["a", "2"]
        assert [r.plain_text for r in records] == ["x", "y"]

    def test_empty_record(self):
        records = split_records("<R><RECORD/><RECORD></RECORD></R>")
        assert len(records) == 2
        assert all(r.raw_text == "" for r in records)
        assert all(r.plain_text == "" for r in records)

    def test_malformed_corpus(self):
        with pytest.raises(ConversionError):
            split_records("<ROOT><RECORD>oops</ROOT>")


class TestRenderOffsets:
    def test_figure_table_inclusive(self):
        _, anns = convert(SENTENCE)
        rows = render_offsets(anns, OffsetConvention.INCLUSIVE_1)
        assert rows == [
            (48, 83, "PHI", "Type=Hospital"),
            (88, 95, "PHI", "Type=Date"),
        ]

    def test_half_open_is_identity(self):
        _, anns = convert(SENTENCE)
        rows = render_offsets(anns, OffsetConvention.HALF_OPEN_0)
        assert [(r[0], r[1]) for r in rows] == [(47, 83), (87, 95)]

    def test_null_span_flagged(self):
        _, anns = convert("ab<mark/>cd")
        rows = render_offsets(anns, "inclusive-1")
        assert rows[0][:3] == (3, 2, "mark")
        assert "null=true" in rows[0][3]

    def test_rows_in_canonical_order(self):
        _, anns = convert("<a><b>x</b><c>y</c></a>")
        rows = render_offsets(list(reversed(anns)), "half_open_0")
        starts_ends = [(r[0], r[1]) for r in rows]
        assert starts_ends == sorted(starts_ends)

    def test_convention_round_trip(self):
        rng = random.Random(8)
        for _ in range(200):
            s = rng.randint(0, 500)
            e = rng.randint(s, 500)
            inc_s, inc_e = map_span(Interval(s, e),
                                    OffsetConvention.INCLUSIVE_1)
            assert (inc_s - 1, inc_e) == (s, e)

    def test_value_shown_when_no_attributes(self):
        from annokit.documents import Annotation
        ann = Annotation(span=Interval(1, 4), type_name="CUI",
                         value="C12345")
        rows = render_offsets([ann])
        assert rows == [(1, 4, "CUI", "C12345")]

    def test_convention_parsing(self):
        assert OffsetConvention.from_string("INCLUSIVE-1") is \
            OffsetConvention.INCLUSIVE_1
        assert OffsetConvention.from_string("half_open_0") is \
            OffsetConvention.HALF_OPEN_0
        with pytest.raises(ValidationError):
            OffsetConvention.from_string("one-based")


def test_split_records_texts_match_each_record_alone():
    # many records, so that each one starts far into the corpus text
    corpus = "<ROOT>\n" + "".join(
        f'<RECORD id="r{n}"><TEXT>Note {n} &amp; seen on '
        f'<PHI TYPE="Date">May {n}</PHI>.</TEXT></RECORD>\n'
        for n in range(400)) + "</ROOT>"
    records = split_records(corpus)
    assert [r.record_id for r in records] == [f"r{n}" for n in range(400)]
    for n, record in enumerate(records):
        plain, anns = convert(record.raw_text)
        assert record.plain_text == plain == f"Note {n} & seen on May {n}."
        assert [(a.type_name, a.span) for a in record.annotations()] == \
            [(a.type_name, a.span) for a in anns]


# a tag-stripping oracle for the markup the strategies below generate:
# double-quoted attributes, CDATA, the five named entities and numeric
# character references, and no processing instructions or comments
_MARKUP = re.compile(
    r"<!\[CDATA\[(?P<cdata>.*?)\]\]>"
    r'|<(?P<close>/)?(?P<name>[A-Za-z]+)(?:\s+[A-Za-z]+="[^"]*")*'
    r"\s*(?P<empty>/)?>"
    r"|&(?P<entity>#x[0-9A-Fa-f]+|#[0-9]+|[a-z]+);"
    r"|(?P<text>[^<&]+)", re.S)
_NAMED = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}


def strip_tags(markup):
    """The plain text, and per element in open order (name, start, end,
    number of elements opened before it closed), read without an XML
    parser."""
    chunks, elements, open_ = [], [], []
    length = 0
    for m in _MARKUP.finditer(markup):
        if m["name"]:
            if not m["close"]:
                open_.append(len(elements))
                elements.append([m["name"], length, None, None])
            if m["close"] or m["empty"]:
                element = elements[open_.pop()]
                element[2:] = [length, len(elements)]
            continue
        entity = m["entity"]
        if entity is None:
            piece = m["text"] if m["cdata"] is None else m["cdata"]
        elif entity.startswith("#x"):
            piece = chr(int(entity[2:], 16))
        elif entity.startswith("#"):
            piece = chr(int(entity[1:]))
        else:
            piece = _NAMED[entity]
        chunks.append(piece)
        length += len(piece)
    assert not open_
    return "".join(chunks), [tuple(e) for e in elements]


def _render(name, type_attr, body):
    attrs = "" if type_attr is None else f' TYPE="{type_attr}"'
    if body is None:
        return f"<{name}{attrs}/>"
    return f"<{name}{attrs}>{body}</{name}>"


_LEAF = st.one_of(
    st.text(alphabet="ab \u00e9\u4e2d\U0001f600\n\t,.>", min_size=1,
            max_size=6),
    st.sampled_from(["&amp;", "&lt;", "&gt;", "&quot;", "&apos;",
                     "&#233;", "&#x1F600;"]),
    st.text(alphabet="a<&>]\u00e9\U0001f600 ", max_size=5)
    .filter(lambda t: "]]>" not in t)
    .map(lambda t: f"<![CDATA[{t}]]>"),
)
_TYPE_ATTR = st.none() | st.text(alphabet="a >\u00e9", max_size=4)
_CONTENT = st.recursive(_LEAF, lambda inner: st.builds(
    _render, st.sampled_from(["s", "t", "PHI"]), _TYPE_ATTR,
    st.none() | st.lists(inner, max_size=3).map("".join)), max_leaves=10)
_FRAGMENT = st.lists(_CONTENT, max_size=4).map("".join)
_CORPUS = st.lists(_CONTENT | st.builds(
    _render, st.just("RECORD"), _TYPE_ATTR, st.none() | _FRAGMENT),
    max_size=5).map("".join)


@settings(max_examples=200, deadline=None)
@given(_CORPUS)
def test_round_trip_matches_tag_stripping_oracle(markup):
    plain, elements = strip_tags(markup)
    converted, anns = convert(markup)
    assert converted == plain
    assert [(a.type_name, a.span.start, a.span.end) for a in anns] == \
        [(name, start, end) for name, start, end, _ in elements]
    records = [
        (plain[start:end],
         [(inner, s - start, e - start)
          for inner, s, e, _ in elements[n + 1:closed_at]])
        for n, (name, start, end, closed_at) in enumerate(elements)
        if name == "RECORD"]
    assert [(r.plain_text, [(name, s, e) for name, _, s, e in r.tag_events])
            for r in split_records(markup)] == records
