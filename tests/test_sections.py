import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from annokit import sections as section_tools
from annokit.documents import Document
from annokit.errors import GuidelineError
from annokit.intervals import AllenRelation, Interval, relate
from annokit.sections import (
    SectionSpec,
    detect_sections,
    match_templates,
    parse_guideline,
)

TWO_HEADINGS = """
<guideline name="simple">
  <section name="pmh">
    <pattern regex="^PAST MEDICAL HISTORY:"/>
  </section>
  <section name="meds">
    <pattern regex="^MEDICATIONS:"/>
  </section>
</guideline>
"""


def test_minimal_guideline_parses():
    g = parse_guideline(
        '<guideline name="g"><section name="s">'
        '<pattern regex="^HEADER"/></section></guideline>')
    assert g.name == "g"
    assert len(g.sections) == 1
    assert g.sections[0].name == "s"
    assert g.templates == []


def test_alternate_named_group_spelling_accepted():
    g = parse_guideline(
        '<guideline name="g"><section name="pmh">'
        '<pattern regex="(?&lt;title&gt;PAST MEDICAL HISTORY)"/>'
        '<property name="name_from_group" value="title"/>'
        '</section></guideline>')
    assert g.sections[0].name_from_group == "title"
    assert "title" in g.sections[0].patterns[0].groupindex


def test_parse_rejects_malformed_xml():
    with pytest.raises(GuidelineError):
        parse_guideline("<guideline name='x'><section>")


def test_parse_rejects_unknown_element():
    with pytest.raises(GuidelineError) as err:
        parse_guideline('<guideline name="g"><widget/></guideline>')
    assert "widget" in str(err.value)


def test_parse_rejects_bad_regex_with_path():
    with pytest.raises(GuidelineError) as err:
        parse_guideline(
            '<guideline name="g"><section name="s">'
            '<pattern regex="(unclosed"/></section></guideline>')
    assert "section 's'" in str(err.value)


def test_parse_rejects_patternless_section():
    with pytest.raises(GuidelineError):
        parse_guideline(
            '<guideline name="g"><section name="s"/></guideline>')


def test_parse_rejects_duplicate_sibling_names():
    with pytest.raises(GuidelineError):
        parse_guideline(
            '<guideline name="g">'
            '<section name="s"><pattern regex="A"/></section>'
            '<section name="s"><pattern regex="B"/></section>'
            '</guideline>')


def test_parse_rejects_unknown_property():
    with pytest.raises(GuidelineError):
        parse_guideline(
            '<guideline name="g"><section name="s">'
            '<pattern regex="A"/>'
            '<property name="anchored" value="true"/>'
            '</section></guideline>')


def test_name_from_group_must_exist_in_every_pattern():
    with pytest.raises(GuidelineError):
        parse_guideline(
            '<guideline name="g"><section name="s">'
            '<pattern regex="(?P&lt;t&gt;A)"/>'
            '<pattern regex="B"/>'
            '<property name="name_from_group" value="t"/>'
            '</section></guideline>')


def test_template_extractor_must_reference_existing_group():
    with pytest.raises(GuidelineError) as err:
        parse_guideline(
            '<guideline name="g"><template name="diff">'
            '<pattern regex="Differential: \\d+"/>'
            '<attribute name="polys" group="polys"/>'
            '</template></guideline>')
    assert "diff" in str(err.value)
    assert "polys" in str(err.value)


def test_section_extractor_must_reference_existing_group():
    with pytest.raises(GuidelineError) as err:
        parse_guideline(
            '<guideline name="g"><section name="s">'
            '<pattern regex="^S:"/>'
            '<attribute name="a" group="nope"/>'
            '</section></guideline>')
    assert "section 's'" in str(err.value)
    assert "nope" in str(err.value)


def test_section_extractor_group_from_any_alternative_heading():
    g = parse_guideline(
        '<guideline name="g"><section name="s">'
        '<pattern regex="^S (?P&lt;n&gt;\\d+):"/>'
        '<pattern regex="^SECTION:"/>'
        '<attribute name="number" group="n"/>'
        '</section></guideline>')
    doc = Document("note", "S 4: one\nSECTION: two\n")
    found = detect_sections(doc, g)
    assert [s.attributes.get("number") for s in found] == ["4", None]


def test_template_takes_exactly_one_pattern():
    with pytest.raises(GuidelineError):
        parse_guideline(
            '<guideline name="g"><template name="t">'
            '<pattern regex="A"/><pattern regex="B"/>'
            '</template></guideline>')


def test_two_flat_sections_with_exact_offsets():
    text = "PAST MEDICAL HISTORY: diabetes.\nMEDICATIONS: aspirin.\n"
    doc = Document("note", text)
    sections = detect_sections(doc, parse_guideline(TWO_HEADINGS))
    assert len(sections) == 2
    first, second = sections
    assert first.value == "pmh"
    assert first.span == Interval(0, text.index("MEDICATIONS"))
    assert second.value == "meds"
    assert second.span == Interval(text.index("MEDICATIONS"), len(text))
    assert first.attributes["heading_start"] == "0"
    assert first.attributes["heading_end"] == "21"
    assert first.attributes["depth"] == "0"
    assert "parent" not in first.attributes
    # annotations were attached, not just returned
    assert doc.annotations("section") == sections


def test_no_matching_headings_is_empty():
    doc = Document("note", "nothing interesting here")
    assert detect_sections(doc, parse_guideline(TWO_HEADINGS)) == []


def test_heading_not_matched_mid_line_by_default():
    doc = Document("note", "SEE MEDICATIONS: none\nMEDICATIONS: aspirin\n")
    sections = detect_sections(doc, parse_guideline(TWO_HEADINGS))
    assert len(sections) == 1
    assert sections[0].span.start == doc.content.index("\n") + 1


def test_nested_sections_and_parent_relation():
    text = "RESULTS:\ngeneral findings\nLABS:\nwbc 5\n"
    doc = Document("note", text)
    g = parse_guideline(
        '<guideline name="n"><section name="results">'
        '<pattern regex="^RESULTS:"/>'
        '<section name="labs"><pattern regex="^LABS:"/></section>'
        '</section></guideline>')
    sections = detect_sections(doc, g)
    assert [s.value for s in sections] == ["results", "labs"]
    parent, child = sections
    assert parent.span == Interval(0, len(text))
    assert child.span == Interval(text.index("LABS:"), len(text))
    assert relate(child.span, parent.span) <= {
        AllenRelation.DURING, AllenRelation.STARTS, AllenRelation.FINISHES}
    assert child.attributes["depth"] == "1"
    assert child.attributes["parent"] == str(parent.id)


def test_children_are_confined_to_parent_body():
    text = "LABS: early\nRESULTS:\nLABS: late\nEND\n"
    doc = Document("note", text)
    g = parse_guideline(
        '<guideline name="n"><section name="results">'
        '<pattern regex="^RESULTS:"/>'
        '<section name="labs"><pattern regex="^LABS:"/></section>'
        '</section></guideline>')
    sections = detect_sections(doc, g)
    labs = [s for s in sections if s.value == "labs"]
    assert len(labs) == 1
    assert labs[0].span.start == text.index("LABS: late")


def test_same_offset_earlier_declaration_wins():
    text = "HEADING X\nbody\n"
    g = parse_guideline(
        '<guideline name="g">'
        '<section name="short"><pattern regex="^HEADING"/></section>'
        '<section name="long"><pattern regex="^HEADING X"/></section>'
        '</guideline>')
    doc = Document("note", text)
    sections = detect_sections(doc, g)
    assert [s.value for s in sections] == ["short"]


def test_same_offset_longer_pattern_wins_within_spec():
    text = "HEADING X\nbody\n"
    g = parse_guideline(
        '<guideline name="g"><section name="s">'
        '<pattern regex="^HEADING"/>'
        '<pattern regex="^HEADING X"/>'
        '</section></guideline>')
    doc = Document("note", text)
    sections = detect_sections(doc, g)
    assert sections[0].attributes["heading_end"] == str(len("HEADING X"))


def test_heading_inside_previous_heading_is_skipped():
    text = "CHIEF COMPLAINT: cough\nCOMPLAINT: unrelated\n"
    g = parse_guideline(
        '<guideline name="g">'
        '<section name="cc"><pattern regex="CHIEF COMPLAINT:"/></section>'
        '<section name="c"><pattern regex="COMPLAINT:"/></section>'
        '</guideline>')
    doc = Document("note", text)
    sections = detect_sections(doc, g)
    assert [s.value for s in sections] == ["cc", "c"]
    # the COMPLAINT hit inside "CHIEF COMPLAINT:" was discarded; the
    # accepted one is on the second line
    assert sections[1].span.start == text.index("COMPLAINT: unrelated")


def test_case_insensitive_property():
    g = parse_guideline(
        '<guideline name="g"><section name="meds">'
        '<pattern regex="^medications:"/>'
        '<property name="case_insensitive" value="true"/>'
        '</section></guideline>')
    doc = Document("note", "MEDICATIONS: aspirin\n")
    assert len(detect_sections(doc, g)) == 1


def test_name_from_group_sets_value():
    g = parse_guideline(
        '<guideline name="g"><section name="any">'
        '<pattern regex="^(?P&lt;title&gt;[A-Z ]+):"/>'
        '<property name="name_from_group" value="title"/>'
        '</section></guideline>')
    doc = Document("note", "CHIEF COMPLAINT: cough\nALLERGIES: none\n")
    sections = detect_sections(doc, g)
    assert [s.value for s in sections] == ["CHIEF COMPLAINT", "ALLERGIES"]


def test_section_attribute_extractors():
    g = parse_guideline(
        '<guideline name="g"><section name="meds">'
        '<pattern regex="^MEDICATIONS \\((?P&lt;status&gt;\\w+)\\):"/>'
        '<attribute name="status" group="status"/>'
        '</section></guideline>')
    doc = Document("note", "MEDICATIONS (active): aspirin\n")
    sections = detect_sections(doc, g)
    assert sections[0].attributes["status"] == "active"


def test_template_worked_example():
    g = parse_guideline(
        '<guideline name="g"><template name="diff">'
        '<pattern regex="Differential:\\s*(?&lt;polys&gt;\\d+)\\s*% polys"/>'
        '<attribute name="polys" group="polys"/>'
        '</template></guideline>')
    doc = Document("note", "Differential: 70 % polys, 5 % bands")
    found = match_templates(doc, g)
    assert len(found) == 1
    assert found[0].type_name == "template"
    assert found[0].value == "diff"
    assert found[0].attributes == {"polys": "70"}
    assert found[0].span == Interval(0, len("Differential: 70 % polys"))


def test_template_zero_and_multiple_matches():
    g = parse_guideline(
        '<guideline name="g"><template name="bp">'
        '<pattern regex="BP (?P&lt;sys&gt;\\d+)/(?P&lt;dia&gt;\\d+)"/>'
        '<attribute name="systolic" group="sys"/>'
        '<attribute name="diastolic" group="dia"/>'
        '</template></guideline>')
    empty = Document("a", "no vitals recorded")
    assert match_templates(empty, g) == []
    doc = Document("b", "BP 120/80 then BP 130/85")
    found = match_templates(doc, g)
    assert len(found) == 2
    assert found[0].span != found[1].span
    assert found[0].attributes == {"systolic": "120", "diastolic": "80"}
    assert found[1].attributes == {"systolic": "130", "diastolic": "85"}


def test_overlapping_template_matches_all_emitted():
    g = parse_guideline(
        '<guideline name="g"><template name="pair">'
        '<pattern regex="aa"/></template></guideline>')
    doc = Document("note", "aaa")
    found = match_templates(doc, g)
    assert [f.span for f in found] == [Interval(0, 2), Interval(1, 3)]


def test_detection_is_deterministic():
    text = "PAST MEDICAL HISTORY: diabetes.\nMEDICATIONS: aspirin.\n"
    g = parse_guideline(TWO_HEADINGS)
    runs = []
    for _ in range(2):
        doc = Document("note", text)
        runs.append([(s.span, s.value, s.attributes)
                     for s in detect_sections(doc, g)])
    assert runs[0] == runs[1]


def test_siblings_disjoint_and_ordered():
    text = "A: one\nB: two\nA: three\nC: four\n"
    g = parse_guideline(
        '<guideline name="g">'
        '<section name="a"><pattern regex="^A:"/></section>'
        '<section name="b"><pattern regex="^B:"/></section>'
        '<section name="c"><pattern regex="^C:"/></section>'
        '</guideline>')
    doc = Document("note", text)
    sections = detect_sections(doc, g)
    spans = [s.span for s in sections]
    assert spans == sorted(spans, key=lambda s: (s.start, s.end))
    for left, right in zip(spans, spans[1:]):
        assert left.end <= right.start


# The election as it was before the one-sweep rewrite: a table of the best
# heading per start offset, sorted, then a sweep that drops headings
# starting inside an accepted one. It is the oracle for the rewrite.

def _oracle_matches_at_every_start(pattern, text, lo, hi):
    pos = lo
    while pos <= hi:
        m = pattern.search(text, pos, hi)
        if m is None:
            return
        yield m
        pos = m.start() + 1


def _oracle_elect_headings(specs, text, lo, hi):
    candidates = {}
    for declared, spec in enumerate(specs):
        for pattern in spec.patterns:
            for m in _oracle_matches_at_every_start(pattern, text, lo, hi):
                rank = (declared, -(m.end() - m.start()))
                held = candidates.get(m.start())
                if held is None or rank < held[0]:
                    candidates[m.start()] = (rank, spec, m)
    accepted = []
    cursor = lo
    for start in sorted(candidates):
        _, spec, m = candidates[start]
        if start < cursor:
            continue
        accepted.append((spec, m))
        cursor = max(cursor, m.end())
    return accepted


class CountingPattern:
    """A compiled pattern that counts its searches and raises once they
    pass ``budget``, so an election that never stops fails, not hangs."""

    def __init__(self, pattern, budget):
        self.pattern = pattern
        self.budget = budget
        self.searches = 0

    def search(self, *args):
        self.searches += 1
        if self.searches > self.budget:
            raise AssertionError(f"more than {self.budget} searches")
        return self.pattern.search(*args)


ATOMS = ["", "A", "B", "AB", "A+", "[AB ]*:", "[A-Z][A-Z ]*:", "x*", ":",
         "^", "$", "^A", "B$", "^$", "(?<=:)", "(?<=\n)A", "(?<!A)B",
         "\\b", "\\bA", "A\\b", "A|AB", "(B+)"]

patterns = st.builds(
    lambda atoms, multiline: re.compile(
        "".join(atoms), re.MULTILINE if multiline else 0),
    st.lists(st.sampled_from(ATOMS), min_size=1, max_size=2), st.booleans())
spec_lists = st.lists(st.lists(patterns, min_size=1, max_size=2),
                      min_size=1, max_size=3)
texts = st.text(alphabet="AB :\nx", max_size=30)


def _specs(pattern_lists, budget, children=()):
    return [SectionSpec(f"s{n}", [CountingPattern(p, budget) for p in ps],
                        children=list(children))
            for n, ps in enumerate(pattern_lists)]


def _spans(accepted):
    return [(spec.name, m.span()) for spec, m in accepted]


@settings(max_examples=400, deadline=None)
@given(spec_lists, texts, st.data())
@example([[re.compile("")]], "AB", None)
@example([[re.compile("$")], [re.compile("x*")]], "A\nx", None)
def test_election_matches_oracle(pattern_lists, text, data):
    if data is None:
        lo, hi = 0, len(text)
    else:
        hi = data.draw(st.one_of(st.just(len(text)),
                                 st.integers(0, len(text))))
        lo = data.draw(st.integers(0, hi))
    budget = 4 * (len(text) + 2)
    expected = _oracle_elect_headings(_specs(pattern_lists, budget),
                                      text, lo, hi)
    got = section_tools._elect_headings(_specs(pattern_lists, budget),
                                        text, lo, hi)
    assert _spans(got) == _spans(expected)


@settings(max_examples=150, deadline=None)
@given(spec_lists, spec_lists, texts)
def test_nested_detection_matches_oracle(outer, inner, text):
    budget = 4 * (len(text) + 2)

    def detect(elect):
        guideline = section_tools.Guideline(
            "g", _specs(outer, budget, _specs(inner, budget)))
        with mock.patch.object(section_tools, "_elect_headings", elect):
            found = detect_sections(Document("n", text), guideline)
        return [(s.span, s.value, s.attributes) for s in found]

    assert detect(section_tools._elect_headings) \
        == detect(_oracle_elect_headings)


@pytest.mark.parametrize("n", [1_000, 4_000])
def test_heading_run_costs_a_search_per_accepted_heading(n):
    """A scope makes at most patterns x (accepted headings + 1) searches,
    however long the heading-like run that an unanchored pattern meets;
    searching again from every start inside the run made n + 1."""
    text = "A" * n + ":"
    pattern = CountingPattern(re.compile("[A-Z][A-Z ]*:"), budget=n + 2)
    found = detect_sections(Document("n", text), section_tools.Guideline(
        "g", [SectionSpec("s", [pattern])]))
    assert [s.span for s in found] == [Interval(0, n + 1)]
    assert pattern.searches <= 1 * (len(found) + 1)
