"""Guideline-driven section and template detection.

A guideline is an XML grammar for a family of notes: named sections with
heading regexes (nested specs describe subsections) plus fill-in templates
matched by a single body pattern. Detection elects each scope's headings
in one sweep: the heading that starts first wins (at one offset, the
earlier declared spec, then the longer match), none starts inside an
accepted one, and a pattern searches again only once the sweep passes its
held match, so a scope costs patterns x (headings + 1) searches. Sibling
sections end at the next accepted heading, and detection recurses into
their bodies. Text is never consumed: the output is plain annotations.
"""

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from .documents import Annotation, Document
from .errors import GuidelineError
from .intervals import Interval

_TRUE_WORDS = {"true", "1", "yes", "on"}
_FLAG_PROPERTIES = {
    "case_insensitive": re.IGNORECASE,
    "multiline": re.MULTILINE,
    "dotall": re.DOTALL,
}
_KNOWN_PROPERTIES = set(_FLAG_PROPERTIES) | {"name_from_group"}


def _normalize_groups(source: str) -> str:
    # accept the (?<name>...) spelling of named groups; leave lookbehind
    # assertions (?<= and (?<! untouched
    return re.sub(r"\(\?<(?![=!])", "(?P<", source)


@dataclass
class SectionSpec:
    name: str
    patterns: list[re.Pattern]
    name_from_group: str | None = None
    extractors: list[tuple[str, str]] = field(default_factory=list)
    children: list["SectionSpec"] = field(default_factory=list)


@dataclass
class TemplateSpec:
    name: str
    pattern: re.Pattern
    extractors: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class Guideline:
    name: str
    sections: list[SectionSpec] = field(default_factory=list)
    templates: list[TemplateSpec] = field(default_factory=list)


def _require_attr(elem, attr: str, path: str) -> str:
    value = elem.get(attr)
    if value is None:
        raise GuidelineError(f"{path}: missing required attribute {attr!r}")
    return value


def _check_unique_names(items, kind: str, path: str) -> None:
    seen = set()
    for item in items:
        if item.name in seen:
            raise GuidelineError(
                f"{path}: duplicate {kind} name {item.name!r}"
            )
        seen.add(item.name)


def _compile(source: str, flags: int, path: str) -> re.Pattern:
    try:
        return re.compile(_normalize_groups(source), flags)
    except re.error as exc:
        raise GuidelineError(f"{path}: bad regex {source!r}: {exc}") from exc


def _check_extractors(extractors, patterns, path: str) -> None:
    # a section's patterns are alternative headings: one group will do
    for attr, group in extractors:
        if not any(group in pattern.groupindex for pattern in patterns):
            raise GuidelineError(f"{path}: extractor {attr!r} references "
                                 f"group {group!r} which no pattern defines")


def _parse_section(elem, path: str) -> SectionSpec:
    name = _require_attr(elem, "name", path)
    path = f"{path}/section {name!r}"
    sources = []
    properties = {}
    extractors = []
    children = []
    for child in elem:
        if child.tag == "pattern":
            sources.append(_require_attr(child, "regex",
                                         f"{path}/pattern {len(sources)}"))
        elif child.tag == "property":
            key = _require_attr(child, "name", f"{path}/property")
            if key not in _KNOWN_PROPERTIES:
                raise GuidelineError(
                    f"{path}/property: unknown property {key!r}"
                )
            properties[key] = _require_attr(child, "value",
                                            f"{path}/property {key!r}")
        elif child.tag == "attribute":
            extractors.append((
                _require_attr(child, "name", f"{path}/attribute"),
                _require_attr(child, "group", f"{path}/attribute"),
            ))
        elif child.tag == "section":
            children.append(_parse_section(child, path))
        else:
            raise GuidelineError(f"{path}: unknown element {child.tag!r}")
    if not sources:
        raise GuidelineError(f"{path}: a section needs at least one pattern")

    # headings are line-anchored by default; properties can switch any
    # flag off or on explicitly
    flags = 0
    for key, flag in _FLAG_PROPERTIES.items():
        default_on = key == "multiline"
        raw = properties.get(key)
        enabled = default_on if raw is None \
            else raw.strip().casefold() in _TRUE_WORDS
        if enabled:
            flags |= flag
    patterns = [_compile(src, flags, f"{path}/pattern {n}")
                for n, src in enumerate(sources)]

    name_from_group = properties.get("name_from_group")
    if name_from_group is not None:
        for n, pat in enumerate(patterns):
            if name_from_group not in pat.groupindex:
                raise GuidelineError(
                    f"{path}/pattern {n}: name_from_group "
                    f"{name_from_group!r} is not a group of {sources[n]!r}"
                )
    _check_extractors(extractors, patterns, path)
    _check_unique_names(children, "section", path)
    return SectionSpec(name=name, patterns=patterns,
                       name_from_group=name_from_group,
                       extractors=extractors, children=children)


def _parse_template(elem, path: str) -> TemplateSpec:
    name = _require_attr(elem, "name", path)
    path = f"{path}/template {name!r}"
    sources = []
    extractors = []
    for child in elem:
        if child.tag == "pattern":
            sources.append(_require_attr(child, "regex", f"{path}/pattern"))
        elif child.tag == "attribute":
            extractors.append((
                _require_attr(child, "name", f"{path}/attribute"),
                _require_attr(child, "group", f"{path}/attribute"),
            ))
        else:
            raise GuidelineError(f"{path}: unknown element {child.tag!r}")
    if len(sources) != 1:
        raise GuidelineError(
            f"{path}: a template takes exactly one pattern, "
            f"got {len(sources)}"
        )
    pattern = _compile(sources[0], re.MULTILINE, f"{path}/pattern")
    _check_extractors(extractors, [pattern], path)
    return TemplateSpec(name=name, pattern=pattern, extractors=extractors)


def parse_guideline(xml_text: str) -> Guideline:
    """Parse and fully validate a guideline document.

    All problems raise GuidelineError naming the element path, so a bad
    guideline fails loudly at load time rather than during detection.
    """
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise GuidelineError(f"malformed guideline XML: {exc}") from exc
    if root.tag != "guideline":
        raise GuidelineError(
            f"root element is {root.tag!r}, expected 'guideline'"
        )
    name = _require_attr(root, "name", "guideline")
    path = f"guideline {name!r}"
    sections = []
    templates = []
    for child in root:
        if child.tag == "section":
            sections.append(_parse_section(child, path))
        elif child.tag == "template":
            templates.append(_parse_template(child, path))
        else:
            raise GuidelineError(f"{path}: unknown element {child.tag!r}")
    _check_unique_names(sections, "section", path)
    _check_unique_names(templates, "template", path)
    return Guideline(name=name, sections=sections, templates=templates)


def _matches_at_every_start(pattern, text, lo, hi):
    # finditer skips matches that begin inside an earlier match; templates
    # want one match per distinct start offset instead
    pos = lo
    while pos <= hi:
        m = pattern.search(text, pos, hi)
        if m is None:
            return
        yield m
        pos = m.start() + 1


def _elect_headings(specs, text, lo, hi):
    """The accepted (spec, match) headings of one scope, in text order, by
    the sweep the module docstring describes."""
    held = [(pattern.search(text, lo, hi), declared, spec, pattern)
            for declared, spec in enumerate(specs)
            for pattern in spec.patterns]
    accepted = []
    while held := [h for h in held if h[0] is not None]:
        m, _, spec, _ = min(held, key=lambda h: (
            h[0].start(), h[1], h[0].start() - h[0].end()))
        accepted.append((spec, m))
        cursor = max(m.end(), m.start() + 1)
        if cursor > hi:  # search() would clamp pos back before the cursor
            break
        held = [(p.search(text, cursor, hi) if nxt.start() < cursor else nxt,
                 d, s, p) for nxt, d, s, p in held]
    return accepted


def _detect_in_scope(doc, specs, lo, hi, depth, parent_id, out):
    text = doc.content
    accepted = _elect_headings(specs, text, lo, hi)
    for n, (spec, m) in enumerate(accepted):
        body_end = accepted[n + 1][1].start() if n + 1 < len(accepted) else hi
        value = spec.name
        if spec.name_from_group:
            grabbed = m.group(spec.name_from_group)
            if grabbed is not None:
                value = grabbed
        attributes = {
            "heading_start": str(m.start()),
            "heading_end": str(m.end()),
            "depth": str(depth),
        }
        if parent_id is not None:
            attributes["parent"] = str(parent_id)
        groups = m.groupdict()
        for attr, group in spec.extractors:
            if groups.get(group) is not None:
                attributes[attr] = groups[group]
        ann = doc.annotate(Interval(m.start(), body_end), "section", value,
                           attributes, provenance="section-detector")
        out.append(ann)
        _detect_in_scope(doc, spec.children, m.end(), body_end,
                         depth + 1, ann.id, out)


def detect_sections(doc: Document, guideline: Guideline) -> list[Annotation]:
    """Locate sections recursively and attach one annotation per section.

    A section's span runs from its heading's start to the next accepted
    sibling heading, or to the end of the enclosing scope. Subsection
    search is confined to the parent body after its heading, and a
    subsection's ``parent`` attribute is its parent's id, which the store
    turns into the durable id when it writes them.
    """
    out = []
    _detect_in_scope(doc, guideline.sections, 0, len(doc.content),
                     0, None, out)
    return out


def match_templates(doc: Document, guideline: Guideline) -> list[Annotation]:
    """Attach one annotation per template body match, carrying the named
    groups the template's extractors name. Every match is reported, also
    one that overlaps another, so the output, and its cost, can be
    quadratic in the text; nothing is consumed."""
    out = []
    text = doc.content
    for template in guideline.templates:
        for m in _matches_at_every_start(template.pattern, text,
                                         0, len(text)):
            attributes = {}
            for attr, group in template.extractors:
                if m.group(group) is not None:
                    attributes[attr] = m.group(group)
            out.append(doc.annotate(
                Interval(m.start(), m.end()), "template", template.name,
                attributes, provenance="template-matcher",
            ))
    return out
