"""Dictionary-driven concept tagging.

A lexicon maps case-folded token sequences to concept ids (CUIs), with
side tables for semantic types (TUIs), specialist parts of speech, and
function words. Tagging is one left-to-right pass over a sentence: from
each start, the longest hit among the phrases of at most the window's
length that hold no punctuation is kept when it ends past every match
from an earlier start, that is, when no other match contains it. A kept
single-token match that is a bare function word is then dropped. Partial
overlaps survive.
"""

from dataclasses import dataclass, field

from .documents import Annotation, Document, content_lines, tokenize_text
from .errors import LexiconError
from .intervals import Interval


@dataclass
class Lexicon:
    """Immutable after load. ``max_phrase_tokens`` is the tagger's window,
    the longest phrase it looks up; left unset, it is the token count of
    the longest entry (0 when there is none), so every entry can match."""

    entries: dict[tuple, list[str]] = field(default_factory=dict)
    cui_to_tui: dict[str, list[str]] = field(default_factory=dict)
    token_to_pos: dict[str, list[str]] = field(default_factory=dict)
    function_words: frozenset = frozenset()
    cui_preferred: dict[str, str] = field(default_factory=dict)
    max_phrase_tokens: int | None = None

    def __post_init__(self):
        if self.max_phrase_tokens is None:
            self.max_phrase_tokens = max(map(len, self.entries), default=0)


@dataclass(frozen=True)
class ConceptMatch:
    """A dictionary hit over a half-open token range of one sentence."""

    token_start: int
    token_end: int
    span: Interval
    cuis: tuple


def _is_punctuation(token: str) -> bool:
    return not any(ch.isalnum() for ch in token)


def term_key(term: str) -> tuple:
    """Case-folded lookup key for a dictionary term: its tokens with
    punctuation dropped. Empty when the term has no word material."""
    return tuple(tok.casefold() for tok, _ in tokenize_text(term)
                 if not _is_punctuation(tok))


def _append_unique(bucket: list, value: str) -> None:
    if value not in bucket:
        bucket.append(value)


def load_lexicon(term_file, tui_file=None, pos_file=None,
                 function_word_file=None) -> Lexicon:
    """Build a Lexicon from tab-separated data files.

    term file: ``term<TAB>CUI[<TAB>preferred_term]``
    tui file: ``CUI<TAB>TUI``; pos file: ``token<TAB>tag[,tag...]``;
    function word file: one token per line. Blank and ``#`` lines are
    skipped everywhere. Any malformed line aborts with its number.
    Duplicate (term, CUI) rows collapse silently; the first preferred
    term seen for a CUI wins.
    """
    entries: dict[tuple, list[str]] = {}
    cui_preferred: dict[str, str] = {}
    for lineno, line in content_lines(term_file):
        fields = line.split("\t")
        if len(fields) not in (2, 3) or not fields[0].strip() \
                or not fields[1].strip():
            raise LexiconError(f"term file line {lineno}: "
                               f"expected term<TAB>CUI[<TAB>preferred]")
        term, cui = fields[0], fields[1].strip()
        key = term_key(term)
        if not key:
            raise LexiconError(
                f"term file line {lineno}: term {term!r} has no word tokens"
            )
        _append_unique(entries.setdefault(key, []), cui)
        if len(fields) == 3 and fields[2].strip():
            cui_preferred.setdefault(cui, fields[2].strip())

    cui_to_tui: dict[str, list[str]] = {}
    for lineno, line in content_lines(tui_file):
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0].strip() or not fields[1].strip():
            raise LexiconError(
                f"tui file line {lineno}: expected CUI<TAB>TUI"
            )
        _append_unique(cui_to_tui.setdefault(fields[0].strip(), []),
                       fields[1].strip())

    token_to_pos: dict[str, list[str]] = {}
    for lineno, line in content_lines(pos_file):
        fields = line.split("\t")
        tags = [t.strip() for t in fields[1].split(",")] \
            if len(fields) == 2 else []
        if len(fields) != 2 or not fields[0].strip() \
                or not tags or any(not t for t in tags):
            raise LexiconError(
                f"pos file line {lineno}: expected token<TAB>tag[,tag...]"
            )
        bucket = token_to_pos.setdefault(fields[0].strip().casefold(), [])
        for tag in tags:
            _append_unique(bucket, tag)

    function_words = set()
    for lineno, line in content_lines(function_word_file):
        word = line.strip()
        if "\t" in word:
            raise LexiconError(
                f"function word file line {lineno}: one token per line"
            )
        function_words.add(word.casefold())

    return Lexicon(entries=entries, cui_to_tui=cui_to_tui,
                   token_to_pos=token_to_pos,
                   function_words=frozenset(function_words),
                   cui_preferred=cui_preferred)


def tag_sentence(tokens: list[tuple[str, Interval]],
                 lexicon: Lexicon) -> list[ConceptMatch]:
    """One left-to-right pass of dictionary matching over a sentence.

    tokens are (surface, span) pairs in canonical order. Returns the kept
    matches ordered by token range, after at most n x window lookups for
    n tokens and no sort; the module docstring gives the procedure.
    """
    folded = [surface.casefold() for surface, _ in tokens]
    punct = [_is_punctuation(surface) for surface, _ in tokens]
    window = lexicon.max_phrase_tokens
    n = len(tokens)
    matches = []
    reach = 0  # the furthest end of any match from an earlier start
    for start in range(n):
        longest = None
        for end in range(start + 1, min(n, start + window) + 1):
            if punct[end - 1]:
                break  # extending further keeps the punctuation inside
            cuis = lexicon.entries.get(tuple(folded[start:end]))
            if cuis:
                longest = end, cuis
        if longest is None or longest[0] <= reach:
            continue
        end, cuis = longest
        reach = end
        if end - start == 1 and folded[start] in lexicon.function_words:
            continue
        matches.append(ConceptMatch(
            token_start=start, token_end=end,
            span=Interval(tokens[start][1].start, tokens[end - 1][1].end),
            cuis=tuple(cuis)))
    return matches


def annotate_concepts(doc: Document, sentence: Annotation,
                      lexicon: Lexicon) -> list[Annotation]:
    """Tag one sentence and attach a CUI annotation per (match, CUI).

    token_start/token_end attributes are positions within the sentence's
    token sequence; the preferred term rides along when the lexicon
    knows one.
    """
    token_anns = doc.annotations_within(sentence.span, "token")
    tokens = [(doc.content[a.span.start:a.span.end], a.span)
              for a in token_anns]
    added = []
    for match in tag_sentence(tokens, lexicon):
        for cui in match.cuis:
            attributes = {
                "token_start": str(match.token_start),
                "token_end": str(match.token_end),
            }
            preferred = lexicon.cui_preferred.get(cui)
            if preferred:
                attributes["preferred"] = preferred
            added.append(doc.annotate(match.span, "CUI", cui, attributes,
                                      provenance="dictionary-tagger"))
    return added


def annotate_tuis(doc: Document, lexicon: Lexicon) -> list[Annotation]:
    """One TUI annotation per (CUI annotation, mapped TUI), same span.
    CUIs without a mapping contribute nothing."""
    added = []
    for ann in doc.annotations("CUI"):
        for tui in lexicon.cui_to_tui.get(ann.value, ()):
            added.append(doc.annotate(
                ann.span, "TUI", tui, {"cui": ann.value},
                provenance="tui-mapper"))
    return added


def annotate_sp_pos(doc: Document, lexicon: Lexicon) -> list[Annotation]:
    """One SP-POS annotation per token with a lexicon entry; the value is
    the comma-joined list of every possible tag."""
    added = []
    for ann in doc.annotations("token"):
        surface = doc.content[ann.span.start:ann.span.end]
        tags = lexicon.token_to_pos.get(surface.casefold())
        if tags:
            added.append(doc.annotate(
                ann.span, "SP-POS", ",".join(tags),
                provenance="pos-mapper"))
    return added
