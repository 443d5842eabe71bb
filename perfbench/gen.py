"""Seeded synthetic inputs for the annokit benchmark.

Every generator draws from a ``random.Random`` and returns the text it
wrote together with what it planted there (token, sentence, section,
template and concept counts, tag spans, graph shapes). The checks compare
annokit's output against these facts, which the generator knows without
running annokit. The same seed always gives byte-identical files.

Vocabularies are disjoint by construction: filler words are
consonant-vowel syllables, lexicon words are Greek-ish roots plus a
suffix, and headings are upper-case English. Planted terms are always
separated by at least one filler word, so the greedy tagger finds
exactly the planted terms and nothing else.
"""

import random
from dataclasses import dataclass, field

FUNCTION_WORDS = ("the", "of", "and", "with", "in", "to", "was", "on",
                  "for", "no", "is", "at")
# function words that are also single-token lexicon terms: the tagger
# must find them and then drop them
FUNCTION_TERMS = ("was", "no")
HEADINGS = (
    ("cc", "CHIEF COMPLAINT"),
    ("hpi", "HISTORY OF PRESENT ILLNESS"),
    ("pmh", "PAST MEDICAL HISTORY"),
    ("meds", "MEDICATIONS"),
    ("allergies", "ALLERGIES"),
    ("plan", "ASSESSMENT AND PLAN"),
)
DEP_LABELS = ("nsubj", "dobj", "amod", "prep", "pobj", "det", "advmod",
              "conj")
TUIS = ("T023", "T033", "T047", "T061", "T121", "T184")
PHI_TYPES = ("NAME", "DATE", "HOSPITAL", "AGE", "ID", "PHONE")

_ONSETS = "bdfglmnprstv"
_VOWELS = "aeiou"
_ROOTS = ("cardi", "neur", "gastr", "hepat", "nephr", "oste", "derm",
          "pulmon", "lymph", "angi", "arthr", "encephal", "cyt", "hem",
          "my", "rhin", "cholecyst", "thromb", "leuk", "pancreat")
_SUFFIXES = ("itis", "oma", "osis", "algia", "pathy", "ectomy", "emia",
             "plasty", "ocele", "ostomy")

GUIDELINE_XML = """<guideline name="synthetic-notes">
  <section name="cc"><pattern regex="^CHIEF COMPLAINT:"/></section>
  <section name="hpi"><pattern regex="^HISTORY OF PRESENT ILLNESS:"/></section>
  <section name="pmh"><pattern regex="^PAST MEDICAL HISTORY:"/></section>
  <section name="meds"><pattern regex="^MEDICATIONS:"/></section>
  <section name="allergies"><pattern regex="^ALLERGIES:"/></section>
  <section name="plan">
    <pattern regex="^ASSESSMENT AND PLAN:"/>
    <section name="problem">
      <pattern regex="^Problem (?&lt;num&gt;\\d+):"/>
      <attribute name="number" group="num"/>
    </section>
  </section>
  <template name="vitals">
    <pattern regex="BP (?&lt;sys&gt;\\d+)/(?&lt;dia&gt;\\d+)"/>
    <attribute name="systolic" group="sys"/>
    <attribute name="diastolic" group="dia"/>
  </template>
</guideline>
"""


def _filler_vocabulary(rng, size):
    words = set()
    while len(words) < size:
        words.add("".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                          for _ in range(rng.randint(2, 3))))
    words -= set(FUNCTION_WORDS)
    return sorted(words)


def _lexicon_vocabulary():
    words = [root + "o" + suffix if suffix[0] not in _VOWELS
             else root + suffix for root in _ROOTS for suffix in _SUFFIXES]
    words += [a + "o" + b + suffix for a in _ROOTS for b in _ROOTS
              if a != b for suffix in _SUFFIXES[:3]]
    return words


@dataclass
class Lexicon:
    """Generated dictionary. ``terms`` holds (text, cui, tui) rows; every
    term's casefolded word tuple is unique, so one hit is one CUI."""

    terms: list
    filler: list
    pos_words: dict

    def term_file(self) -> str:
        return "".join(f"{text}\t{cui}\t{text.title()}\n"
                       for text, cui, _ in self.terms)

    def tui_file(self) -> str:
        return "".join(f"{cui}\t{tui}\n" for _, cui, tui in self.terms)

    def pos_file(self) -> str:
        return "".join(f"{word}\t{tags}\n"
                       for word, tags in sorted(self.pos_words.items()))

    @staticmethod
    def function_word_file() -> str:
        return "".join(f"{word}\n" for word in FUNCTION_WORDS)

    def plantable(self):
        """Terms a note may plant: everything but the function terms."""
        return [t for t in self.terms if t[0] not in FUNCTION_TERMS]


def make_lexicon(rng: random.Random, size: int,
                 filler_size: int = 600) -> Lexicon:
    """``size`` terms of one to three lexicon words, plus the function
    words that double as terms."""
    vocab = _lexicon_vocabulary()
    rng.shuffle(vocab)
    seen = set()
    terms = []
    while len(terms) < size:
        words = rng.sample(vocab, rng.choice((1, 1, 2, 2, 3)))
        key = tuple(words)
        if key in seen:
            continue
        seen.add(key)
        terms.append(" ".join(words))
    terms += FUNCTION_TERMS
    rows = [(text, f"C{n + 1:07d}", TUIS[n % len(TUIS)])
            for n, text in enumerate(terms)]
    pos_words = {"the": "DT", "a": "DT", "of": "IN", "with": "IN",
                 "in": "IN", "to": "TO,IN", "on": "IN", "for": "IN",
                 "at": "IN", "and": "CC", "was": "VBD", "is": "VBZ",
                 "no": "DT,UH"}
    return Lexicon(terms=rows, filler=_filler_vocabulary(rng, filler_size),
                   pos_words=pos_words)


@dataclass
class Note:
    """One clinical-style note and everything planted in it."""

    name: str
    text: str
    counts: dict
    dependencies: list = field(default_factory=list)

    def dependency_tsv(self) -> str:
        lines = ["# doc\tstart\tend\ttype\tvalue\tattributes"]
        for start, end, label, head, dep in self.dependencies:
            lines.append(
                f"{self.name}\t{start}\t{end}\tdependency\t{label}\t"
                f"head_start={head[0]};head_end={head[1]};"
                f"dependent_start={dep[0]};dependent_end={dep[1]}")
        return "\n".join(lines) + "\n"


class _Writer:
    """Appends tokens to a text while recording every token span."""

    def __init__(self):
        self.parts = []
        self.length = 0
        self.tokens = 0

    def token(self, surface, space=True):
        if space and self.length and not self.parts[-1].endswith("\n"):
            self.parts.append(" ")
            self.length += 1
        start = self.length
        self.parts.append(surface)
        self.length += len(surface)
        self.tokens += 1
        return start, self.length

    def newline(self):
        self.parts.append("\n")
        self.length += 1


def _body_sentence(rng, writer, lexicon, length, counts, plantable):
    """One sentence of ``length`` words ending in a period. Returns the
    spans of its word tokens."""
    planted = max(1, length // 8)
    slots = []  # a list of word lists: planted terms and single fillers
    terms = [rng.choice(plantable) for _ in range(planted)]
    term_words = sum(len(t[0].split()) for t in terms)
    fillers = max(planted + 1, length - term_words)
    # planted terms go after distinct filler words, never adjacent
    after = sorted(rng.sample(range(fillers), planted))
    term_iter = iter(terms)
    for n in range(fillers):
        word = rng.choice(FUNCTION_WORDS) if rng.random() < 0.25 \
            else rng.choice(lexicon.filler)
        slots.append(([word], False))
        if after and after[0] == n:
            after.pop(0)
            slots.append((next(term_iter)[0].split(), True))
    spans = []
    for n, (slot_words, is_term) in enumerate(slots):
        counts["concepts"] += is_term
        for word in slot_words:
            surface = word[0].upper() + word[1:] if not spans else word
            spans.append(writer.token(surface))
            counts["sp_pos"] += word in lexicon.pos_words
        # a comma never splits a planted term
        if not is_term and 0 < n < len(slots) - 1 and rng.random() < 0.05:
            writer.token(",", space=False)
    writer.token(".", space=False)
    counts["sentences"] += 1
    return spans


def _dependencies(rng, spans, skip):
    """A random tree over the sentence's word tokens, head to dependent;
    with ``skip``, one extra dependency names a head that is no token."""
    out = []
    for n in range(1, len(spans)):
        head, dep = spans[rng.randrange(n)], spans[n]
        out.append((min(head[0], dep[0]), max(head[1], dep[1]),
                    rng.choice(DEP_LABELS), head, dep))
    if skip:
        head, dep = spans[0], spans[-1]
        out.append((head[0], dep[1], "dep", (head[0] + 1, head[1]), dep))
    return out


def make_note(rng: random.Random, name: str, lexicon: Lexicon,
              target_tokens: int, sentence_length: int = 12) -> Note:
    """A note with all six headings, body paragraphs of planted
    sentences, numbered problems under the plan, and vitals lines that
    the guideline's template matches."""
    counts = dict(tokens=0, sentences=0, sections=0, templates=0,
                  concepts=0, sp_pos=0, skipped_dependencies=0)
    plantable = lexicon.plantable()
    writer = _Writer()
    deps = []
    body_sentences = max(len(HEADINGS) + 2,
                         target_tokens // (sentence_length + 2))
    vitals = 1 + target_tokens // 800
    per_section = [1, 0, 0, 0, 0, 0]
    for n in range(body_sentences - 1):
        per_section[1 + n % (len(HEADINGS) - 1)] += 1
    lo, hi = max(3, sentence_length // 2), sentence_length * 3 // 2

    def sentence():
        spans = _body_sentence(rng, writer, lexicon,
                               rng.randint(lo, hi), counts, plantable)
        skip = counts["sentences"] % 20 == 0
        counts["skipped_dependencies"] += skip
        deps.extend(_dependencies(rng, spans, skip))

    for (key, heading), sentences in zip(HEADINGS, per_section):
        for word in heading.split():
            writer.token(word)
            counts["sp_pos"] += word.casefold() in lexicon.pos_words
        writer.token(":", space=False)
        writer.newline()
        counts["sentences"] += 1
        counts["sections"] += 1
        if key == "plan":
            for number in range(1, sentences + 1):
                writer.token("Problem")
                writer.token(str(number))
                writer.token(":", space=False)
                counts["sections"] += 1
                sentence()
                writer.newline()
            continue
        if key == "hpi":
            for _ in range(vitals):
                systolic, diastolic = rng.randint(95, 180), rng.randint(55, 110)
                for surface, space in (("Vitals", True), ("BP", True),
                                       (str(systolic), True), ("/", False),
                                       (str(diastolic), False),
                                       ("and", True), ("HR", True),
                                       (str(rng.randint(50, 120)), True),
                                       (".", False)):
                    writer.token(surface, space=space)
                counts["sp_pos"] += 1  # "and"
                counts["sentences"] += 1
                counts["templates"] += 1
        for _ in range(sentences):
            sentence()
        writer.newline()
    counts["tokens"] = writer.tokens
    counts["dependencies"] = len(deps)
    counts["tui"] = counts["concepts"]
    return Note(name=name, text="".join(writer.parts), counts=counts,
                dependencies=deps)


def note_lengths(count: int, shortest: int, longest: int) -> list:
    """Evenly spread token targets, in a fixed order, so that every seed
    does the same work and only the content changes."""
    if count == 1:
        return [longest]
    step = (longest - shortest) / (count - 1)
    return [round(shortest + n * step) for n in range(count)]


def make_notes(rng: random.Random, lexicon: Lexicon, count: int,
               shortest: int, longest: int,
               sentence_length: int = 12) -> list:
    lengths = note_lengths(count, shortest, longest)
    return [make_note(rng, f"note{n:03d}.txt", lexicon, length,
                      sentence_length)
            for n, length in enumerate(lengths)]


def notes_inline_xml(notes) -> str:
    """The notes as one inline-XML corpus, one RECORD per note."""
    body = "".join(f'<RECORD id="{note.name}">{note.text}</RECORD>\n'
                   for note in notes)
    return f'<?xml version="1.0" encoding="utf-8"?>\n<NOTES>\n{body}</NOTES>\n'


@dataclass
class Record:
    """One inline record: its plain text and its tags as
    (element, TYPE value, start, end) in the plain text."""

    record_id: str
    markup: str
    plain: str
    tags: list


def _phi_surface(rng, kind, filler):
    if kind == "NAME":
        return f"{rng.choice(filler).title()} {rng.choice(filler).title()}"
    if kind == "DATE":
        return f"{rng.randint(2001, 2019)}-{rng.randint(1, 12):02d}-" \
               f"{rng.randint(1, 28):02d}"
    if kind == "HOSPITAL":
        return f"{rng.choice(filler).title()} Medical Center"
    if kind == "AGE":
        return str(rng.randint(18, 95))
    if kind == "ID":
        return f"MRN {rng.randint(100000, 999999)}"
    return f"{rng.randint(200, 999)}-{rng.randint(1000, 9999)}"


def make_record(rng: random.Random, record_id: str, filler, words: int,
                tags: int) -> Record:
    """About ``words`` filler words with ``tags`` PHI elements, one of
    them a LOCATION that nests a HOSPITAL, inside a TEXT element."""
    markup, plain, spans = [], [], []
    length = 0

    def emit(text, escaped=None):
        nonlocal length
        plain.append(text)
        markup.append(escaped if escaped is not None else text)
        length += len(text)

    positions = set(rng.sample(range(1, words), tags))
    nested_at = min(positions)
    for n in range(words):
        if n:
            emit(" ")
        if n == nested_at:
            outer = length
            markup.append('<PHI TYPE="LOCATION">')
            inner = length
            markup.append('<PHI TYPE="HOSPITAL">')
            emit(_phi_surface(rng, "HOSPITAL", filler))
            markup.append("</PHI>")
            spans.append(("PHI", "HOSPITAL", inner, length))
            emit(f" of {rng.choice(filler).title()}")
            markup.append("</PHI>")
            spans.append(("PHI", "LOCATION", outer, length))
        elif n in positions:
            kind = rng.choice(PHI_TYPES)
            start = length
            markup.append(f'<PHI TYPE="{kind}">')
            emit(_phi_surface(rng, kind, filler))
            markup.append("</PHI>")
            spans.append(("PHI", kind, start, length))
        elif n % 97 == 0:
            emit("Q&A", "Q&amp;A")
        else:
            emit(rng.choice(filler))
    emit(".")
    text_tag = ("TEXT", "TEXT", 0, length)
    body = "".join(markup)
    return Record(record_id=record_id,
                  markup=f'<RECORD id="{record_id}"><TEXT>{body}</TEXT>'
                         f'</RECORD>\n',
                  plain="".join(plain), tags=[text_tag] + spans)


def make_records(rng: random.Random, filler, count: int, words: int = 300,
                 tags: int = 12) -> list:
    return [make_record(rng, f"r{n:05d}", filler, words, tags)
            for n in range(count)]


def records_inline_xml(records) -> str:
    return ('<?xml version="1.0" encoding="utf-8"?>\n<deid>\n'
            + "".join(r.markup for r in records) + "</deid>\n")


@dataclass
class GraphSpec:
    """A dependency-like tree: node labels and (src, dst, label) edges."""

    name: str
    nodes: list
    edges: list


def make_graphs(rng: random.Random, count: int, labels: int,
                edge_labels: int = 3, smallest: int = 6,
                largest: int = 16) -> list:
    """Random trees with Zipf-distributed node labels over a small
    alphabet. Node counts cycle through smallest..largest so every seed
    builds the same amount of graph."""
    alphabet = [f"L{n}" for n in range(labels)]
    weights = [1 / (n + 1) for n in range(labels)]
    edge_alphabet = DEP_LABELS[:edge_labels]
    sizes = [smallest + n % (largest - smallest + 1) for n in range(count)]
    rng.shuffle(sizes)
    out = []
    for n, size in enumerate(sizes):
        nodes = rng.choices(alphabet, weights=weights, k=size)
        edges = [(rng.randrange(k), k, rng.choice(edge_alphabet))
                 for k in range(1, size)]
        out.append(GraphSpec(name=f"graph{n:04d}", nodes=nodes,
                             edges=edges))
    return out
