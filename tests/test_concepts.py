import io
import random
import time

import pytest

from annokit.concepts import (
    ConceptMatch,
    Lexicon,
    annotate_concepts,
    annotate_sp_pos,
    annotate_tuis,
    load_lexicon,
    tag_sentence,
    term_key,
)
from annokit.documents import Document, tokenize
from annokit.errors import LexiconError
from annokit.intervals import Interval


def lay_out(words):
    """Token (surface, span) pairs with single-space gaps."""
    toks, pos = [], 0
    for w in words:
        toks.append((w, Interval(pos, pos + len(w))))
        pos += len(w) + 1
    return toks


def lex(terms, function_words=(), max_phrase_tokens=12, tuis=None, pos=None,
        preferred=None):
    entries = {}
    for term, cui in terms:
        entries.setdefault(term_key(term), []).append(cui)
    return Lexicon(entries=entries,
                   cui_to_tui={k: list(v) for k, v in (tuis or {}).items()},
                   token_to_pos={k: list(v) for k, v in (pos or {}).items()},
                   function_words=frozenset(w.casefold()
                                            for w in function_words),
                   cui_preferred=dict(preferred or {}),
                   max_phrase_tokens=max_phrase_tokens)


def ranges(matches):
    return [(m.token_start, m.token_end, m.cuis) for m in matches]


def oracle_tag(tokens, lexicon):
    """Brute force: all contiguous subsequences, then containment and
    function-word filtering. Written independently of tag_sentence."""
    n = len(tokens)
    folded = [t.casefold() for t, _ in tokens]
    is_punct = [not any(c.isalnum() for c in t) for t, _ in tokens]
    found = {}
    for i in range(n):
        for j in range(i + 1, n + 1):
            if j - i > lexicon.max_phrase_tokens:
                continue
            if any(is_punct[k] for k in range(i, j)):
                continue
            cuis = lexicon.entries.get(tuple(folded[i:j]))
            if cuis:
                found[(i, j)] = tuple(cuis)
    undecided = set(found)
    kept = []
    while undecided:
        best = max(undecided, key=lambda r: (r[1] - r[0], -r[0]))
        undecided.discard(best)
        kept.append(best)
        for other in list(undecided):
            if best[0] <= other[0] and other[1] <= best[1]:
                undecided.discard(other)
    out = []
    for i, j in sorted(kept):
        if j - i == 1 and folded[i] in lexicon.function_words:
            continue
        out.append((i, j, found[(i, j)]))
    return out


HEART_TOKENS = lay_out(["congenital", "defect", "of", "the", "heart"])


def test_greedy_containment_worked_example():
    lexicon = lex([("congenital defect", "C0"), ("heart", "C1"),
                   ("congenital", "C2")])
    got = tag_sentence(HEART_TOKENS, lexicon)
    assert ranges(got) == [(0, 2, ("C0",)), (4, 5, ("C1",))]


def test_partial_overlap_worked_example():
    lexicon = lex([("congenital defect", "C0"), ("heart", "C1"),
                   ("congenital", "C2"), ("defect of the heart", "C3")])
    got = tag_sentence(HEART_TOKENS, lexicon)
    assert ranges(got) == [(0, 2, ("C0",)), (1, 5, ("C3",))]


def test_function_word_single_token_dropped():
    lexicon = lex([("the", "C9")], function_words=["the"])
    assert tag_sentence(HEART_TOKENS, lexicon) == []


def test_function_word_inside_phrase_survives():
    lexicon = lex([("of the heart", "C5")], function_words=["of", "the"])
    got = tag_sentence(HEART_TOKENS, lexicon)
    assert ranges(got) == [(2, 5, ("C5",))]


def test_empty_sentence():
    assert tag_sentence([], lex([("x", "C1")])) == []


def test_match_spans_cover_first_to_last_token():
    lexicon = lex([("congenital defect", "C0")])
    got = tag_sentence(HEART_TOKENS, lexicon)
    assert got[0].span == Interval(0, len("congenital defect"))


def test_punctuation_blocks_subsequences():
    tokens = lay_out(["heart", ",", "attack"])
    lexicon = lex([("heart attack", "C0027051"), ("heart", "C1")])
    got = tag_sentence(tokens, lexicon)
    assert ranges(got) == [(0, 1, ("C1",))]


def test_case_invariance():
    lexicon = lex([("Heart Attack", "C0027051")])
    lower = tag_sentence(lay_out(["heart", "attack"]), lexicon)
    upper = tag_sentence(lay_out(["HEART", "ATTACK"]), lexicon)
    assert ranges(lower) == ranges(upper) == [(0, 2, ("C0027051",))]


def test_max_phrase_tokens_caps_lookup():
    lexicon = lex([("a b c", "C3")], max_phrase_tokens=2)
    assert tag_sentence(lay_out(["a", "b", "c"]), lexicon) == []


def test_an_unset_window_is_the_longest_entry():
    assert lex([("a b c", "C3"), ("d", "C1")],
               max_phrase_tokens=None).max_phrase_tokens == 3
    assert Lexicon().max_phrase_tokens == 0
    assert tag_sentence(lay_out(["a", "b"]), Lexicon()) == []


def test_a_loaded_lexicon_tags_a_term_of_thirteen_tokens():
    # One token longer than the window's former default of twelve.
    words = [f"w{k}" for k in range(13)]
    lexicon = load_lexicon(io.StringIO(f"{' '.join(words)}\tC13\nw0\tC0\n"))
    got = tag_sentence(lay_out(["x", *words, "y"]), lexicon)
    assert ranges(got) == [(1, 14, ("C13",))]


def test_equal_length_overlaps_both_kept():
    lexicon = lex([("a b", "C1"), ("b c", "C2")])
    got = tag_sentence(lay_out(["a", "b", "c"]), lexicon)
    assert ranges(got) == [(0, 2, ("C1",)), (1, 3, ("C2",))]


def test_random_cases_match_oracle():
    rng = random.Random(20260817)
    vocab = ["heart", "attack", "congenital", "defect", "of", "the",
             "acute", "pain", ",", "."]
    for _ in range(150):
        words = [rng.choice(vocab) for _ in range(rng.randrange(0, 31))]
        tokens = lay_out(words)
        terms = []
        for _ in range(rng.randrange(1, 8)):
            k = rng.randrange(1, 6)
            phrase = " ".join(rng.choice(vocab[:8]) for _ in range(k))
            terms.append((phrase, f"C{rng.randrange(5)}"))
        lexicon = lex(terms,
                      function_words=rng.sample(vocab[:8], rng.randrange(3)),
                      max_phrase_tokens=rng.choice((None, 1, 2, 3, 5, 12)))
        assert ranges(tag_sentence(tokens, lexicon)) == \
            oracle_tag(tokens, lexicon)


def test_tagging_time_grows_linearly_with_sentence_length():
    # One long unpunctuated sentence is one sentence; every "high fever"
    # keeps one match and drops the "fever" inside it. Linear tagging
    # takes about 8 times as long for 8 times the tokens, a pairwise
    # containment check about 64 times.
    lexicon = lex([("fever", "C1"), ("high fever", "C2")])

    def best_of_three(n):
        tokens = lay_out(["high", "fever"] * (n // 2))
        times = []
        for _ in range(3):
            started = time.perf_counter()
            got = tag_sentence(tokens, lexicon)
            times.append(time.perf_counter() - started)
        assert len(got) == n // 2
        return min(times)

    assert best_of_three(16_000) < 16 * best_of_three(2_000)


def test_no_kept_match_contained_in_another():
    rng = random.Random(5)
    vocab = ["a", "b", "c", "d"]
    for _ in range(60):
        words = [rng.choice(vocab) for _ in range(10)]
        terms = [(" ".join(rng.choice(vocab)
                           for _ in range(rng.randrange(1, 4))), "C")
                 for _ in range(6)]
        got = tag_sentence(lay_out(words), lex(terms))
        for m in got:
            for other in got:
                if m is other:
                    continue
                properly_inside = (other.token_start <= m.token_start
                                   and m.token_end <= other.token_end)
                assert not properly_inside or \
                    (m.token_start, m.token_end) == \
                    (other.token_start, other.token_end)


def test_load_lexicon_from_streams():
    lexicon = load_lexicon(
        io.StringIO("Heart Attack\tC0027051\tMyocardial infarction\n"
                    "heart attack\tC0027051\n"
                    "heart\tC0018787\tHeart\n"
                    "# comment\n\n"
                    "X-ray\tC0043299\n"),
        io.StringIO("C0018787\tT023\nC0018787\tT029\n"),
        io.StringIO("cold\tnoun,adjective\n"),
        io.StringIO("the\nof\n"),
    )
    assert lexicon.entries[("heart", "attack")] == ["C0027051"]
    assert lexicon.entries[("heart",)] == ["C0018787"]
    # punctuation inside a term is dropped at load
    assert lexicon.entries[("x", "ray")] == ["C0043299"]
    assert lexicon.cui_to_tui["C0018787"] == ["T023", "T029"]
    assert lexicon.token_to_pos["cold"] == ["noun", "adjective"]
    assert lexicon.function_words == frozenset({"the", "of"})
    assert lexicon.cui_preferred["C0027051"] == "Myocardial infarction"


def test_load_lexicon_line_errors():
    with pytest.raises(LexiconError) as err:
        load_lexicon(io.StringIO("fine\tC1\nno tab here\n"))
    assert "line 2" in str(err.value)
    with pytest.raises(LexiconError) as err:
        load_lexicon(io.StringIO("!!\tC1\n"))
    assert "line 1" in str(err.value)
    with pytest.raises(LexiconError):
        load_lexicon(io.StringIO("t\tC1\n"), io.StringIO("C1 T1\n"))
    with pytest.raises(LexiconError):
        load_lexicon(io.StringIO("t\tC1\n"), None, io.StringIO("cold\t\n"))


def test_annotate_concepts_one_annotation_per_cui():
    doc = Document("n", "congenital defect of the heart")
    for t in tokenize(doc):
        doc.add_annotation(t)
    sent = doc.annotate(Interval(0, len(doc.content)), "sentence")
    lexicon = lex([("congenital defect", "C0"), ("congenital defect", "C0b"),
                   ("heart", "C1")],
                  preferred={"C1": "Heart"})
    added = annotate_concepts(doc, sent, lexicon)
    assert [(a.value, a.span) for a in added] == [
        ("C0", Interval(0, 17)), ("C0b", Interval(0, 17)),
        ("C1", Interval(25, 30))]
    assert added[0].attributes == {"token_start": "0", "token_end": "2"}
    assert added[2].attributes == {"token_start": "4", "token_end": "5",
                                   "preferred": "Heart"}
    assert all(a.type_name == "CUI" for a in added)


def test_annotate_concepts_respects_sentence_scope():
    doc = Document("n", "severe heart. Attack unlikely.")
    for t in tokenize(doc):
        doc.add_annotation(t)
    s1 = doc.annotate(Interval(0, 13), "sentence")
    s2 = doc.annotate(Interval(14, 30), "sentence")
    lexicon = lex([("heart attack", "C0027051")])
    assert annotate_concepts(doc, s1, lexicon) == []
    assert annotate_concepts(doc, s2, lexicon) == []


def test_annotate_tuis_per_mapping_row():
    doc = Document("n", "heart and more heart")
    doc.annotate(Interval(0, 5), "CUI", "C0018787")
    doc.annotate(Interval(15, 20), "CUI", "C0018787")
    doc.annotate(Interval(6, 9), "CUI", "C_unmapped")
    lexicon = lex([], tuis={"C0018787": ["T023", "T029"]})
    added = annotate_tuis(doc, lexicon)
    assert len(added) == 4
    assert {a.value for a in added} == {"T023", "T029"}
    assert all(a.type_name == "TUI" for a in added)
    cui_spans = [a.span for a in doc.annotations("CUI")
                 if a.value == "C0018787"]
    tui_spans = sorted({(a.span.start, a.span.end) for a in added})
    assert tui_spans == sorted({(s.start, s.end) for s in cui_spans})


def test_annotate_sp_pos_values():
    doc = Document("n", "a cold day")
    for t in tokenize(doc):
        doc.add_annotation(t)
    lexicon = lex([], pos={"cold": ["noun", "adjective"]})
    added = annotate_sp_pos(doc, lexicon)
    assert len(added) == 1
    assert added[0].value == "noun,adjective"
    assert added[0].span == Interval(2, 6)
    assert added[0].type_name == "SP-POS"
