"""End-to-end command tests driven through main(argv).

Each test gets its own store under tmp_path via a generated config file,
so commands compose exactly as they would in a shell session.
"""

import contextlib
import functools
import itertools
import os
import pathlib
import sqlite3
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annokit import cli
from annokit import graphs as graph_tools
from annokit.cli import main
from annokit.config import load_config
from annokit.graphs import (
    LabeledGraph,
    persist_graphs,
    write_graph_file,
)
from annokit.store import CdmStore

DOC1 = "Cells express CD30. Biopsy showed large cell lymphoma."

FIG2 = (
    'The patient underwent an ECHO and endoscopy at '
    '<PHI TYPE="Hospital">Beth Israel Deaconess Medical Center</PHI> '
    'on <PHI TYPE="Date">April 28</PHI>.'
)

DEPS = """# doc\tstart\tend\ttype\tvalue\tattributes
doc1.txt\t6\t13\tdependency\tnsubj\thead_start=6;head_end=13;dependent_start=0;dependent_end=5
doc1.txt\t6\t13\tdependency\tdobj\thead_start=6;head_end=13;dependent_start=14;dependent_end=18
"""

TERMS = (
    "CD30\tC0054946\tCD30 antigen\n"
    "large cell lymphoma\tC0079744\n"
    "cells\tC0007634\n"
)


def workspace(path):
    """Workspace: config file pointing at a store inside ``path``."""
    (path / "annokit.cfg").write_text(f"store_path={path / 'store.db'}\n",
                                      encoding="utf-8")
    return path


@pytest.fixture
def ws(tmp_path):
    return workspace(tmp_path)


def run(ws, *argv):
    return main(["--config", str(ws / "annokit.cfg"), *argv])


def snapshot(root):
    """Every path under root, with the bytes of each file."""
    return {path: path.read_bytes() if path.is_file() else None
            for path in root.rglob("*")}


def add_cfg(ws, **settings):
    cfg = ws / "annokit.cfg"
    lines = cfg.read_text(encoding="utf-8")
    for key, value in settings.items():
        lines += f"{key}={value}\n"
    cfg.write_text(lines, encoding="utf-8")


def write_graphs(ws):
    """Two one-edge dependency graphs in the interchange format."""
    path = ws / "graphs.tsv"
    path.write_text(
        "graph\t\tg1\tdependency\nn\t0\tcells\nn\t1\texpress\n"
        "e\t1\t0\tnsubj\n"
        "graph\t\tg2\tdependency\nn\t0\tcells\nn\t1\texpress\n"
        "e\t1\t0\tnsubj\n", encoding="utf-8")
    return str(path)


def mining_rows(ws):
    """The sig_subgraph and lg_sigsub rows of the workspace's store."""
    with CdmStore(str(ws / "store.db")) as store:
        return [store.connection.execute(
            f"SELECT * FROM {table} ORDER BY rowid").fetchall()
            for table in ("sig_subgraph", "lg_sigsub")]


def store_dump(ws):
    with CdmStore(str(ws / "store.db")) as store:
        return list(store.connection.iterdump())


def write_doc(ws, name=" doc1.txt".strip(), text=DOC1):
    path = ws / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def add_guideline(ws):
    """Configure a guideline whose nested headings occur in DOC1 and in
    the session's doc2.txt."""
    path = ws / "guideline.xml"
    path.write_text(
        '<guideline name="notes"><section name="opening">'
        '<pattern regex="^(Cells|One)"/>'
        '<section name="finding"><pattern regex="Biopsy|^Two"/></section>'
        '</section></guideline>', encoding="utf-8")
    add_cfg(ws, guideline=str(path))


class TestInit:
    def test_fresh_then_rerun(self, ws, capsys):
        assert run(ws, "init") == 0
        assert "14 tables created" in capsys.readouterr().out
        assert run(ws, "init") == 0
        out = capsys.readouterr().out
        assert "0 tables created" in out and "migrated" not in out

    def test_unreachable_store(self, ws, capsys):
        add_cfg(ws, store_path=str(ws / "missing" / "dir" / "x.db"))
        assert run(ws, "init") == 2
        assert "error" in capsys.readouterr().err


class TestConfig:
    def test_unknown_key_rejected(self, ws, capsys):
        add_cfg(ws, not_a_setting="1")
        assert run(ws, "init") == 1
        assert "unknown setting" in capsys.readouterr().err

    def test_missing_path_rejected(self, ws, capsys):
        add_cfg(ws, lexicon_terms=str(ws / "nope.tsv"))
        assert run(ws, "init") == 1
        assert "do not exist" in capsys.readouterr().err

    def test_env_override(self, ws, tmp_path, monkeypatch, capsys):
        other = tmp_path / "elsewhere.db"
        monkeypatch.setenv("ANNOKIT_STORE_PATH", str(other))
        assert run(ws, "init") == 0
        assert other.exists()

    def test_bad_numeric(self, ws, capsys):
        add_cfg(ws, min_support="0")
        assert run(ws, "init") == 1
        assert "positive" in capsys.readouterr().err

    def test_abbreviations_file(self, ws):
        path = ws / "abbreviations.txt"
        path.write_text("# clinical shorthand\n\nPt.\n   q.d.\n"
                        "  # indented comment\n \t\nB.I.D.\n",
                        encoding="utf-8")
        add_cfg(ws, abbreviations=str(path))
        config = load_config(str(ws / "annokit.cfg"), env={})
        assert config.abbreviation_set() == {"pt.", "q.d.", "b.i.d."}

    @pytest.mark.parametrize("flag", ["--min-support", "--max-nodes"])
    def test_zero_flag_is_rejected(self, ws, capsys, flag):
        assert run(ws, "graph-mine", "--input", write_graphs(ws),
                   flag, "0") == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "must be positive" in err

    def test_flag_beats_environment_beats_file(self, ws, monkeypatch,
                                               capsys):
        add_cfg(ws, min_support="3")
        graphs = write_graphs(ws)

        def mined_with():
            assert run(ws, "graph-mine", "--input", graphs, *flags) == 0
            out = capsys.readouterr().out
            return out.split("min_support=")[1].split(",")[0]

        flags = []
        assert mined_with() == "3"
        monkeypatch.setenv("ANNOKIT_MIN_SUPPORT", "4")
        assert mined_with() == "4"
        flags = ["--min-support", "5"]
        assert mined_with() == "5"

    def test_non_utf8_config_file_is_one_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("# caf\u00e9\nstore_path=x.db\n".encode("latin-1"))
        assert main(["--config", str(cfg), "init"]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and str(cfg) in err

    def test_non_utf8_lexicon_is_one_error_line(self, ws, capsys):
        run(ws, "init")
        terms = ws / "latin1-terms.tsv"
        terms.write_bytes("caf\u00e9\tC0000001\n".encode("latin-1"))
        add_cfg(ws, lexicon_terms=str(terms))
        assert run(ws, "run", write_doc(ws), "--stages",
                   "tokenize,concepts") == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and str(terms) in err

    @pytest.mark.parametrize("setting", ["jobs", "max_phrase_tokens"])
    def test_removed_setting_is_gone(self, ws, capsys, setting):
        flag = "--" + setting.replace("_", "-")
        assert run(ws, flag, "2", "init") == 1
        assert capsys.readouterr().err.startswith("usage: annokit")
        add_cfg(ws, **{setting: "12"})
        assert run(ws, "init") == 1
        assert f"unknown setting {setting!r}" in capsys.readouterr().err


class TestUsage:
    def test_unknown_flag_exits_1(self, ws, capsys):
        assert run(ws, "--bogus", "init") == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: annokit")
        assert "unrecognized arguments: --bogus" in err

    def test_non_integer_min_support_exits_1(self, ws, capsys):
        assert run(ws, "graph-mine", "--input", write_graphs(ws),
                   "--min-support", "two") == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "min_support must be an integer, got 'two'" in err

    @pytest.mark.parametrize("argv, message", [
        (["segments", "--doc", "doc1.txt", "--first", "5:x",
          "--second", "0:1"], "'5:x'"),
        (["import", "--annotations", "{ws}/deps.tsv"], "requires --doc"),
        (["run", "--stages", "sections", "{ws}/doc1.txt"], "guideline"),
        (["run", "--stages", "tokenize,sentences,concepts",
          "{ws}/doc1.txt"], "lexicon_terms"),
        (["instances", "--corpus", "notes", "--groundtruth", "1"],
         "needs --task and --label"),
        (["--convention", "sideways", "init"], "'sideways'"),
        (["--config", "{ws}/missing.cfg", "init"], "missing.cfg"),
        (["graph-mine", "--input", "{ws}/twice.tsv"], "line 3"),
    ], ids=["bad-span", "annotations-without-doc", "no-guideline",
            "no-lexicon", "groundtruth-without-label", "bad-convention",
            "missing-config", "node-listed-twice"])
    def test_error_exits_1_with_one_error_line(self, ws, capsys, argv,
                                               message):
        # blank and comment lines in the config file are skipped
        cfg = ws / "annokit.cfg"
        cfg.write_text("\n# a comment\n" + cfg.read_text(encoding="utf-8"),
                       encoding="utf-8")
        (ws / "deps.tsv").write_text(DEPS, encoding="utf-8")
        (ws / "twice.tsv").write_text("graph\t\tg\tt\nn\t0\tA\nn\t0\tB\n",
                                      encoding="utf-8")
        assert run(ws, "init") == 0
        assert run(ws, "import", write_doc(ws), "--corpus", "notes") == 0
        capsys.readouterr()
        assert run(ws, *(arg.format(ws=ws) for arg in argv)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("error:") == 1
        assert message in err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: annokit")


class TestImportAndRun:
    def test_import_documents(self, ws, capsys):
        run(ws, "init")
        path = write_doc(ws)
        assert run(ws, "import", path, "--corpus", "notes") == 0
        out = capsys.readouterr().out
        assert "doc1.txt: imported" in out
        assert run(ws, "import", path) == 0
        assert "skipped" in capsys.readouterr().out

    def test_repeated_name_keeps_the_first_copy(self, ws, capsys):
        run(ws, "init")
        (ws / "a").mkdir()
        (ws / "b").mkdir()
        first = write_doc(ws, "a/note.txt", "First copy.")
        second = write_doc(ws, "b/note.txt", "Second copy.")
        capsys.readouterr()
        assert run(ws, "import", first, second, "--corpus", "notes") == 0
        assert capsys.readouterr().out == (
            "note.txt: imported\nnote.txt: already in store, skipped\n")
        with CdmStore(str(ws / "store.db")) as store:
            doc = store.unmarshal_document(store.find_document("note.txt"))
        assert doc.content == "First copy."

    def test_non_utf8_document_is_one_error_line(self, ws, capsys):
        run(ws, "init")
        capsys.readouterr()
        path = ws / "latin1.txt"
        path.write_bytes("Patient seen at the caf\u00e9.\n".encode("latin-1"))
        assert run(ws, "import", str(path), write_doc(ws)) == 1
        out, err = capsys.readouterr()
        assert err.count("error:") == 1
        assert err.startswith("error: latin1.txt:") and "utf-8" in err
        assert "doc1.txt: imported" in out
        assert run(ws, "run", str(path), "--stages", "tokenize") == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert err.startswith("error: latin1.txt:") and "utf-8" in err
        assert run(ws, "import", "--inline", str(path)) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert err.startswith("error:") and "utf-8" in err

    def test_run_tokenize_sentences(self, ws, capsys):
        run(ws, "init")
        p1 = write_doc(ws)
        p2 = write_doc(ws, "doc2.txt", "One line here.\nAnother line.")
        assert run(ws, "run", p1, p2, "--stages",
                   "tokenize,sentences") == 0
        out = capsys.readouterr().out
        assert "doc1.txt:" in out and "doc2.txt:" in out
        store = CdmStore(str(ws / "store.db"))
        doc = store.unmarshal_document(store.find_document("doc1.txt"))
        assert len(doc.annotations("token")) == 10
        assert len(doc.annotations("sentence")) == 2
        store.close()

    def test_rerun_writes_nothing(self, ws, capsys):
        run(ws, "init")
        path = write_doc(ws)
        run(ws, "run", path, "--stages", "tokenize,sentences")
        capsys.readouterr()
        assert run(ws, "run", path, "--stages",
                   "tokenize,sentences") == 0
        out = capsys.readouterr().out
        assert "doc1.txt: 0 annotations written" in out
        assert "total: 0 annotations written" in out

    def test_concepts_without_tokens_is_a_gap(self, ws, capsys):
        run(ws, "init")
        terms = ws / "terms.tsv"
        terms.write_text(TERMS, encoding="utf-8")
        add_cfg(ws, lexicon_terms=str(terms))
        path = write_doc(ws)
        assert run(ws, "run", path, "--stages", "concepts") == 3
        assert "tokenize" in capsys.readouterr().err

    def test_concepts_without_sentences_is_a_gap(self, ws, capsys):
        # SP-POS needs tokens only: concepts run without sentences would
        # write it, count as run, and never tag a CUI on a later run
        run(ws, "init")
        terms = ws / "terms.tsv"
        terms.write_text(TERMS, encoding="utf-8")
        pos = ws / "pos.tsv"
        pos.write_text("express\tVB\n", encoding="utf-8")
        add_cfg(ws, lexicon_terms=str(terms), lexicon_pos=str(pos))
        path = write_doc(ws)
        assert run(ws, "run", path, "--stages", "tokenize,concepts") == 3
        assert "sentences" in capsys.readouterr().err
        assert run(ws, "run", path, "--stages", "sentences,concepts") == 0
        with CdmStore(str(ws / "store.db")) as store:
            doc = store.unmarshal_document(store.find_document("doc1.txt"))
        assert {a.value for a in doc.annotations("CUI")} == {
            "C0054946", "C0079744", "C0007634"}
        assert [a.value for a in doc.annotations("SP-POS")] == ["VB"]

    def test_unknown_stage(self, ws, capsys):
        run(ws, "init")
        path = write_doc(ws)
        assert run(ws, "run", path, "--stages", "lemmatize") == 1
        assert "unknown stages" in capsys.readouterr().err

    def test_concepts_pipeline(self, ws, capsys):
        run(ws, "init")
        terms = ws / "terms.tsv"
        terms.write_text(TERMS, encoding="utf-8")
        add_cfg(ws, lexicon_terms=str(terms))
        path = write_doc(ws)
        assert run(ws, "run", path, "--stages",
                   "tokenize,sentences,concepts") == 0
        store = CdmStore(str(ws / "store.db"))
        doc = store.unmarshal_document(store.find_document("doc1.txt"))
        cuis = {a.value for a in doc.annotations("CUI")}
        assert cuis == {"C0054946", "C0079744", "C0007634"}
        store.close()

    def test_concepts_tag_a_term_of_thirteen_tokens(self, ws):
        term = " ".join(f"w{k}" for k in range(13))
        run(ws, "init")
        terms = ws / "terms.tsv"
        terms.write_text(f"{term}\tC0000013\n", encoding="utf-8")
        add_cfg(ws, lexicon_terms=str(terms))
        path = write_doc(ws, text=f"Seen {term} today.")
        assert run(ws, "run", path, "--stages",
                   "tokenize,sentences,concepts") == 0
        with CdmStore(str(ws / "store.db")) as store:
            doc = store.unmarshal_document(store.find_document("doc1.txt"))
        assert [(a.value, doc.content[a.span.start:a.span.end])
                for a in doc.annotations("CUI")] == [("C0000013", term)]

    def test_graphs_need_dependencies(self, ws, capsys):
        run(ws, "init")
        terms = ws / "terms.tsv"
        terms.write_text(TERMS, encoding="utf-8")
        add_cfg(ws, lexicon_terms=str(terms))
        path = write_doc(ws)
        assert run(ws, "run", path, "--stages",
                   "tokenize,sentences,concepts,graphs") == 3
        assert "dependency" in capsys.readouterr().err

    def test_graphs_stage_and_idempotence(self, ws, capsys):
        run(ws, "init")
        terms = ws / "terms.tsv"
        terms.write_text(TERMS, encoding="utf-8")
        add_cfg(ws, lexicon_terms=str(terms))
        path = write_doc(ws)
        run(ws, "run", path, "--stages", "tokenize,sentences,concepts")
        deps = ws / "deps.tsv"
        deps.write_text(DEPS, encoding="utf-8")
        assert run(ws, "import", "--annotations", str(deps),
                   "--doc", "doc1.txt") == 0
        capsys.readouterr()
        assert run(ws, "run", path, "--stages", "graphs") == 0
        assert "2 graphs persisted" in capsys.readouterr().out
        # rerunning must not duplicate the graphs
        assert run(ws, "run", path, "--stages", "graphs") == 0
        store = CdmStore(str(ws / "store.db"))
        count = store.connection.execute(
            "SELECT COUNT(*) FROM graphs WHERE type = 'dependency'"
        ).fetchone()[0]
        assert count == 2
        store.close()

    def test_annotations_import_rerun_adds_nothing(self, ws, capsys):
        run(ws, "init")
        run(ws, "import", write_doc(ws))
        deps = ws / "deps.tsv"
        deps.write_text(DEPS, encoding="utf-8")
        argv = ["import", "--annotations", str(deps), "--doc", "doc1.txt"]
        capsys.readouterr()
        assert run(ws, *argv) == 0
        assert capsys.readouterr().out == \
            "2 annotations imported into doc1.txt\n"
        assert run(ws, *argv) == 0
        assert capsys.readouterr().out == \
            "0 annotations imported into doc1.txt\n"
        assert run(ws, "export", "--doc", "doc1.txt") == 0
        assert capsys.readouterr().out.count("\tdependency\t") == 2

    def test_graphs_stage_is_all_or_nothing(self, ws, capsys):
        run(ws, "init")
        terms = ws / "terms.tsv"
        terms.write_text(TERMS, encoding="utf-8")
        add_cfg(ws, lexicon_terms=str(terms))
        path = write_doc(ws, "d.txt", SENTENCE * 5)
        deps = ws / "d.deps"
        deps.write_text(sentence_deps("d.txt", 5), encoding="utf-8")
        run(ws, "import", path)
        run(ws, "import", "--annotations", str(deps), "--doc", "d.txt")
        with CdmStore(str(ws / "store.db")) as store:
            with store.connection:
                store.connection.execute(
                    "CREATE TRIGGER refuse BEFORE INSERT ON graphs"
                    " WHEN (SELECT COUNT(*) FROM graphs) >= 2"
                    " BEGIN SELECT RAISE(ABORT, 'refused'); END")
        capsys.readouterr()
        stages = "tokenize,sentences,concepts,graphs"
        assert run(ws, "run", path, "--stages", stages) == 2
        assert "refused" in capsys.readouterr().err
        with CdmStore(str(ws / "store.db")) as store:
            assert store.list_graphs() == []
            with store.connection:
                store.connection.execute("DROP TRIGGER refuse")
        assert run(ws, "run", path, "--stages", stages) == 0
        assert "5 graphs persisted" in capsys.readouterr().out
        with CdmStore(str(ws / "store.db")) as store:
            assert [name for _, name, _ in store.list_graphs()] == [
                f"d.txt:{n * len(SENTENCE)}-{n * len(SENTENCE) + 19}"
                for n in range(5)]

    def test_rerun_skips_stages_by_any_output_type(self, ws, capsys):
        run(ws, "init")
        guideline = ws / "guideline.xml"
        guideline.write_text(
            '<guideline name="g"><template name="marker">'
            '<pattern regex="CD\\d+"/></template></guideline>',
            encoding="utf-8")
        terms = ws / "terms.tsv"
        terms.write_text("absent term\tC0000001\n", encoding="utf-8")
        pos = ws / "pos.tsv"
        pos.write_text("express\tVB\n", encoding="utf-8")
        add_cfg(ws, guideline=str(guideline), lexicon_terms=str(terms),
                lexicon_pos=str(pos))
        path = write_doc(ws)
        stages = "tokenize,sentences,sections,concepts"
        assert run(ws, "run", path, "--stages", stages) == 0
        capsys.readouterr()
        assert run(ws, "run", path, "--stages", stages) == 0
        assert "doc1.txt: 0 annotations written" in capsys.readouterr().out
        with CdmStore(str(ws / "store.db")) as store:
            doc = store.unmarshal_document(store.find_document("doc1.txt"))
        assert [a.value for a in doc.annotations("template")] == ["marker"]
        assert [a.value for a in doc.annotations("SP-POS")] == ["VB"]
        assert doc.annotations("section") == doc.annotations("CUI") == []

    def test_sections_store_the_same_after_an_earlier_run(self, tmp_path):
        """A section's parent is stored by its durable id, whichever run
        wrote the sections."""
        dumps = []
        for n, steps in enumerate((
                ["tokenize,sentences,sections"],
                ["tokenize,sentences", "tokenize,sentences,sections"])):
            (tmp_path / str(n)).mkdir()
            ws = workspace(tmp_path / str(n))
            run(ws, "init")
            add_guideline(ws)
            path = write_doc(ws)
            for stages in steps:
                assert run(ws, "run", path, "--stages", stages) == 0
            dumps.append(store_dump(ws))
        assert dumps[0] == dumps[1]
        with CdmStore(str(ws / "store.db")) as store:
            doc = store.unmarshal_document(store.find_document("doc1.txt"))
        parent, child = doc.annotations("section")
        assert (parent.value, child.value) == ("opening", "finding")
        assert child.attributes["parent"] == str(parent.id)

    def test_graphs_found_by_exact_name(self, ws, capsys):
        run(ws, "init")
        terms = ws / "terms.tsv"
        terms.write_text(TERMS, encoding="utf-8")
        add_cfg(ws, lexicon_terms=str(terms))
        names = ("a:b", "a")
        paths = [write_doc(ws, name, SENTENCE) for name in names]
        run(ws, "import", *paths)
        for name in names:
            deps = ws / f"{name}.deps"
            deps.write_text(sentence_deps(name, 1), encoding="utf-8")
            run(ws, "import", "--annotations", str(deps), "--doc", name)
        stages = "tokenize,sentences,concepts,graphs"
        assert run(ws, "run", *paths, "--stages", stages) == 0
        with CdmStore(str(ws / "store.db")) as store:
            assert [name for _, name, _ in store.list_graphs()] == [
                "a:b:0-19", "a:0-19"]
        capsys.readouterr()
        assert run(ws, "run", *paths, "--stages", stages) == 0
        assert "graphs persisted" not in capsys.readouterr().out
        with CdmStore(str(ws / "store.db")) as store:
            assert len(store.list_graphs()) == 2

    def test_run_reports_in_argument_order(self, ws, capsys):
        run(ws, "init")
        paths = [write_doc(ws, f"d{i}.txt", f"Note {i} text.")
                 for i in range(3)]
        assert run(ws, "run", *paths, "--stages", "tokenize") == 0
        out = capsys.readouterr().out
        # report order follows the argument order, not completion order
        assert out.index("d0.txt") < out.index("d1.txt") < out.index("d2.txt")


class TestQuery:
    def setup_doc(self, ws):
        run(ws, "init")
        path = write_doc(ws)
        run(ws, "run", path, "--stages", "tokenize,sentences")

    def test_during_tokens(self, ws, capsys):
        self.setup_doc(ws)
        capsys.readouterr()
        assert run(ws, "query", "--doc", "doc1.txt", "--rel", "during",
                   "--start", "0", "--end", "19", "--type", "token") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["6\t13\ttoken\texpress", "14\t18\ttoken\tCD30"]

    def test_inclusive_display(self, ws, capsys):
        self.setup_doc(ws)
        capsys.readouterr()
        assert main(["--config", str(ws / "annokit.cfg"),
                     "--convention", "inclusive-1",
                     "query", "--doc", "doc1.txt", "--rel", "during",
                     "--start", "0", "--end", "19",
                     "--type", "token"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["7\t13\ttoken\texpress", "15\t18\ttoken\tCD30"]

    def test_unknown_relation(self, ws, capsys):
        self.setup_doc(ws)
        capsys.readouterr()
        assert run(ws, "query", "--doc", "doc1.txt", "--rel", "inside",
                   "--start", "0", "--end", "5") == 4
        err = capsys.readouterr().err
        assert "during" in err and "overlapped-by" in err

    def test_empty_result(self, ws, capsys):
        self.setup_doc(ws)
        capsys.readouterr()
        assert run(ws, "query", "--doc", "doc1.txt", "--rel", "before",
                   "--start", "0", "--end", "0") == 0
        assert capsys.readouterr().out == ""

    def test_missing_document(self, ws, capsys):
        self.setup_doc(ws)
        capsys.readouterr()
        assert run(ws, "query", "--doc", "ghost.txt", "--rel", "during",
                   "--start", "0", "--end", "5") == 1


class TestSegments:
    def test_partition_rows(self, ws, capsys):
        run(ws, "init")
        path = write_doc(ws)
        run(ws, "run", path, "--stages", "tokenize")
        capsys.readouterr()
        assert run(ws, "segments", "--doc", "doc1.txt",
                   "--first", "0:5", "--second", "14:18",
                   "--sentence", "0:19") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "preceding\t0\t0",
            "concept1\t0\t5",
            "between\t5\t14",
            "concept2\t14\t18",
            "succeeding\t18\t19",
        ]

    def test_overlap_is_failure(self, ws, capsys):
        run(ws, "init")
        path = write_doc(ws)
        run(ws, "run", path, "--stages", "tokenize")
        capsys.readouterr()
        assert run(ws, "segments", "--doc", "doc1.txt",
                   "--first", "0:10", "--second", "5:15") == 1
        assert "overlap" in capsys.readouterr().err


class TestConvert:
    def test_figure_table_and_files(self, ws, capsys):
        src = ws / "fig2.xml"
        src.write_text(FIG2, encoding="utf-8")
        assert main(["--config", str(ws / "annokit.cfg"),
                     "--convention", "inclusive-1",
                     "convert", str(src)]) == 0
        out = capsys.readouterr().out
        assert "Start\tEnd\tAnnotation Type\tAnnotation Attribute" in out
        assert "48\t83\tPHI\tType=Hospital" in out
        assert "88\t95\tPHI\tType=Date" in out
        plain = (ws / "fig2.txt").read_text(encoding="utf-8")
        assert plain[47:83] == "Beth Israel Deaconess Medical Center"
        ann_lines = (ws / "fig2.ann").read_text(
            encoding="utf-8").splitlines()
        assert ann_lines[0].startswith("# doc")
        assert len(ann_lines) == 3

    def test_tag_free_input(self, ws, capsys):
        src = ws / "plain.xml"
        src.write_text("nothing tagged here", encoding="utf-8")
        assert run(ws, "convert", str(src)) == 0
        ann_lines = (ws / "plain.ann").read_text(
            encoding="utf-8").splitlines()
        assert len(ann_lines) == 1  # header only

    def test_truncated_xml(self, ws, capsys):
        src = ws / "bad.xml"
        src.write_text('<PHI TYPE="Hospital">unclosed', encoding="utf-8")
        assert run(ws, "convert", str(src)) == 5
        assert "offset" in capsys.readouterr().err

    def test_record_splitting(self, ws, capsys):
        src = ws / "corpus.xml"
        src.write_text(
            "<ROOT><RECORD ID=\"a\"><TEXT>First <PHI TYPE=\"Date\">"
            "May 1</PHI>.</TEXT></RECORD>"
            "<RECORD ID=\"b\"><TEXT>Second.</TEXT></RECORD></ROOT>",
            encoding="utf-8")
        assert run(ws, "convert", str(src),
                   "--record-element", "RECORD") == 0
        assert (ws / "corpus-a.txt").exists()
        assert (ws / "corpus-b.txt").exists()
        assert "May 1" in (ws / "corpus-a.txt").read_text(encoding="utf-8")

    def test_records_that_would_write_the_same_files(self, ws, capsys):
        src = ws / "m.xml"
        src.write_text(
            "<ROOT><RECORD ID=\"a\"><TEXT>First.</TEXT></RECORD>"
            "<RECORD ID=\"b\"><TEXT>Other.</TEXT></RECORD>"
            "<RECORD ID=\"a\"><TEXT>Second.</TEXT></RECORD></ROOT>",
            encoding="utf-8")
        before = sorted(ws.iterdir())
        assert run(ws, "convert", str(src),
                   "--record-element", "RECORD") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "m-a.txt" in captured.err
        assert sorted(ws.iterdir()) == before

    @pytest.mark.parametrize("name", ["note.txt", "note.ann"])
    def test_refuses_to_overwrite_its_input(self, ws, capsys, name):
        src = ws / name
        src.write_text('Seen at <PHI TYPE="Hospital">BIDMC</PHI>.',
                       encoding="utf-8")
        before = snapshot(ws)
        assert run(ws, "convert", str(src)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "input" in captured.err
        assert snapshot(ws) == before

    @pytest.mark.parametrize("record_id",
                             ["x/../../../pwn", "../esc", "..", "."])
    def test_record_ids_that_name_a_path(self, ws, capsys, record_id):
        out = ws / "d1" / "d2" / "out"
        (out / "m-x").mkdir(parents=True)
        src = ws / "m.xml"
        src.write_text(
            "<ROOT><RECORD ID=\"ok\"><TEXT>First.</TEXT></RECORD>"
            f"<RECORD ID=\"{record_id}\"><TEXT>Second.</TEXT></RECORD>"
            "</ROOT>", encoding="utf-8")
        before = snapshot(ws)
        assert run(ws, "convert", str(src), "--out-dir", str(out),
                   "--record-element", "RECORD") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert repr(record_id) in captured.err
        assert snapshot(ws) == before


class TestExportAndInline:
    def test_export_stdout(self, ws, capsys):
        run(ws, "init")
        path = write_doc(ws)
        run(ws, "run", path, "--stages", "tokenize")
        capsys.readouterr()
        assert run(ws, "export", "--doc", "doc1.txt",
                   "--type", "token") == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].startswith("# doc")
        assert len(lines) == 11
        assert "10 annotations exported" in captured.err

    def test_export_file(self, ws, capsys):
        run(ws, "init")
        path = write_doc(ws)
        run(ws, "run", path, "--stages", "tokenize")
        out = ws / "dump.tsv"
        assert run(ws, "export", "--doc", "doc1.txt",
                   "--out", str(out)) == 0
        assert out.read_text(encoding="utf-8").startswith("# doc")

    def test_inline_corpus_import(self, ws, capsys):
        run(ws, "init")
        src = ws / "corpus.xml"
        src.write_text(
            "<ROOT><RECORD ID=\"r1\"><TEXT>Seen at <PHI TYPE=\"Hospital\">"
            "BIDMC</PHI>.</TEXT></RECORD>"
            "<RECORD ID=\"r2\"><TEXT>Fine.</TEXT></RECORD></ROOT>",
            encoding="utf-8")
        assert run(ws, "import", "--inline", str(src),
                   "--corpus", "phi") == 0
        assert "2 documents imported" in capsys.readouterr().out
        assert run(ws, "query", "--doc", "r1", "--rel", "during",
                   "--start", "0", "--end", "15", "--type", "PHI") == 0
        assert "PHI\tHospital" in capsys.readouterr().out

    def test_interrupted_inline_import_converges(self, ws, capsys):
        run(ws, "init")
        src = ws / "ward.xml"
        src.write_text("<ROOT>" + "".join(
            f'<RECORD ID="r{n}"><TEXT>Note {n}.</TEXT></RECORD>'
            for n in range(1, 5)) + "</ROOT>", encoding="utf-8")
        with CdmStore(str(ws / "store.db")) as store:
            with store.connection:
                store.connection.execute(
                    "CREATE TRIGGER refuse BEFORE INSERT ON corpora_documents"
                    " WHEN (SELECT COUNT(*) FROM corpora_documents) = 2"
                    " BEGIN SELECT RAISE(ABORT, 'refused'); END")
        argv = ["import", "--inline", str(src), "--corpus", "ward"]
        assert run(ws, *argv) == 2
        with CdmStore(str(ws / "store.db")) as store:
            with store.connection:
                store.connection.execute("DROP TRIGGER refuse")
        capsys.readouterr()
        assert run(ws, *argv) == 0
        assert capsys.readouterr().out == f"4 documents imported from {src}\n"
        assert run(ws, "instances", "--corpus", "ward",
                   "--create-documents") == 0
        assert capsys.readouterr().out == "4 instances created\n"


class TestGraphMine:
    def test_mine_from_file(self, ws, capsys):
        graphs = ws / "graphs.tsv"
        graphs.write_text(
            "graph\t\tg1\tdependency\nn\t0\tcells\nn\t1\texpress\n"
            "e\t1\t0\tnsubj\n"
            "graph\t\tg2\tdependency\nn\t0\tcells\nn\t1\texpress\n"
            "e\t1\t0\tnsubj\n", encoding="utf-8")
        out = ws / "patterns.tsv"
        assert run(ws, "graph-mine", "--input", str(graphs),
                   "--min-support", "2", "--max-nodes", "2",
                   "--out", str(out)) == 0
        printed = capsys.readouterr().out
        assert "2 graphs mined" in printed
        assert "support=2" in printed
        assert out.read_text(encoding="utf-8").count("graph\t") == 3

    def test_two_cycle_output(self, ws, capsys):
        graphs = ws / "cycles.tsv"
        graphs.write_text("".join(
            f"graph\t\t{name}\tdependency\nn\t0\ta\nn\t1\tb\n"
            "e\t0\t1\tx\ne\t1\t0\ty\n" for name in ("g1", "g2")),
            encoding="utf-8")
        assert run(ws, "graph-mine", "--input", str(graphs),
                   "--min-support", "2", "--max-nodes", "3") == 0
        assert capsys.readouterr().out == (
            "2 graphs mined, 5 patterns (min_support=2, max_nodes=3)\n"
            "pattern 0: support=2 graphs=[0,1] a#\n"
            "pattern 1: support=2 graphs=[0,1] b#\n"
            "pattern 2: support=2 graphs=[0,1] a,b#0>1:x\n"
            "pattern 3: support=2 graphs=[0,1] a,b#0>1:x;1>0:y\n"
            "pattern 4: support=2 graphs=[0,1] a,b#1>0:y\n")

    def test_mine_from_store_persists(self, ws, capsys):
        run(ws, "init")
        terms = ws / "terms.tsv"
        terms.write_text(TERMS, encoding="utf-8")
        add_cfg(ws, lexicon_terms=str(terms))
        path = write_doc(ws)
        run(ws, "run", path, "--stages", "tokenize,sentences,concepts")
        deps = ws / "deps.tsv"
        deps.write_text(DEPS, encoding="utf-8")
        run(ws, "import", "--annotations", str(deps), "--doc", "doc1.txt")
        run(ws, "run", path, "--stages", "graphs")
        capsys.readouterr()
        assert run(ws, "graph-mine", "--min-support", "1",
                   "--max-nodes", "2") == 0
        printed = capsys.readouterr().out
        assert "persisted" in printed
        store = CdmStore(str(ws / "store.db"))
        n_sig = store.connection.execute(
            "SELECT COUNT(*) FROM sig_subgraph").fetchone()[0]
        n_map = store.connection.execute(
            "SELECT COUNT(*) FROM lg_sigsub").fetchone()[0]
        assert n_sig > 0
        assert n_map > 0
        store.close()

    def mine_stored(self, ws, graphs, options):
        """Store the graphs, run graph-mine over them, and return the
        sig_subgraph and lg_sigsub rows."""
        run(ws, "init")
        with CdmStore(str(ws / "store.db")) as store:
            persist_graphs(store, [LabeledGraph(
                nodes=list(labels), edges=edges, name=f"g{n}",
                graph_type="dependency")
                for n, (labels, edges) in enumerate(graphs)])
        assert run(ws, "graph-mine", *options) == 0
        return mining_rows(ws)

    def test_listing_and_persisting_read_the_mined_codes(
            self, ws, capsys, monkeypatch):
        """Each pattern is coded once, while it is mined: once mining has
        returned, the listing, the stored names and the --out file make
        no canonical_code call."""
        mine = graph_tools.mine_frequent_subgraphs

        def forbidden(graph):
            raise AssertionError("canonical_code called after mining")

        def mine_then_forbid(*args, **kwargs):
            results = mine(*args, **kwargs)
            assert [r.code for r in results] == [
                graph_tools.canonical_code(r.pattern) for r in results]
            monkeypatch.setattr(graph_tools, "canonical_code", forbidden)
            return results

        monkeypatch.setattr(graph_tools, "mine_frequent_subgraphs",
                            mine_then_forbid)
        out = ws / "patterns.tsv"
        self.mine_stored(
            ws, [("aba", [(0, 1, "x"), (2, 1, "x")]), ("ba", [(1, 0, "x")])],
            ["--min-support", "1", "--max-nodes", "3", "--out", str(out)])
        listed = [line.rsplit(" ", 1)[1]
                  for line in capsys.readouterr().out.splitlines()
                  if line.startswith("pattern ")]
        with CdmStore(str(ws / "store.db")) as store:
            names = [name for name, in store.connection.execute(
                "SELECT name FROM graphs WHERE type = 'sig_subgraph'"
                " ORDER BY id")]
        assert len(listed) > 3
        assert names == [f"pattern-{code}" for code in listed]
        assert [g.name for g in graph_tools.read_graph_file(str(out))] \
            == names

    def test_stored_mining_rows(self, ws, capsys):
        sig_subgraph, lg_sigsub = self.mine_stored(
            ws, [("aba", [(0, 1, "x"), (2, 1, "x")]), ("ba", [(1, 0, "x")])],
            ["--min-support", "2", "--max-nodes", "2"])
        assert capsys.readouterr().out.endswith(
            "persisted 3 patterns, 8 embeddings\n")
        assert sig_subgraph == [(1, 3, 2, '{"graph_ids":"1,2"}'),
                                (2, 4, 2, '{"graph_ids":"1,2"}'),
                                (3, 5, 2, '{"graph_ids":"1,2"}')]
        assert lg_sigsub == [(1, 1, '{"0":"0"}'), (1, 1, '{"0":"2"}'),
                             (2, 1, '{"0":"1"}'),
                             (1, 2, '{"0":"1"}'), (2, 2, '{"0":"0"}'),
                             (1, 3, '{"0":"0","1":"1"}'),
                             (1, 3, '{"0":"2","1":"1"}'),
                             (2, 3, '{"0":"1","1":"0"}')]

    def test_rerun_replaces_results(self, ws, capsys):
        options = ["--min-support", "3", "--max-nodes", "3"]
        first = self.mine_stored(
            ws, [("abc", [(0, 1, "x"), (0, 2, "y")])] * 3, options)
        assert [len(rows) for rows in first] == [6, 18]
        assert run(ws, "graph-mine", *options) == 0
        assert mining_rows(ws) == first

    def test_failed_out_leaves_the_store_unchanged(self, ws, capsys):
        """An --out destination that cannot be opened fails the run before
        the store write, so the results stored before stay."""
        self.mine_stored(ws, [("aba", [(0, 1, "x"), (2, 1, "x")]),
                              ("ba", [(1, 0, "x")])],
                         ["--min-support", "2", "--max-nodes", "1"])
        stored = store_dump(ws)
        capsys.readouterr()
        assert run(ws, "graph-mine", "--min-support", "2", "--max-nodes",
                   "2", "--out", str(ws)) == 1
        assert "error:" in capsys.readouterr().err
        assert store_dump(ws) == stored

    def test_failed_store_write_leaves_the_out_file(self, ws, capsys):
        out = ws / "patterns.tsv"
        self.mine_stored(ws, [("ab", [(0, 1, "x")])] * 2,
                         ["--min-support", "2", "--out", str(out)])
        written = out.read_text(encoding="utf-8")
        assert written.count("graph\t") == 3
        with CdmStore(str(ws / "store.db")) as store, store.connection:
            store.connection.execute(
                "CREATE TRIGGER refuse BEFORE INSERT ON lg_sigsub"
                " BEGIN SELECT RAISE(ABORT, 'refused'); END")
        assert run(ws, "graph-mine", "--min-support", "1",
                   "--out", str(out)) == 2
        assert out.read_text(encoding="utf-8") == written
        capsys.readouterr()
        assert run(ws, "graph-mine", "--min-support", "2", "--no-persist",
                   "--out", str(out)) == 0
        assert out.read_text(encoding="utf-8").count("graph\t") == 3

    def test_store_and_file_print_the_same_patterns(self, ws, capsys):
        run(ws, "init")
        stored = [LabeledGraph(nodes=list(labels), edges=edges,
                               name=f"g{n}", graph_type="dependency")
                  for n, (labels, edges) in enumerate([
                      ("abc", [(0, 1, "x"), (0, 2, "y")]),
                      ("abca", [(0, 1, "x"), (0, 2, "y"), (2, 3, "x")]),
                      ("ba", [(1, 0, "x")]),
                      ("abc", [(0, 1, "x")]),
                      ("c", []),
                      ("acb", [(0, 2, "x"), (1, 0, "y")])])]
        with CdmStore(str(ws / "store.db")) as store:
            persist_graphs(store, stored)
            persist_graphs(store, [LabeledGraph(
                nodes=["a", "b"], edges=[(0, 1, "x")], name="other",
                graph_type="pattern")])
        graph_file = ws / "graphs.tsv"
        write_graph_file(stored, str(graph_file))
        options = ["--min-support", "2", "--max-nodes", "3", "--no-persist"]
        capsys.readouterr()
        assert run(ws, "graph-mine", *options) == 0
        from_store = capsys.readouterr().out.splitlines()
        assert run(ws, "graph-mine", "--input", str(graph_file),
                   *options) == 0
        from_file = capsys.readouterr().out.splitlines()
        assert from_store[0].startswith("6 graphs mined")
        patterns = [line for line in from_store if line.startswith("pattern")]
        assert len(patterns) > 3
        assert patterns == [line for line in from_file
                            if line.startswith("pattern")]


class TestInstances:
    def test_lifecycle(self, ws, capsys):
        run(ws, "init")
        p1 = write_doc(ws)
        p2 = write_doc(ws, "doc2.txt", "Second note.")
        run(ws, "import", p1, p2, "--corpus", "notes")
        capsys.readouterr()
        assert run(ws, "instances", "--corpus", "notes",
                   "--create-documents") == 0
        assert "2 instances created" in capsys.readouterr().out
        assert run(ws, "instances", "--corpus", "notes",
                   "--groundtruth", "1", "--task", "subtype",
                   "--label", "DLBCL") == 0
        capsys.readouterr()
        assert run(ws, "instances", "--corpus", "notes") == 0
        out = capsys.readouterr().out
        assert "1\tdocument\tsubtype=DLBCL" in out
        assert "2\tdocument" in out
        assert run(ws, "instances", "--corpus", "notes",
                   "--make-set", "train", "--purpose", "training") == 0
        assert "2 members" in capsys.readouterr().out

    def test_create_documents_rerun_creates_none(self, ws, capsys):
        run(ws, "init")
        paths = [write_doc(ws, f"doc{n}.txt", f"Note {n}.")
                 for n in range(3)]
        run(ws, "import", *paths[:2], "--corpus", "notes")
        capsys.readouterr()
        assert run(ws, "instances", "--corpus", "notes",
                   "--create-documents") == 0
        assert capsys.readouterr().out == "2 instances created\n"
        assert run(ws, "instances", "--corpus", "notes",
                   "--create-documents") == 0
        assert capsys.readouterr().out == "0 instances created\n"
        run(ws, "import", paths[2], "--corpus", "notes")
        capsys.readouterr()
        assert run(ws, "instances", "--corpus", "notes",
                   "--create-documents") == 0
        assert capsys.readouterr().out == "1 instances created\n"
        assert run(ws, "instances", "--corpus", "notes") == 0
        assert capsys.readouterr().out.splitlines() == [
            "1\tdocument", "2\tdocument", "3\tdocument"]
        with CdmStore(str(ws / "store.db")) as store:
            assert store.connection.execute(
                "SELECT content_id FROM instances_content"
                " ORDER BY instance_id").fetchall() == [(1,), (2,), (3,)]

    def test_unknown_corpus(self, ws, capsys):
        run(ws, "init")
        assert run(ws, "instances", "--corpus", "ghost") == 1

    def test_non_integer_ids_is_one_error_line(self, ws, capsys):
        run(ws, "init")
        run(ws, "import", write_doc(ws), "--corpus", "notes")
        run(ws, "instances", "--corpus", "notes", "--create-documents")
        capsys.readouterr()
        assert run(ws, "instances", "--corpus", "notes", "--make-set", "s",
                   "--ids", "1,x") == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "'1,x'" in err


class TestStoredDataThatIsNotAnObject:
    """A stored annotation whose ``data`` column someone else rewrote."""

    def stored_with_data(self, ws, text):
        assert run(ws, "init") == 0
        assert run(ws, "run", write_doc(ws), "--stages",
                   "tokenize,sentences") == 0
        with contextlib.closing(sqlite3.connect(ws / "store.db")) as conn:
            with conn:
                conn.execute("UPDATE annotations SET data = ? WHERE id ="
                             " (SELECT min(id) FROM annotations)", (text,))

    @pytest.mark.parametrize("argv", [
        ["export", "--doc", "doc1.txt"],
        ["query", "--doc", "doc1.txt", "--rel", "during", "--start", "0",
         "--end", "5"],
        ["run", "DOC", "--stages", "tokenize"],
    ], ids=["export", "query", "run"])
    def test_undecodable_data_exits_2_with_one_error_line(self, ws, capsys,
                                                          argv):
        self.stored_with_data(ws, '{"ordinal":')
        capsys.readouterr()
        argv = [write_doc(ws) if arg == "DOC" else arg for arg in argv]
        assert run(ws, *argv) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.err == ("error: Expecting value:"
                                " line 1 column 12 (char 11)\n")
        assert captured.out == ""

    def test_data_that_is_not_an_object_is_not_exported(self, ws, capsys):
        self.stored_with_data(ws, "[1]")
        capsys.readouterr()
        out = ws / "dump.tsv"
        assert run(ws, "export", "--doc", "doc1.txt", "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err.count("error:") == 1
        assert "cannot be exported" in captured.err
        assert "list, not a dict" in captured.err
        assert not out.exists()


class TestStoreWithoutSchema:
    @pytest.mark.parametrize("argv", [
        ["query", "--doc", "doc1.txt", "--rel", "during", "--start", "0",
         "--end", "5"],
        ["segments", "--doc", "doc1.txt", "--first", "0:5",
         "--second", "6:13"],
        ["export", "--doc", "doc1.txt"],
        ["instances", "--corpus", "notes"],
        ["graph-mine", "--min-support", "1"],
        ["run", "DOC", "--stages", "tokenize"],
        ["import", "--annotations", "DEPS", "--doc", "doc1.txt"],
    ], ids=["query", "segments", "export", "instances", "graph-mine", "run",
            "import-annotations"])
    def test_exit_2_with_one_error_line(self, ws, capsys, argv):
        deps = ws / "deps.tsv"
        deps.write_text(DEPS, encoding="utf-8")
        given = {"DOC": write_doc(ws), "DEPS": str(deps)}
        assert run(ws, *[given.get(arg, arg) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("error:") == 1
        assert err.startswith("error:") and "no such table" in err


class TestStoreBeforeProvenanceColumn:
    """A store written when provenance rode inside ``data``."""

    @pytest.mark.parametrize("argv", [
        ["query", "--doc", "doc1.txt", "--rel", "during", "--start", "0",
         "--end", "5"],
        ["segments", "--doc", "doc1.txt", "--first", "0:5",
         "--second", "6:13"],
        ["export", "--doc", "doc1.txt"],
        ["run", "DOC", "--stages", "tokenize,sentences"],
        ["import", "--annotations", "DEPS", "--doc", "doc1.txt"],
        ["import", "--inline", "INLINE"],
    ], ids=["query", "segments", "export", "run", "import-annotations",
            "import-inline"])
    def test_exit_2_says_to_run_init_which_migrates(self, ws, capsys, argv):
        deps = ws / "deps.tsv"
        deps.write_text(DEPS, encoding="utf-8")
        inline = ws / "fig2.xml"
        inline.write_text(FIG2, encoding="utf-8")
        given = {"DOC": write_doc(ws), "DEPS": str(deps),
                 "INLINE": str(inline)}
        argv = [given.get(arg, arg) for arg in argv]
        assert run(ws, "init") == 0
        assert run(ws, "run", given["DOC"], "--stages", "tokenize") == 0
        capsys.readouterr()
        assert run(ws, "export", "--doc", "doc1.txt") == 0
        exported = capsys.readouterr().out
        with contextlib.closing(sqlite3.connect(ws / "store.db")) as conn:
            moved, = conn.execute("SELECT count(*) FROM annotations"
                                  " WHERE provenance != ''").fetchone()
            with conn:
                conn.execute("UPDATE annotations SET data = json_set(data,"
                             " '$._provenance', provenance)"
                             " WHERE provenance != ''")
                conn.execute("ALTER TABLE annotations DROP COLUMN provenance")
        old = dump(ws)
        assert run(ws, *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("error:") == 1
        assert "run `annokit init`" in err and "no such column" not in err
        assert dump(ws) == old
        assert run(ws, "init") == 0
        assert capsys.readouterr().out.splitlines() == [
            "0 tables created",
            f"migrated: {moved} provenances moved to their own column"]
        assert run(ws, *argv) == 0
        if argv[0] == "export":
            assert capsys.readouterr().out == exported

    @pytest.mark.parametrize("message", [
        "refused provenance",
        "NOT NULL constraint failed: annotations.provenance"])
    def test_any_other_provenance_error_stays_a_store_error(
            self, ws, capsys, message):
        assert run(ws, "init") == 0
        with contextlib.closing(sqlite3.connect(ws / "store.db")) as conn:
            conn.execute("CREATE TRIGGER refuse BEFORE INSERT ON annotations"
                         f" BEGIN SELECT RAISE(ABORT, '{message}'); END")
        capsys.readouterr()
        assert run(ws, "run", write_doc(ws), "--stages", "tokenize") == 2
        err = capsys.readouterr().err
        assert message in err and "annokit init" not in err


SENTENCE = "Cells express CD30. "


def sentence_deps(name, count):
    """Dependency lines for ``count`` repetitions of SENTENCE."""
    lines = []
    for n in range(count):
        at = n * len(SENTENCE)
        for label, dep_start, dep_end in (("nsubj", 0, 5), ("dobj", 14, 18)):
            lines.append(
                f"{name}\t{at + 6}\t{at + 13}\tdependency\t{label}\t"
                f"head_start={at + 6};head_end={at + 13};"
                f"dependent_start={at + dep_start};"
                f"dependent_end={at + dep_end}\n")
    return "".join(lines)


def session(ws):
    """Every command of a session over text files and an inline corpus,
    from import through the sections, concepts and graphs stages to
    mining."""
    paths = [write_doc(ws), write_doc(ws, "doc2.txt", "One line.\nTwo.")]
    src = ws / "ward.xml"
    src.write_text("<ROOT>" + "".join(
        f'<RECORD ID="r{n}"><TEXT>Seen at <PHI TYPE="Hospital">BIDMC'
        f"</PHI> on day {n}.</TEXT></RECORD>" for n in range(1, 4))
        + "</ROOT>", encoding="utf-8")
    terms = ws / "terms.tsv"
    terms.write_text(TERMS, encoding="utf-8")
    add_cfg(ws, lexicon_terms=str(terms))
    add_guideline(ws)
    deps = ws / "deps.tsv"
    deps.write_text(sentence_deps("doc1.txt", 1), encoding="utf-8")
    documents = [*paths, "r1", "r2", "r3"]
    return [["init"], ["import", *paths, "--corpus", "notes"],
            ["import", "--inline", str(src), "--corpus", "notes"],
            ["run", *documents, "--stages", "tokenize,sentences,sections"],
            ["instances", "--corpus", "notes", "--create-documents"],
            ["run", *documents, "--stages", "tokenize,sentences,concepts"],
            ["import", "--annotations", str(deps), "--doc", "doc1.txt"],
            ["run", paths[0], "--stages", "graphs"],
            ["graph-mine", "--min-support", "1"]]


def dump(ws):
    with contextlib.closing(sqlite3.connect(ws / "store.db")) as conn:
        return list(conn.iterdump())


@contextlib.contextmanager
def scratch_workspace():
    """The ``ws`` fixture's workspace, for use inside a hypothesis test."""
    with tempfile.TemporaryDirectory() as tmp:
        yield workspace(pathlib.Path(tmp))


@functools.cache
def clean_dump():
    with scratch_workspace() as ws:
        for argv in session(ws):
            assert run(ws, *argv) == 0
        return dump(ws)


# The session takes about 420 ticks of 20 sqlite VM steps.
@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=450))
def test_session_interrupted_at_any_tick_converges_on_rerun(tick):
    """Abort the session's sqlite work at one tick and stop there, as a
    crash would; rerunning every command must leave the store the clean
    session leaves."""
    ticks = itertools.count(1)
    open_store = cli._open_store

    def interrupting(config):
        store = open_store(config)
        store.connection.set_progress_handler(
            lambda: next(ticks) == tick, 20)
        return store

    with scratch_workspace() as ws:
        commands = session(ws)
        with mock.patch.object(cli, "_open_store", interrupting):
            for argv in commands:
                if run(ws, *argv) != 0:
                    break
        for argv in commands:
            assert run(ws, *argv) == 0
        assert dump(ws) == clean_dump()
