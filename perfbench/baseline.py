"""Regenerate the numbers of the ROADMAP "Baseline" section.

    python3 perfbench/baseline.py [--seed 1]

Every bullet of that section is measured again here at the sizes it
states, from generated inputs, and printed as ``baseline.<name> = value
unit`` lines followed by one JSON object. None of these numbers is gated;
they are layer numbers to compare by hand. The defects are reported as
1 when they still reproduce and 0 when they do not. Takes about a
minute on a 2-core machine.
"""

import argparse
import io
import json
import os
import random
import shutil
import sqlite3
import sys
import time

import run


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def one_document(rng, out):
    """~186k characters and ~40k annotations: add its tokens, marshal,
    unmarshal (with the tree.insert share) and a one-dirty checkpoint."""
    import gen
    import tracing
    from annokit import concepts, documents, sections
    from annokit.documents import Document
    from annokit.store import CdmStore
    lexicon = gen.make_lexicon(rng, 800)
    note = gen.make_note(rng, "big.txt", lexicon, 28800)
    loaded = concepts.load_lexicon(
        io.StringIO(lexicon.term_file()), io.StringIO(lexicon.tui_file()),
        io.StringIO(lexicon.pos_file()),
        io.StringIO(lexicon.function_word_file()))
    doc = Document(note.name, note.text)
    tokens = documents.tokenize(doc)
    seconds, _ = timed(lambda: [doc.add_annotation(a) for a in tokens])
    out["doc.add_tokens_s"] = (seconds, "s")
    out["doc.tokens"] = (len(tokens), "count")
    for ann in documents.split_sentences(doc):
        doc.add_annotation(ann)
    guideline = sections.parse_guideline(gen.GUIDELINE_XML)
    sections.detect_sections(doc, guideline)
    sections.match_templates(doc, guideline)
    for sentence in doc.annotations("sentence"):
        concepts.annotate_concepts(doc, sentence, loaded)
    concepts.annotate_tuis(doc, loaded)
    concepts.annotate_sp_pos(doc, loaded)
    out["doc.chars"] = (len(doc.content), "count")
    out["doc.annotations"] = (len(doc.index), "count")
    with CdmStore(":memory:") as store:
        store.init_schema()
        out["doc.marshal_s"] = (timed(store.marshal_document, doc)[0], "s")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            seconds, clone = timed(store.unmarshal_document, doc.id)
        finally:
            tracer.uninstall()
        layers = tracer.metrics()
        seconds, clone = timed(store.unmarshal_document, doc.id)
        out["doc.unmarshal_s"] = (seconds, "s")
        insert = layers["tree.insert.self_s"]
        out["doc.unmarshal_tree_insert_share"] = (
            insert / (insert + layers["store.unmarshal.self_s"]), "ratio")
        cui = clone.annotations("CUI")[0]
        clone.update_annotation(cui.id, value=cui.value + "x")
        out["doc.checkpoint_one_dirty_s"] = (
            timed(store.checkpoint, clone)[0], "s")


def pipeline(rng, workdir, out):
    """``annokit run`` over 16 documents of ~5.2k tokens, stages
    tokenize,sentences,concepts, at --jobs 1 and 2; then a traced run of
    4 documents for the time shares."""
    import gen
    import tracing
    import workloads
    lexicon = gen.make_lexicon(rng, 800)
    notes = [gen.make_note(rng, f"doc{n:02d}.txt", lexicon, 5200)
             for n in range(16)]
    settings = workloads._write_lexicon(workdir, lexicon)
    paths = [workloads._write(os.path.join(workdir, note.name), note.text)
             for note in notes]
    out["pipeline.tokens_per_doc"] = (
        sum(n.counts["tokens"] for n in notes) / len(notes), "count")

    def run_cli(jobs, docs, tracer=None):
        settings["store_path"] = workloads._fresh(
            os.path.join(workdir, "store.db"))
        config = workloads._write_config(
            os.path.join(workdir, "annokit.cfg"), settings)
        base = ["--config", config, "--jobs", str(jobs)]
        workloads.run_cli(base + ["init"])
        workloads.run_cli(base + ["import", *docs])
        if tracer:
            tracer.install()
        try:
            code, _, seconds = workloads.run_cli(
                base + ["run", *docs, "--stages",
                        "tokenize,sentences,concepts"])
        finally:
            if tracer:
                tracer.uninstall()
        assert code == 0, f"annokit run exited with {code}"
        return seconds

    for jobs in (1, 2):
        out[f"pipeline.jobs{jobs}_s"] = (run_cli(jobs, paths), "s")
    tracer = tracing.Tracer()
    run_cli(1, paths[:4], tracer)
    layers = tracer.metrics()
    total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    for name in ("tree.insert", "documents.annotations", "store.checkpoint"):
        out[f"pipeline.{name}.share"] = (layers[f"{name}.self_s"] / total,
                                         "ratio")
    out["pipeline.documents.annotations.calls"] = (
        layers["documents.annotations.calls"], "count")


def criterion5(out):
    """The acceptance test's 100k inserts and its two pruned queries."""
    from annokit.intervals import AllenRelation, Interval
    from annokit.tree import IntervalTree
    rng = random.Random(1005)
    start = time.perf_counter()
    tree = IntervalTree()
    for k in range(100_000):
        s = rng.randrange(0, 1_000_000)
        tree.insert(Interval(s, min(s + rng.randrange(0, 800), 1_000_000)), k)
    visited = []
    for rel, probe in ((AllenRelation.BEFORE, Interval(40, 90)),
                       (AllenRelation.AFTER, Interval(999_910, 999_960))):
        tree.query(rel, probe)
        visited.append(tree.last_visited / tree.node_count)
    out["criterion5.s"] = (time.perf_counter() - start, "s")
    out["criterion5.visited_share_max"] = (max(visited), "ratio")


def mining(rng, out):
    """150 graphs, 5 labels, min_support 15, with the share spent in
    the per-graph support test."""
    import gen
    import tracing
    from annokit import graphs
    specs = gen.make_graphs(rng, 150, 5, edge_labels=3)
    hosts = [graphs.LabeledGraph(nodes=s.nodes, edges=s.edges, id=n)
             for n, s in enumerate(specs)]
    out["mining.s"] = (timed(graphs.mine_frequent_subgraphs, hosts, 15, 4)[0],
                       "s")
    tracer = tracing.Tracer()
    tracer.install(extra=[("graphs._occurs_in", graphs, "_occurs_in", (),
                           None)])
    try:
        seconds, mined = timed(graphs.mine_frequent_subgraphs, hosts, 15, 4)
    finally:
        tracer.uninstall()
    layers = tracer.metrics()
    out["mining.occurs_in_share"] = (layers["graphs._occurs_in.self_s"]
                                     / seconds, "ratio")
    # canonical_code also runs once per frequent label and once per
    # result when sorting; every other call codes one candidate
    labels = sum(1 for m in mined if len(m.pattern.nodes) == 1)
    out["mining.candidates"] = (layers["graphs.canonical_code.calls"]
                                - labels - len(mined), "count")
    out["mining.patterns"] = (len(mined), "count")


def record_splitting(rng, out):
    import gen
    from annokit import inline
    filler = gen.make_lexicon(rng, 1).filler
    for count in (500, 1000, 2000):
        xml = gen.records_inline_xml(gen.make_records(rng, filler, count))
        out[f"split_records.{count}_s"] = (
            timed(inline.split_records, xml)[0], "s")


def defects(workdir, out):
    """1 where a defect of the baseline section still reproduces."""
    import workloads
    from annokit import documents, graphs
    from annokit.documents import Document
    from annokit.intervals import Interval
    doc = Document("d", "abc")
    doc.annotate(Interval(0, 1), "x", "v", {"k": "a;b=c"})
    sink = io.StringIO()
    documents.export_annotations(doc, sink)
    back = Document("d", "abc")
    documents.import_external_annotations(back, io.StringIO(sink.getvalue()))
    out["defect.tsv_semicolon"] = (
        int(back.annotations()[0].attributes != {"k": "a;b=c"}), "flag")
    one = graphs.canonical_code(graphs.LabeledGraph(nodes=["a,b"]))
    two = graphs.canonical_code(graphs.LabeledGraph(nodes=["a", "b"]))
    out["defect.canonical_code_collision"] = (int(one == two), "flag")
    config = workloads._write_config(
        os.path.join(workdir, "empty.cfg"),
        dict(store_path=os.path.join(workdir, "empty.db")))
    for command in (["query", "--doc", "d", "--rel", "before", "--start",
                     "0", "--end", "1"], ["graph-mine"]):
        try:
            workloads.run_cli(["--config", config, *command])
            raw = 0
        except sqlite3.Error:
            raw = 1
        out[f"defect.raw_sqlite_error.{command[0]}"] = (raw, "flag")


def jobs2_graphs(rng, workdir, out):
    """``annokit --jobs 2 run`` with the graphs stage over 60 notes."""
    import gen
    import workloads
    lexicon = gen.make_lexicon(rng, 800)
    notes = gen.make_notes(rng, lexicon, 60, 200, 600)
    settings = workloads._write_lexicon(workdir, lexicon)
    settings["guideline"] = workloads._write(
        os.path.join(workdir, "guideline.xml"), gen.GUIDELINE_XML)
    settings["store_path"] = workloads._fresh(
        os.path.join(workdir, "jobs2.db"))
    config = workloads._write_config(os.path.join(workdir, "jobs2.cfg"),
                                     settings)
    base = ["--config", config]
    paths = []
    for note in notes:
        paths.append(workloads._write(os.path.join(workdir, note.name),
                                      note.text))
    workloads.run_cli(base + ["init"])
    workloads.run_cli(base + ["import", *paths])
    for note, path in zip(notes, paths):
        deps = workloads._write(path + ".deps", note.dependency_tsv())
        workloads.run_cli(base + ["import", "--annotations", deps,
                                  "--doc", note.name])
    try:
        workloads.run_cli(["--jobs", "2"] + base + [
            "run", *paths, "--stages",
            "tokenize,sentences,sections,concepts,graphs"])
        crashed = 0
    except sqlite3.Error:
        crashed = 1
    out["defect.jobs2_graphs_raw_sqlite_error"] = (crashed, "flag")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    run.import_annokit()
    import logging
    logging.disable(logging.WARNING)  # skipped-dependency warnings
    workdir = os.path.join(run.HERE, "_work", f"baseline-{os.getpid()}")
    os.makedirs(workdir)
    rng = random.Random(args.seed)
    out = {}
    try:
        one_document(rng, out)
        pipeline(rng, workdir, out)
        criterion5(out)
        mining(rng, out)
        record_splitting(rng, out)
        defects(workdir, out)
        jobs2_graphs(rng, workdir, out)
        out.update({f"context.{k}": (v, "")
                    for k, v in run.context(workdir).items()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in out.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"baseline.{name} = {shown} {unit}".rstrip())
    print(json.dumps({name: {"value": v, "unit": u}
                      for name, (v, u) in out.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
