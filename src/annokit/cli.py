"""Command-line pipeline driver.

Subcommands: init, import, run, query, segments, convert, graph-mine,
export, instances. Global flags --config/--convention sit in front of
the subcommand. A flag named after a setting overrides it through
``load_config``, and handlers read settings only from the config.
``run`` takes its documents one at a time, in argument order.
Exit codes: 0 success, 1 usage error, partial or general failure, 2 any
store failure, 3 missing prerequisite stage, 4 unknown relation tag,
5 malformed inline XML.
"""

import argparse
import os
import sys
from contextlib import nullcontext

from . import concepts as concept_tools
from . import documents as doc_tools
from . import graphs as graph_tools
from . import sections as section_tools
from .config import ENV_PREFIX, SETTINGS, PipelineConfig, load_config
from .documents import Document
from .errors import (
    AnnokitError,
    ConfigError,
    ConversionError,
    NotFoundError,
    StoreError,
    ValidationError,
)
from .inline import convert, map_span, render_offsets, split_records
from .intervals import AllenRelation, Interval
from .store import CdmStore

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_STORE = 2
EXIT_PREREQ = 3
EXIT_RELATION = 4
EXIT_CONVERSION = 5

# each stage in execution order (requests are reordered to match) with
# the annotation types it writes (it has run on a document holding any)
# and the stages whose output it reads
STAGES = {
    "tokenize": (("token",), ()),
    "sentences": (("sentence",), ()),
    "sections": (("section", "template"), ()),
    "concepts": (("CUI", "TUI", "SP-POS"), ("tokenize", "sentences")),
    "graphs": ((), ("concepts",)),
}

TABLE_HEADER = "Start\tEnd\tAnnotation Type\tAnnotation Attribute"


class PrerequisiteGapError(AnnokitError):
    """A requested stage is missing an input another stage provides."""


def _print_error(message):
    print(f"error: {message}", file=sys.stderr)


def _open_store(config: PipelineConfig) -> CdmStore:
    return CdmStore(config.store_path)


def _load_document(store: CdmStore, name: str) -> Document:
    doc_id = store.find_document(name)
    if doc_id is None:
        raise NotFoundError(f"no document named {name!r} in the store")
    return store.unmarshal_document(doc_id)


def _parse_span(text: str) -> Interval:
    try:
        start, _, end = text.partition(":")
        return Interval(int(start), int(end))
    except ValueError as exc:
        raise ValidationError(
            f"expected START:END with integers, got {text!r}") from exc


# init

def cmd_init(config: PipelineConfig, args) -> int:
    with _open_store(config) as store:
        created, moved = store.init_schema()
        print(f"{len(created)} tables created")
        if moved is not None:
            print(f"migrated: {moved} provenances moved to their own column")
    return EXIT_OK


# import

def _read_text_documents(paths):
    """A document per readable file, and the count of unreadable ones."""
    docs, failed = [], 0
    for path in paths:
        name = os.path.basename(path)
        try:
            docs.append(Document(name, doc_tools.read_text(path)))
        except (OSError, AnnokitError) as exc:
            _print_error(f"{name}: {exc}")
            failed += 1
    return docs, failed


def _read_inline(path, record_element):
    markup = doc_tools.read_text(path)
    records = split_records(markup, record_element=record_element)
    if records:
        return [record.to_document() for record in records]
    # no record elements: the whole file is one document
    plain, anns = convert(markup)
    doc = Document(os.path.splitext(os.path.basename(path))[0], plain)
    for ann in anns:
        doc.add_annotation(ann)
    return [doc]


def cmd_import(config: PipelineConfig, args) -> int:
    """Read and parse every input, then write in one transaction."""
    if args.annotations and not args.doc:
        raise ConfigError("--annotations requires --doc NAME")
    texts, failed = _read_text_documents(args.paths)
    inline = _read_inline(args.inline, config.record_element) \
        if args.inline else []
    with _open_store(config) as store:
        corpus_id = None
        if args.corpus:
            corpus_id = store.find_corpus(args.corpus)
            if corpus_id is None:
                corpus_id = store.create_corpus(args.corpus)
        stored = store.import_documents(texts + inline, corpus_id)
        for n, (doc, new) in enumerate(zip(texts + inline, stored)):
            if not new:
                print(f"{doc.name}: already in store, skipped")
            elif n < len(texts):
                print(f"{doc.name}: imported")
        if args.inline:
            print(f"{sum(stored[len(texts):])} documents imported from"
                  f" {args.inline}")
        if args.annotations:
            doc = _load_document(store, args.doc)
            count = doc_tools.import_external_annotations(
                doc, args.annotations)
            store.checkpoint(doc)
            print(f"{count} annotations imported into {args.doc}")
    return EXIT_FAILURE if failed else EXIT_OK


# run

class _StageResources:
    """Shared read-only inputs, loaded once per invocation."""

    def __init__(self, config: PipelineConfig, stages):
        self.abbreviations = config.abbreviation_set()
        self.guideline = None
        self.lexicon = None
        if "sections" in stages:
            if not config.guideline:
                raise ConfigError(
                    "the sections stage needs guideline=PATH configured")
            self.guideline = section_tools.parse_guideline(
                doc_tools.read_text(config.guideline))
        if "concepts" in stages:
            if not config.lexicon_terms:
                raise ConfigError(
                    "the concepts stage needs lexicon_terms=PATH configured")
            self.lexicon = concept_tools.load_lexicon(
                config.lexicon_terms,
                tui_file=config.lexicon_tuis or None,
                pos_file=config.lexicon_pos or None,
                function_word_file=config.function_words or None)


def _has_run(types, stage: str) -> bool:
    """Whether a document holding ``types`` holds any type of ``stage``."""
    return any(t in types for t in STAGES[stage][0])


def _run_stage(doc: Document, stage: str, stages, resources, store) -> int:
    """Execute one stage unless it has run on the document, that is
    unless the document holds any of the types ``STAGES`` lists for it.
    The graphs stage writes no annotations: it persists the graphs it
    builds unless the store holds the first of them by name (their names
    are unique per document and sentence, and a document's graphs are
    written all or nothing). A stage whose input stage has neither run
    nor been requested is a gap. Returns the number of graphs persisted."""
    types = doc.index.by_type
    if _has_run(types, stage):
        return 0
    for needed in STAGES[stage][1]:
        if not _has_run(types, needed) and needed not in stages:
            raise PrerequisiteGapError(
                f"{doc.name}: {stage} reads the {needed} stage's output;"
                f" run the {needed} stage first")
    if stage == "tokenize":
        for ann in doc_tools.tokenize(doc):
            doc.add_annotation(ann)
    elif stage == "sentences":
        for ann in doc_tools.split_sentences(doc, resources.abbreviations):
            doc.add_annotation(ann)
    elif stage == "sections":
        section_tools.detect_sections(doc, resources.guideline)
        section_tools.match_templates(doc, resources.guideline)
    elif stage == "concepts":
        for sentence in doc.annotations("sentence"):
            concept_tools.annotate_concepts(doc, sentence, resources.lexicon)
        concept_tools.annotate_tuis(doc, resources.lexicon)
        concept_tools.annotate_sp_pos(doc, resources.lexicon)
    elif stage == "graphs":
        if "dependency" not in types:
            raise PrerequisiteGapError(
                f"{doc.name}: graphs requires imported dependency"
                " annotations")
        built = graph_tools.build_sentence_graphs(doc)
        if built and store.find_graph(built[0].name) is None:
            graph_tools.persist_graphs(store, built)
            return len(built)
    return 0


def _process_document(store, path, stages, resources) -> int:
    """Run and report the stages of one document; returns rows written."""
    name = os.path.basename(path)
    doc_id = store.find_document(name)
    if doc_id is not None:
        doc = store.unmarshal_document(doc_id)
    else:
        doc = Document(name, doc_tools.read_text(path))
        store.marshal_document(doc)
    written = 0
    graphs_persisted = 0
    for stage in stages:
        graphs_persisted += _run_stage(doc, stage, stages, resources, store)
        written += store.checkpoint(doc)
    line = f"{name}: {written} annotations written"
    if graphs_persisted:
        line += f"; {graphs_persisted} graphs persisted"
    print(line)
    return written


def cmd_run(config: PipelineConfig, args) -> int:
    requested = [s.strip() for s in args.stages.split(",") if s.strip()]
    unknown = sorted(set(requested) - set(STAGES))
    if unknown:
        raise ValidationError(
            f"unknown stages: {', '.join(unknown)};"
            f" valid stages: {', '.join(STAGES)}")
    stages = [s for s in STAGES if s in requested]
    resources = _StageResources(config, stages)

    failures = 0
    gap = None
    total = 0
    with _open_store(config) as store:
        for path in args.paths:
            try:
                total += _process_document(store, path, stages, resources)
            except PrerequisiteGapError as exc:
                gap = gap or exc
            except StoreError:
                raise
            except (OSError, AnnokitError) as exc:
                _print_error(f"{os.path.basename(path)}: {exc}")
                failures += 1
    if gap is not None:
        raise gap
    print(f"total: {total} annotations written")
    return EXIT_FAILURE if failures else EXIT_OK


# query

def cmd_query(config: PipelineConfig, args) -> int:
    try:
        relation = AllenRelation.from_string(args.rel)
    except ValidationError:
        valid = ", ".join(r.value for r in AllenRelation)
        _print_error(f"unknown relation tag {args.rel!r};"
                     f" valid tags: {valid}")
        return EXIT_RELATION
    with _open_store(config) as store:
        doc = _load_document(store, args.doc)
    anchor = Interval(args.start, args.end)
    rows = doc.annotations_satisfying(relation, anchor,
                                      type_filter=args.type_filter)
    for ann in rows:
        start, end = map_span(ann.span, config.convention)
        print(f"{start}\t{end}\t{ann.type_name}\t{ann.value}")
    return EXIT_OK


# segments

def cmd_segments(config: PipelineConfig, args) -> int:
    with _open_store(config) as store:
        doc = _load_document(store, args.doc)
    first = _parse_span(args.first)
    second = _parse_span(args.second)
    sentence = _parse_span(args.sentence) if args.sentence \
        else Interval(0, len(doc.content))
    context = doc_tools.segment_context(doc, first, second, sentence)
    labels = ("preceding", "concept1", "between", "concept2", "succeeding")
    for label, span in zip(labels, context.spans()):
        start, end = map_span(span, config.convention)
        print(f"{label}\t{start}\t{end}")
    return EXIT_OK


# convert

def cmd_convert(config: PipelineConfig, args) -> int:
    markup = doc_tools.read_text(args.path)
    out_dir = args.out_dir or os.path.dirname(args.path) or "."
    stem = os.path.splitext(os.path.basename(args.path))[0]

    if args.record_element:
        records = split_records(markup, record_element=args.record_element)
        parts = [(f"{stem}-{r.record_id}", r.plain_text, r.annotations())
                 for r in records]
        written = set()
        for record, (name, _, _) in zip(records, parts):
            if record.record_id in (".", "..") \
                    or {"/", os.sep, os.altsep} & set(record.record_id):
                raise ValidationError(
                    f"record ID {record.record_id!r} is not a file name")
            if name in written:
                raise ValidationError(f"two records would write {name}.txt")
            written.add(name)
    else:
        plain, anns = convert(markup)
        parts = [(stem, plain, anns)]
    source = os.path.realpath(args.path)
    for name, _, _ in parts:
        for ext in (".txt", ".ann"):
            if os.path.realpath(os.path.join(out_dir, name + ext)) == source:
                raise ValidationError(
                    f"convert would overwrite its input {args.path}")

    print(TABLE_HEADER)
    for name, plain, anns in parts:
        doc = Document(name, plain)
        for ann in anns:
            doc.add_annotation(ann)
        for start, end, type_name, attr_text in render_offsets(
                anns, config.convention):
            print(f"{start}\t{end}\t{type_name}\t{attr_text}")
        with doc_tools.open_text(os.path.join(out_dir, name + ".txt"),
                                 "w") as handle:
            handle.write(plain)
        doc_tools.export_annotations(doc, os.path.join(out_dir,
                                                       name + ".ann"))
    return EXIT_OK


# graph-mine

def cmd_graph_mine(config: PipelineConfig, args) -> int:
    with nullcontext() if args.input else _open_store(config) as store:
        if store is None:
            graphs = graph_tools.read_graph_file(args.input)
        else:
            graphs = graph_tools.load_graphs(store, "dependency")
        results = graph_tools.mine_frequent_subgraphs(
            graphs, config.min_support, max_nodes=config.max_nodes)
        print(f"{len(graphs)} graphs mined, {len(results)} patterns"
              f" (min_support={config.min_support},"
              f" max_nodes={config.max_nodes})")
        for n, result in enumerate(results):
            members = ",".join(str(g) for g in result.graph_ids)
            print(f"pattern {n}: support={result.support}"
                  f" graphs=[{members}] {result.code}")
        # Opened before the store write, so that an unwritable file fails
        # first, and without truncating, so that a failed store write
        # leaves it as it was; written after, as it shows the stored ids.
        with (doc_tools.open_text(args.out, "a") if args.out
              else nullcontext()) as out:
            if store is not None and not args.no_persist:
                graph_tools.persist_mining_results(store, results)
                embeddings = sum(len(found) for result in results
                                 for found in result.embeddings)
                print(f"persisted {len(results)} patterns,"
                      f" {embeddings} embeddings")
            if out is not None:
                if out.seekable():
                    out.truncate(0)
                graph_tools.write_graph_file(
                    [r.pattern for r in results], out)
    return EXIT_OK


# export

def cmd_export(config: PipelineConfig, args) -> int:
    with _open_store(config) as store:
        doc = _load_document(store, args.doc)
    dest = args.out if args.out else sys.stdout
    count = doc_tools.export_annotations(doc, dest,
                                         type_filter=args.type_filter)
    print(f"{count} annotations exported", file=sys.stderr)
    return EXIT_OK


# instances

def cmd_instances(config: PipelineConfig, args) -> int:
    with _open_store(config) as store:
        corpus_id = store.find_corpus(args.corpus)
        if corpus_id is None:
            raise NotFoundError(f"no corpus named {args.corpus!r}")
        if args.create_documents:
            created = store.create_document_instances(corpus_id)
            print(f"{created} instances created")
            return EXIT_OK
        if args.groundtruth is not None:
            if not (args.task and args.label):
                raise ConfigError("--groundtruth needs --task and --label")
            store.set_groundtruth(args.groundtruth, args.task, args.label)
            print(f"instance {args.groundtruth}: {args.task}={args.label}")
            return EXIT_OK
        if args.make_set:
            try:
                ids = ([int(x) for x in args.ids.split(",")] if args.ids
                       else [i for i, _ in store.corpus_instances(corpus_id)])
            except ValueError as exc:
                raise ValidationError(f"--ids takes comma-separated"
                                      f" integers, got {args.ids!r}") from exc
            set_id = store.create_instance_set(
                corpus_id, args.make_set, args.purpose or "", ids)
            print(f"instance set {set_id}: {len(ids)} members")
            return EXIT_OK
        for iid, kind in store.corpus_instances(corpus_id):
            line = f"{iid}\t{kind}"
            labels = store.groundtruth_for(iid)
            if labels:
                line += "\t" + ";".join(f"{t}={l}" for t, l in labels)
            print(line)
    return EXIT_OK


# parser plumbing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annokit",
        description="Stand-off annotation pipeline over a relational"
                    " store.",
        epilog=f"Every config key can be overridden by {ENV_PREFIX}<KEY>"
               " environment variables.")
    parser.add_argument("--config", default=None, metavar="PATH",
                        help="key=value configuration file")
    parser.add_argument("--convention", default=None,
                        metavar="{half-open-0,inclusive-1}",
                        help="offset convention for display")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create or migrate the store schema")
    p.set_defaults(handler=cmd_init)

    p = sub.add_parser("import", help="import documents or annotations")
    p.add_argument("paths", nargs="*", help="plain-text document files")
    p.add_argument("--inline", metavar="PATH",
                   help="inline-XML corpus to split and convert")
    p.add_argument("--record-element", default=None, metavar="NAME")
    p.add_argument("--annotations", metavar="PATH",
                   help="external annotation file (tab-separated)")
    p.add_argument("--doc", default=None,
                   help="target document for --annotations")
    p.add_argument("--corpus", default=None,
                   help="attach imported documents to this corpus")
    p.set_defaults(handler=cmd_import)

    p = sub.add_parser("run", help="run pipeline stages over documents")
    p.add_argument("paths", nargs="+", help="document files")
    p.add_argument("--stages", required=True,
                   help="comma-separated subset of: " + ", ".join(STAGES))
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("query", help="relation-filtered annotation query")
    p.add_argument("--doc", required=True)
    p.add_argument("--rel", required=True, help="Allen relation tag")
    p.add_argument("--start", type=int, required=True,
                   help="anchor start (canonical half-open offsets)")
    p.add_argument("--end", type=int, required=True)
    p.add_argument("--type", dest="type_filter", default=None)
    p.set_defaults(handler=cmd_query)

    p = sub.add_parser("segments",
                       help="five-way sentence partition around a pair")
    p.add_argument("--doc", required=True)
    p.add_argument("--first", required=True, metavar="START:END")
    p.add_argument("--second", required=True, metavar="START:END")
    p.add_argument("--sentence", default=None, metavar="START:END")
    p.set_defaults(handler=cmd_segments)

    p = sub.add_parser("convert",
                       help="inline XML to plain text + stand-off files")
    p.add_argument("path")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--record-element", default=None, metavar="NAME",
                   help="split on this element instead of converting"
                        " the file whole")
    p.set_defaults(handler=cmd_convert)

    p = sub.add_parser("graph-mine", help="mine frequent subgraphs")
    p.add_argument("--input", default=None, metavar="PATH",
                   help="graph interchange file (default: store graphs)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write mined patterns to this interchange file")
    p.add_argument("--min-support", default=None, metavar="N")
    p.add_argument("--max-nodes", default=None, metavar="N")
    p.add_argument("--no-persist", action="store_true")
    p.set_defaults(handler=cmd_graph_mine)

    p = sub.add_parser("export", help="write annotations in line format")
    p.add_argument("--doc", required=True)
    p.add_argument("--out", default=None, help="default: stdout")
    p.add_argument("--type", dest="type_filter", default=None)
    p.set_defaults(handler=cmd_export)

    p = sub.add_parser("instances", help="manage corpus instances")
    p.add_argument("--corpus", required=True)
    p.add_argument("--create-documents", action="store_true",
                   help="one document instance per corpus document")
    p.add_argument("--groundtruth", type=int, default=None,
                   metavar="INSTANCE_ID")
    p.add_argument("--task", default=None)
    p.add_argument("--label", default=None)
    p.add_argument("--make-set", default=None, metavar="NAME")
    p.add_argument("--purpose", default=None)
    p.add_argument("--ids", default=None, help="comma-separated instance"
                   " ids for --make-set (default: every instance)")
    p.set_defaults(handler=cmd_instances)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # --help exits 0; a usage error is a failure like any other
        return EXIT_OK if exc.code == 0 else EXIT_FAILURE
    try:
        config = load_config(args.config, overrides={
            key: getattr(args, key, None) for key in SETTINGS})
        config.validate()
        return args.handler(config, args)
    except PrerequisiteGapError as exc:
        _print_error(exc)
        return EXIT_PREREQ
    except ConversionError as exc:
        where = f" at offset {exc.offset}" if exc.offset is not None else ""
        _print_error(f"{exc}{where}")
        return EXIT_CONVERSION
    except StoreError as exc:
        _print_error(exc)
        return EXIT_STORE
    except (AnnokitError, OSError) as exc:
        _print_error(exc)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
