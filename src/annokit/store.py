"""Relational persistence for corpora, documents, annotations, instances,
ground truth, and graphs.

The schema is fourteen tables. Every table carries a catch-all ``data``
column holding a canonical key-sorted JSON map, so serializing the same
attributes twice yields identical bytes and dirty detection reduces to a
string comparison; provenance has its own column. SQLite is the bundled
engine; anything exposing the same DB-API connection surface would do,
since the SQL sticks to plain DDL/DML plus unique indexes.

Documents flush through a dirty set: marshal writes the document row and
dirty annotations, checkpoint writes dirty annotations only. An import
writes its new documents the way marshal does, and files them in their
corpus, all in one transaction, so that a rerun converges. Annotations
enter memory with provisional negative ids and get their durable ids from
the store on first flush; a section's ``parent`` attribute is written, and
then held, with the durable id of its parent. No other module runs SQL.

Cost model of a flush: one sort by a key per row, one UPDATE per dirty
stored row, and one ``executemany`` for all fresh rows, which get the ids
above the current maximum in canonical order. A fresh row costs about
5 µs (9 µs with one INSERT each; sqlite's bare insert is 2.3 µs of it) in
2,000-row in-memory checkpoints on a 2-vCPU VM (Python 3.11, sqlite 3.40).

Cost model of an open: one streaming SELECT, read ``_OPEN_BLOCK`` rows at
a time. A block whose ``data`` texts all pass sqlite's ``json_valid`` is
decoded by one ``json.loads`` of the texts joined as an array, so equal
attribute keys are one object per block; any other block is decoded
text by text, with the results and errors of decoding each text alone.
Memory is the opened document plus one block of rows; sqlite's page
cache is released after the read. The benchmark's largest revisit
document (41,348 rows) retains 22.6 MB under ``tracemalloc`` and peaks
0.2 MB above that, where decoding row by row retained 24.9 MB; the open
takes 0.15-0.25 s either way (same VM).

A store keeps no state but its connection. Each write transaction and
each unmarshal reads ``annotation_types`` once, within its own call, so
no type id outlives the transaction that made it. Each table's columns
are declared once, in its DDL; the check that an existing store has the
expected columns reads them back from that DDL.
"""

import contextlib
import functools
import gc
import json
import operator
import sqlite3

from .documents import (
    _PARENT_REFERENCE,
    _PROVENANCE_KEY,
    Annotation,
    Document,
    canonical_key,
)
from .errors import (
    ConflictError,
    DanglingReferenceError,
    MigrationRequiredError,
    NotFoundError,
    StoreError,
    ValidationError,
)
from .intervals import Interval

# Declared last, where ALTER TABLE puts it in a store written before it.
_PROVENANCE_COLUMN = "provenance TEXT NOT NULL DEFAULT ''"

# Order matters only for readable DDL dumps; creation is dependency-free
# because foreign keys are by convention (ids), not enforced constraints.
_TABLES = {
    "corpora": """
        CREATE TABLE IF NOT EXISTS corpora (
            id INTEGER PRIMARY KEY,
            name TEXT NOT NULL,
            description TEXT NOT NULL DEFAULT '',
            data TEXT NOT NULL DEFAULT '{}'
        )""",
    "corpora_documents": """
        CREATE TABLE IF NOT EXISTS corpora_documents (
            corpus_id INTEGER NOT NULL,
            document_id INTEGER NOT NULL
        )""",
    "documents": """
        CREATE TABLE IF NOT EXISTS documents (
            id INTEGER PRIMARY KEY,
            name TEXT NOT NULL,
            source TEXT NOT NULL DEFAULT '',
            size INTEGER NOT NULL,
            data TEXT NOT NULL DEFAULT '{}',
            content TEXT NOT NULL
        )""",
    "annotations": f"""
        CREATE TABLE IF NOT EXISTS annotations (
            id INTEGER PRIMARY KEY,
            document_id INTEGER NOT NULL,
            start INTEGER NOT NULL,
            "end" INTEGER NOT NULL,
            type_id INTEGER NOT NULL,
            value TEXT NOT NULL DEFAULT '',
            data TEXT NOT NULL DEFAULT '{{}}',
            {_PROVENANCE_COLUMN}
        )""",
    "annotation_types": """
        CREATE TABLE IF NOT EXISTS annotation_types (
            id INTEGER PRIMARY KEY,
            name TEXT NOT NULL,
            description TEXT NOT NULL DEFAULT ''
        )""",
    "instances": """
        CREATE TABLE IF NOT EXISTS instances (
            id INTEGER PRIMARY KEY,
            corpus_id INTEGER NOT NULL,
            kind TEXT NOT NULL,
            data TEXT NOT NULL DEFAULT '{}'
        )""",
    "instances_content": """
        CREATE TABLE IF NOT EXISTS instances_content (
            instance_id INTEGER NOT NULL,
            content_kind TEXT NOT NULL,
            content_id INTEGER NOT NULL
        )""",
    "instance_sets": """
        CREATE TABLE IF NOT EXISTS instance_sets (
            id INTEGER PRIMARY KEY,
            corpus_id INTEGER NOT NULL,
            name TEXT NOT NULL,
            purpose TEXT NOT NULL DEFAULT '',
            data TEXT NOT NULL DEFAULT '{}'
        )""",
    "instance_set_members": """
        CREATE TABLE IF NOT EXISTS instance_set_members (
            instance_set_id INTEGER NOT NULL,
            instance_id INTEGER NOT NULL
        )""",
    "groundtruth": """
        CREATE TABLE IF NOT EXISTS groundtruth (
            instance_id INTEGER NOT NULL,
            task TEXT NOT NULL,
            label TEXT NOT NULL,
            data TEXT NOT NULL DEFAULT '{}'
        )""",
    "graphs": """
        CREATE TABLE IF NOT EXISTS graphs (
            id INTEGER PRIMARY KEY,
            name TEXT NOT NULL,
            type TEXT NOT NULL DEFAULT '',
            data TEXT NOT NULL DEFAULT '{}'
        )""",
    "linkage_graph": """
        CREATE TABLE IF NOT EXISTS linkage_graph (
            graph_id INTEGER NOT NULL,
            node1 INTEGER NOT NULL,
            node2 INTEGER,
            edge_label TEXT,
            node1_label TEXT NOT NULL DEFAULT '',
            node2_label TEXT
        )""",
    "sig_subgraph": """
        CREATE TABLE IF NOT EXISTS sig_subgraph (
            id INTEGER PRIMARY KEY,
            subgraph_graph_id INTEGER NOT NULL,
            support INTEGER NOT NULL,
            data TEXT NOT NULL DEFAULT '{}'
        )""",
    "lg_sigsub": """
        CREATE TABLE IF NOT EXISTS lg_sigsub (
            graph_id INTEGER NOT NULL,
            sig_subgraph_id INTEGER NOT NULL,
            node_mapping TEXT NOT NULL DEFAULT '{}'
        )""",
}


@functools.cache
def _declared_columns() -> dict[str, tuple[str, ...]]:
    """Each table's column names as ``_TABLES`` declares them, read back
    from that DDL run once on a private in-memory database. Computed on
    first use, not at import, so that a process that never checks an
    existing store never opens it."""
    with contextlib.closing(sqlite3.connect(":memory:")) as conn:
        columns = {}
        for table, ddl in _TABLES.items():
            conn.execute(ddl)
            cur = conn.execute(f'SELECT * FROM "{table}" LIMIT 0')
            columns[table] = tuple(col[0] for col in cur.description)
        return columns


_INDEXES = (
    'CREATE INDEX IF NOT EXISTS idx_annotations_doc_span'
    ' ON annotations (document_id, start, "end")',
    "CREATE UNIQUE INDEX IF NOT EXISTS idx_annotation_types_name"
    " ON annotation_types (name)",
    "CREATE UNIQUE INDEX IF NOT EXISTS idx_corpora_name ON corpora (name)",
    "CREATE UNIQUE INDEX IF NOT EXISTS idx_documents_name"
    " ON documents (name)",
    "CREATE UNIQUE INDEX IF NOT EXISTS idx_corpora_documents_pair"
    " ON corpora_documents (corpus_id, document_id)",
    "CREATE UNIQUE INDEX IF NOT EXISTS idx_groundtruth_instance_task"
    " ON groundtruth (instance_id, task)",
    "CREATE UNIQUE INDEX IF NOT EXISTS idx_instance_set_members_pair"
    " ON instance_set_members (instance_set_id, instance_id)",
    "CREATE INDEX IF NOT EXISTS idx_graphs_name ON graphs (name)",
)

_INSTANCE_KINDS = {
    # kind -> (content_kind, min members, max members or None)
    "document": ("document", 1, 1),
    "annotation_pair": ("annotation", 2, 2),
    "document_set": ("document", 1, None),
}


_encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            ensure_ascii=False)
# Built once (JSONEncoder.encode builds one per call), and without the
# circular-reference markers that every caller would then share.
_encode = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None, _encoder.default, json.encoder.encode_basestring, None, ":", ",",
    True, False, True)


def canonical_json(mapping) -> str:
    """Byte-stable serialization of a key->text map, as ``json.dumps``
    with sorted keys, no spaces and no ASCII escapes gives it. What the
    once-built encoder fails on, a circular mapping included, is encoded
    again by ``JSONEncoder.encode``, which raises what json.dumps would."""
    if _encode is not None:
        try:
            return "".join(_encode(mapping or {}, 0))
        except (TypeError, ValueError, RecursionError):
            pass
    return _encoder.encode(mapping or {})


@functools.cache
def _node_mapping_format(size: int):
    """A %-format and an item getter that render an embedding of ``size``
    integer host nodes as ``canonical_json`` renders ``{str(k): str(v)
    for k, v in enumerate(embedding)}``: keys in string order, in which
    ``"10"`` precedes ``"2"``. Of one node, the getter returns the node
    itself, which a one-field format takes as well."""
    order = sorted(range(size), key=str)
    return ("{" + ",".join(f'"{k}":"%d"' for k in order) + "}",
            operator.itemgetter(*order) if order else lambda _: ())


def _node_mapping(embedding) -> str:
    form, pick = _node_mapping_format(len(embedding))
    return form % pick(embedding)


def _new_id_of(text, new_ids):
    """``new_ids[old]`` for the id ``old`` with ``str(old) == text``."""
    try:
        old = int(text)
    except (TypeError, ValueError):
        return None
    return new_ids.get(old) if str(old) == text else None


# Rows of one open whose ``data`` texts are decoded by one ``json.loads``.
_OPEN_BLOCK = 512


class _UndecodableData(StoreError, json.JSONDecodeError):
    """A stored ``data`` text that is not JSON: a store failure, with the
    message ``json.loads`` gives it."""


def _loads(text):
    """``json.loads(text)``; a text that is not JSON is a store error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _UndecodableData(exc.msg, exc.doc, exc.pos) from None


def _loads_block(texts, valid):
    """``map(_loads, texts)``, but one ``json.loads`` of the texts joined
    as an array, which makes equal keys one object, when sqlite's
    ``json_valid`` holds for each (so none ends in the next: ``'[1'``,
    ``'2]'``) and Python accepts the join (no raw NUL, JSON5 or bytes)."""
    if all(valid):
        try:
            return iter(json.loads("[" + ",".join(texts) + "]"))
        except (ValueError, TypeError, RecursionError):
            pass
    return map(_loads, texts)


def _provenance_moved(conn):
    """(data, provenance, id) for each old annotation row holding a text
    "_provenance" (sqlite's ``json_extract`` would cut it at NUL)."""
    for ann_id, data in conn.execute(
            "SELECT id, data FROM annotations").fetchall():
        try:
            attributes = _loads(data)
            provenance = attributes.pop(_PROVENANCE_KEY)
        except (ValueError, TypeError, AttributeError, KeyError):
            continue
        if provenance.__class__ is str:
            yield canonical_json(attributes), provenance, ann_id


@contextlib.contextmanager
def _bulk_load():
    """Run the body with no cyclic-GC passes. The objects a load builds
    form no reference cycles, so a pass over them finds nothing. On exit
    they move to the oldest generation, so that the first collection
    after the load does not scan them instead; a caller's frozen objects
    are left frozen, and a caller that disabled GC keeps it disabled."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            if gc.get_freeze_count() == 0:
                gc.freeze()
                gc.unfreeze()
            gc.enable()


def _sqlite_errors_as_store_errors(cls):
    """Wrap every public method of ``cls`` so that a sqlite3 failure
    leaves it as StoreError. Private helpers run inside those methods."""
    def wrap(method):
        @functools.wraps(method)
        def wrapper(self, *args, **kwargs):
            try:
                return method(self, *args, **kwargs)
            except sqlite3.Error as exc:
                if str(exc) in ("no such column: provenance", "table "
                                "annotations has no column named provenance"):
                    raise MigrationRequiredError(
                        f"{method.__name__}: the store has no provenance"
                        " column; run `annokit init` to migrate it") from exc
                raise StoreError(f"{method.__name__}: {exc}") from exc
        return wrapper

    for name, member in list(vars(cls).items()):
        if callable(member) and not name.startswith("_"):
            setattr(cls, name, wrap(member))
    return cls


@_sqlite_errors_as_store_errors
class CdmStore:
    """Single-connection store over the fourteen-table schema.

    ``target`` is a filesystem path (":memory:" allowed) or an existing
    DB-API connection. Public operations are transactional and raise any
    sqlite3 failure as StoreError. A store belongs to the thread that
    opened it; use from another thread fails as StoreError.
    """

    def __init__(self, target):
        if hasattr(target, "cursor"):
            self._conn = target
        else:
            try:
                self._conn = sqlite3.connect(str(target))
            except sqlite3.Error as exc:
                raise StoreError(f"cannot open store at {target}: {exc}") \
                    from exc

    @property
    def connection(self):
        return self._conn

    def close(self):
        self._conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    # schema

    def _table_names(self) -> set[str]:
        rows = self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        ).fetchall()
        return {r[0] for r in rows}

    def _verify_columns(self, existing: set[str]) -> None:
        for table in sorted(existing & set(_TABLES)):
            cur = self._conn.execute(f'SELECT * FROM "{table}" LIMIT 0')
            found = tuple(col[0] for col in cur.description)
            expected = _declared_columns()[table]
            if found != expected:
                raise MigrationRequiredError(
                    f"table {table!r} has columns {found}, "
                    f"expected {expected}"
                )

    def init_schema(self) -> tuple[list[str], int | None]:
        """Create any missing tables and indexes, and give a store written
        before the provenance column that column, moving each provenance
        out of ``data``, in one transaction. Returns (names of the tables
        created, provenances moved or None if no column was added); a
        repeat run returns ``([], None)``. A same-named table with foreign
        columns aborts with MigrationRequiredError, changing nothing."""
        before, moved = self._table_names(), None
        with self._conn:
            self._conn.execute("BEGIN")
            migrate = "annotations" in before and not self._conn.execute(
                "SELECT 1 FROM pragma_table_info('annotations')"
                " WHERE name = 'provenance'").fetchone()
            if migrate:
                self._conn.execute(
                    "ALTER TABLE annotations ADD COLUMN " + _PROVENANCE_COLUMN)
            self._verify_columns(before)
            if migrate:
                moved = self._conn.executemany(
                    "UPDATE annotations SET data = ?, provenance = ?"
                    " WHERE id = ?", _provenance_moved(self._conn)).rowcount
            for ddl in _TABLES.values():
                self._conn.execute(ddl)
            for ddl in _INDEXES:
                self._conn.execute(ddl)
            # Older stores carry this index; no read goes by type and value.
            self._conn.execute(
                "DROP INDEX IF EXISTS idx_annotations_type_value")
        return sorted(self._table_names() - before), moved

    # documents and annotations

    def _type_ids(self) -> dict[str, int]:
        return dict(self._conn.execute(
            "SELECT name, id FROM annotation_types"))

    def _flush_annotations(self, doc: Document, doc_id: int,
                           type_ids: dict[str, int]) -> tuple[dict, list]:
        """Write dirty annotations of document ``doc_id`` inside the
        caller's transaction.

        Returns (durable id per provisional id, rewritten references as
        (annotation, attributes) pairs), which the caller adopts only
        after commit so a rollback leaves the in-memory document
        consistent with the store. ``type_ids`` maps type names to ids,
        read in the caller's transaction and kept nowhere else, so a
        rollback cannot leave an id behind whose row it took away.
        """
        # Canonical order: the new rows get ascending ids above every
        # durable id, the ids sqlite would give them one by one, so the
        # provisional ids they replace keep their places in the index
        # (see AnnotationIndex.replace_ids). Known before any row is
        # written, they let a section's parent be written durable.
        pending = sorted((doc.index.by_id[i] for i in doc.dirty),
                         key=canonical_key)
        for name in dict.fromkeys(ann.type_name for ann in pending):
            if name not in type_ids:
                type_ids[name] = self._conn.execute(
                    "INSERT INTO annotation_types (name) VALUES (?)",
                    (name,)).lastrowid
        fresh = [ann for ann in pending if ann.id < 0]
        new_ids = {}
        if fresh:
            (top,) = self._conn.execute(
                "SELECT COALESCE(MAX(id), 0) FROM annotations").fetchone()
            new_ids = {ann.id: new_id
                       for new_id, ann in enumerate(fresh, top + 1)}
        section, parent = _PARENT_REFERENCE
        rewritten = []

        def row(ann, ann_id):
            attributes = ann.attributes
            if ann.type_name == section and parent in attributes:
                new_id = _new_id_of(attributes[parent], new_ids)
                if new_id is not None:
                    attributes = {**attributes, parent: str(new_id)}
                    rewritten.append((ann, attributes))
            return (doc_id, ann.span.start, ann.span.end,
                    type_ids[ann.type_name], ann.value,
                    canonical_json(attributes), ann.provenance, ann_id)

        for ann in pending:
            if ann.id > 0:
                cur = self._conn.execute(
                    'UPDATE annotations SET document_id = ?, start = ?, '
                    '"end" = ?, type_id = ?, value = ?, data = ?, '
                    'provenance = ? WHERE id = ?', row(ann, ann.id))
                if cur.rowcount == 0:
                    raise ConflictError(
                        f"annotation {ann.id} vanished from the store; "
                        f"refusing a blind rewrite"
                    )
        if fresh:
            self._conn.executemany(
                'INSERT INTO annotations (document_id, start, "end", type_id, '
                'value, data, provenance, id) VALUES (?, ?, ?, ?, ?, ?, ?, ?)',
                map(row, fresh, new_ids.values()))
        return new_ids, rewritten

    @staticmethod
    def _adopt_flushed(doc: Document, doc_id: int, flushed) -> None:
        """After commit: take the durable ids and the rewritten references
        that ``_flush_annotations`` returned, and mark the doc clean."""
        new_ids, rewritten = flushed
        doc.id = doc_id
        doc.index.replace_ids(new_ids)
        for ann, attributes in rewritten:
            ann.attributes = attributes
        doc.dirty.clear()

    def _write_document(self, doc: Document, type_ids: dict[str, int]
                        ) -> tuple[int, int, tuple]:
        """Write the document row (when new or changed) and its dirty
        annotations in the caller's transaction. Returns (document id,
        document rows, what to adopt after commit)."""
        doc_rows = 0
        current = (doc.name, doc.metadata.get("source", ""),
                   len(doc.content), canonical_json(doc.metadata),
                   doc.content)
        doc_id = doc.id
        if doc_id is None:
            doc_id = self._conn.execute(
                "INSERT INTO documents (name, source, size, data, content)"
                " VALUES (?, ?, ?, ?, ?)", current).lastrowid
            doc_rows = 1
        else:
            row = self._conn.execute(
                "SELECT name, source, size, data, content "
                "FROM documents WHERE id = ?", (doc_id,)
            ).fetchone()
            if row is None:
                raise NotFoundError(f"document id {doc_id} not in store")
            if tuple(row) != current:
                self._conn.execute(
                    "UPDATE documents SET name = ?, source = ?,"
                    " size = ?, data = ?, content = ?"
                    " WHERE id = ?", current + (doc_id,),
                )
                doc_rows = 1
        return doc_id, doc_rows, self._flush_annotations(doc, doc_id,
                                                         type_ids)

    def marshal_document(self, doc: Document) -> dict:
        """Persist the document row (when new or changed) and every dirty
        annotation. Returns row counts per table. Atomic: on any failure
        nothing is persisted and the dirty set is retained."""
        ann_rows = len(doc.dirty)
        with self._conn:
            doc_id, doc_rows, flushed = self._write_document(
                doc, self._type_ids())
        self._adopt_flushed(doc, doc_id, flushed)
        return {"documents": doc_rows, "annotations": ann_rows}

    def import_documents(self, docs, corpus_id: int | None = None
                         ) -> list[bool]:
        """In one transaction, store each document whose name the store
        does not hold yet (of a name given twice, the first copy) and file
        every document given in corpus ``corpus_id``, new or stored
        before, so that the rerun of an interrupted import converges.
        Returns, per document, whether it was stored. Ids are set only
        after commit."""
        if corpus_id is not None:
            self._require_row("corpora", corpus_id)
        stored, written = [], []
        with self._conn:
            type_ids = self._type_ids() if docs else {}
            for doc in docs:
                doc_id = self.find_document(doc.name)
                stored.append(doc_id is None)
                if doc_id is None:
                    doc_id, _, flushed = self._write_document(doc, type_ids)
                    written.append((doc, doc_id, flushed))
                if corpus_id is not None:
                    self._conn.execute(
                        "INSERT OR IGNORE INTO corpora_documents"
                        " (corpus_id, document_id) VALUES (?, ?)",
                        (corpus_id, doc_id))
        for doc, doc_id, flushed in written:
            self._adopt_flushed(doc, doc_id, flushed)
        return stored

    def checkpoint(self, doc: Document) -> int:
        """Write exactly the dirty annotations; returns how many. The
        document row is marshal's business, not checkpoint's."""
        if doc.id is None:
            raise StoreError("checkpoint before first marshal")
        if not doc.dirty:
            return 0
        written = len(doc.dirty)
        with self._conn:
            flushed = self._flush_annotations(doc, doc.id, self._type_ids())
        self._adopt_flushed(doc, doc.id, flushed)
        return written

    def unmarshal_document(self, doc_id: int) -> Document:
        """Rebuild a document and its full annotation index from rows.
        The result starts clean: nothing is marked dirty."""
        with _bulk_load():
            row = self._conn.execute(
                "SELECT name, source, size, data, content FROM documents"
                " WHERE id = ?", (doc_id,)
            ).fetchone()
            if row is None:
                raise NotFoundError(f"no document with id {doc_id}")
            name, _, _, data, content = row
            doc = Document(name=name, content=content, doc_id=doc_id,
                           metadata=_loads(data))
            type_names = dict(self._conn.execute(
                "SELECT id, name FROM annotation_types"))
            # Rows stream from the cursor a block at a time; it is closed
            # on every exit, so a failed open holds no read on the file.
            cur = self._conn.execute(
                'SELECT id, start, "end", type_id, value, provenance, data,'
                ' json_valid(data) FROM annotations WHERE document_id = ?'
                ' ORDER BY start, "end", id', (doc_id,))
            try:
                # Rows of one span are adjacent, so they share one (frozen)
                # Interval; equal value and provenance texts share one
                # object, as type names do through type_names.
                span = None
                texts = {}
                share = texts.setdefault
                add = doc.index.add
                while rows := cur.fetchmany(_OPEN_BLOCK):
                    *fields, data, valid = zip(*rows)
                    attributes = _loads_block(data, valid)
                    for ann_id, start, end, type_id, value, prov in zip(
                            *fields):
                        type_name = type_names.get(type_id)
                        if type_name is None:
                            raise DanglingReferenceError(
                                f"unknown annotation type id {type_id}")
                        if (span is None or span.start != start
                                or span.end != end):
                            span = Interval(start, end)
                        add(Annotation(span, type_name, share(value, value),
                                       next(attributes), share(prov, prov),
                                       ann_id))
            finally:
                cur.close()
            # The rows are in memory now; sqlite's pages of them are not
            # kept as a second copy.
            self._conn.execute("PRAGMA shrink_memory")
            return doc

    def _find(self, table: str, name: str) -> int | None:
        """The id of the first row of ``table`` named ``name``."""
        row = self._conn.execute(
            f'SELECT id FROM "{table}" WHERE name = ?', (name,)
        ).fetchone()
        return None if row is None else row[0]

    def find_document(self, name: str) -> int | None:
        return self._find("documents", name)

    # corpora

    def create_corpus(self, name: str, description: str = "",
                      metadata: dict | None = None) -> int:
        try:
            with self._conn:
                cur = self._conn.execute(
                    "INSERT INTO corpora (name, description, data)"
                    " VALUES (?, ?, ?)",
                    (name, description, canonical_json(metadata)),
                )
                return cur.lastrowid
        except sqlite3.IntegrityError as exc:
            raise ValidationError(
                f"corpus name {name!r} already exists"
            ) from exc

    def find_corpus(self, name: str) -> int | None:
        return self._find("corpora", name)

    def corpus_instances(self, corpus_id: int) -> list[tuple[int, str]]:
        return [(r[0], r[1]) for r in self._conn.execute(
            "SELECT id, kind FROM instances WHERE corpus_id = ?"
            " ORDER BY id", (corpus_id,)
        )]

    def _require_row(self, table: str, row_id: int) -> None:
        row = self._conn.execute(
            f'SELECT 1 FROM "{table}" WHERE id = ?', (row_id,)
        ).fetchone()
        if row is None:
            raise DanglingReferenceError(
                f"no row {row_id} in {table}"
            )

    # instances, instance sets, ground truth

    def create_instance(self, corpus_id: int, kind: str,
                        content_ids) -> int:
        """An instance points at its content rows; the kind dictates how
        many and of what sort (one document, a pair of annotations, or a
        set of documents)."""
        content_ids = list(content_ids)
        if kind not in _INSTANCE_KINDS:
            raise ValidationError(
                f"unknown instance kind {kind!r}; expected one of "
                + ", ".join(sorted(_INSTANCE_KINDS))
            )
        content_kind, lo, hi = _INSTANCE_KINDS[kind]
        if len(content_ids) < lo or (hi is not None and len(content_ids) > hi):
            wanted = str(lo) if hi == lo else (f">= {lo}" if hi is None
                                               else f"{lo}..{hi}")
            raise ValidationError(
                f"kind {kind!r} takes {wanted} content ids, "
                f"got {len(content_ids)}"
            )
        table = "documents" if content_kind == "document" else "annotations"
        self._require_row("corpora", corpus_id)
        for cid in content_ids:
            self._require_row(table, cid)
        with self._conn:
            return self._insert_instance(corpus_id, kind, content_kind,
                                         content_ids)

    def _insert_instance(self, corpus_id: int, kind: str,
                         content_kind: str, content_ids) -> int:
        """An instances row and its content rows, in the open transaction."""
        instance_id = self._conn.execute(
            "INSERT INTO instances (corpus_id, kind, data)"
            " VALUES (?, ?, '{}')", (corpus_id, kind)).lastrowid
        self._conn.executemany(
            "INSERT INTO instances_content"
            " (instance_id, content_kind, content_id) VALUES (?, ?, ?)",
            [(instance_id, content_kind, cid) for cid in content_ids])
        return instance_id

    def create_document_instances(self, corpus_id: int) -> int:
        """A ``document`` instance for each document of the corpus that has
        none in it yet, all in one transaction, so a rerun creates none.
        Returns how many were created."""
        self._require_row("corpora", corpus_id)
        with self._conn:
            missing = [r[0] for r in self._conn.execute(
                "SELECT document_id FROM corpora_documents"
                " WHERE corpus_id = ? AND document_id NOT IN ("
                "  SELECT c.content_id FROM instances i"
                "  JOIN instances_content c ON c.instance_id = i.id"
                "  WHERE i.corpus_id = ? AND i.kind = 'document')"
                " ORDER BY document_id", (corpus_id, corpus_id))]
            for document_id in missing:
                self._insert_instance(corpus_id, "document", "document",
                                      [document_id])
        return len(missing)

    def create_instance_set(self, corpus_id: int, name: str, purpose: str,
                            instance_ids) -> int:
        instance_ids = list(instance_ids)
        self._require_row("corpora", corpus_id)
        for iid in instance_ids:
            self._require_row("instances", iid)
        with self._conn:
            cur = self._conn.execute(
                "INSERT INTO instance_sets (corpus_id, name, purpose,"
                " data) VALUES (?, ?, ?, '{}')",
                (corpus_id, name, purpose),
            )
            set_id = cur.lastrowid
            self._conn.executemany(
                "INSERT INTO instance_set_members"
                " (instance_set_id, instance_id) VALUES (?, ?)",
                [(set_id, iid) for iid in instance_ids],
            )
            return set_id

    def instance_set_members(self, set_id: int) -> list[int]:
        return [r[0] for r in self._conn.execute(
            "SELECT instance_id FROM instance_set_members"
            " WHERE instance_set_id = ? ORDER BY instance_id", (set_id,)
        )]

    def set_groundtruth(self, instance_id: int, task: str, label: str,
                        data: dict | None = None) -> None:
        """Upsert on (instance_id, task): the latest label wins."""
        self._require_row("instances", instance_id)
        with self._conn:
            self._conn.execute(
                "INSERT INTO groundtruth (instance_id, task, label, data)"
                " VALUES (?, ?, ?, ?) ON CONFLICT (instance_id, task)"
                " DO UPDATE SET label = excluded.label,"
                " data = excluded.data",
                (instance_id, task, label, canonical_json(data)))

    def groundtruth_for(self, instance_id: int) -> list[tuple[str, str]]:
        return [(r[0], r[1]) for r in self._conn.execute(
            "SELECT task, label FROM groundtruth WHERE instance_id = ?"
            " ORDER BY task", (instance_id,)
        )]

    # graphs, as linkage rows (node1, node2, edge_label, node1_label,
    # node2_label); a node without edges is one row with a null far end

    def _insert_graph(self, name: str, graph_type: str, links) -> int:
        """A graphs row and its linkage rows, in the open transaction."""
        cur = self._conn.execute(
            "INSERT INTO graphs (name, type, data) VALUES (?, ?, '{}')",
            (name, graph_type))
        graph_id = cur.lastrowid
        self._conn.executemany(
            "INSERT INTO linkage_graph (graph_id, node1, node2, edge_label,"
            " node1_label, node2_label) VALUES (?, ?, ?, ?, ?, ?)",
            [(graph_id, *link) for link in links])
        return graph_id

    def create_graphs(self, graphs) -> list[int]:
        """Graphs given as (name, graph_type, links), all in one
        transaction. Returns their ids in the order given."""
        with self._conn:
            return [self._insert_graph(name, graph_type, links)
                    for name, graph_type, links in graphs]

    def find_graph(self, name: str) -> int | None:
        return self._find("graphs", name)

    def graph_links(self, graph_id: int) -> tuple[str, str, list]:
        """A graph's name, type and linkage rows in insertion order."""
        head = self._conn.execute(
            "SELECT name, type FROM graphs WHERE id = ?", (graph_id,)
        ).fetchone()
        if head is None:
            raise DanglingReferenceError(f"no graph with id {graph_id}")
        rows = self._conn.execute(
            "SELECT node1, node2, edge_label, node1_label, node2_label"
            " FROM linkage_graph WHERE graph_id = ? ORDER BY rowid",
            (graph_id,)).fetchall()
        return head[0], head[1], rows

    def graphs_of_type(self, graph_type: str) -> list[tuple[int, str, list]]:
        """Every graph of one type as (id, name, linkage rows), ordered by
        id, its rows in insertion order. A graph without linkage rows
        comes with an empty list. Two scans, neither of which sorts: the
        graphs by primary key, and the linkage rows in rowid order, each
        joined to its graph by primary key and grouped by graph id."""
        heads = self._conn.execute(
            "SELECT id, name FROM graphs WHERE type = ? ORDER BY id",
            (graph_type,)).fetchall()
        links = {graph_id: [] for graph_id, _ in heads}
        for row in self._conn.execute(
                "SELECT l.graph_id, l.node1, l.node2, l.edge_label,"
                " l.node1_label, l.node2_label"
                " FROM linkage_graph AS l JOIN graphs AS g"
                " ON g.id = l.graph_id"
                " WHERE g.type = ? ORDER BY l.rowid", (graph_type,)):
            links[row[0]].append(row[1:])
        return [(graph_id, name, links[graph_id]) for graph_id, name in heads]

    def create_mining_results(self, patterns) -> list[tuple[int, int]]:
        """In one transaction, in place of the mining results stored
        before: per pattern (name, graph_type, links, support, data,
        occurrences) a graph plus its sig_subgraph row, and an lg_sigsub
        row per embedding in occurrences, (stored graph id, embeddings)
        pairs, an embedding being a tuple of integer host nodes by pattern
        node.
        Returns (graph id, sig_subgraph id) per pattern."""
        ids, found, checked = [], [], set()
        with self._conn:
            for table, column in (("linkage_graph", "graph_id"),
                                  ("graphs", "id")):
                self._conn.execute(
                    f"DELETE FROM {table} WHERE {column} IN"
                    " (SELECT subgraph_graph_id FROM sig_subgraph)")
            self._conn.execute("DELETE FROM sig_subgraph")
            self._conn.execute("DELETE FROM lg_sigsub")
            for name, graph_type, links, support, data, occurrences \
                    in patterns:
                graph_id = self._insert_graph(name, graph_type, links)
                sig_id = self._conn.execute(
                    "INSERT INTO sig_subgraph (subgraph_graph_id, support,"
                    " data) VALUES (?, ?, ?)",
                    (graph_id, support, canonical_json(data))).lastrowid
                ids.append((graph_id, sig_id))
                for host_id, embeddings in occurrences:
                    if host_id not in checked:
                        self._require_row("graphs", host_id)
                        checked.add(host_id)
                    found.append((host_id, sig_id, embeddings))
            self._conn.executemany(
                "INSERT INTO lg_sigsub (graph_id, sig_subgraph_id,"
                " node_mapping) VALUES (?, ?, ?)",
                ((host_id, sig_id, _node_mapping(emb))
                 for host_id, sig_id, embeddings in found
                 for emb in embeddings))
        return ids
