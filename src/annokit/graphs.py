"""Labeled directed graphs over sentence concepts, plus subgraph matching,
frequent-subgraph mining, node-edge-list persistence, and a flat
interchange format.

Dependency parses become graphs by merging each token into the concept
annotation covering it; leftover tokens stand alone.

Matching and mining share one breadth-first step over embedding lists
(an embedding is a tuple of host nodes indexed by pattern node): it
turns the embeddings of a pattern into those of the pattern grown by one
edge, extending each through the host neighbours of a mapped node's
image when the edge brings a new node, and keeping those whose images
the host links when it joins two mapped nodes. Matching folds the step
over the pattern's nodes; the lookups behind it are built once per host.

Mining grows connected patterns breadth-first and deduplicates them by a
canonical code (the lexicographically minimal encoding over all node
orderings), which is exact at the small pattern sizes this targets.
Each pattern carries its embeddings in every graph that supports it, and
a candidate's are its parent's extended by the candidate's new edge, so
support is counted without searching again (the occurrence lists of
gSpan, Yan & Han, ICDM 2002, and GASTON, Nijssen & Kok, KDD 2004).
Support is anti-monotone, so only the parent's graphs are visited.
Likewise a graph that embeds a pattern holds each of its (source label,
edge label, target label) triples, so patterns grow only by triples that
at least ``min_support`` graphs hold, and a candidate's new triple rules
out the parent's graphs that lack it before any extension step (the
level-1 pruning of FSG, Kuramochi & Karypis, ICDM 2001, and of gSpan).
"""

import itertools
import logging
from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass, field

from .documents import (
    Annotation,
    Document,
    _escape,
    _unescape,
    content_lines,
    open_text,
)
from .errors import ImportFormatError, ValidationError
from .store import CdmStore

log = logging.getLogger(__name__)

MAX_CANONICAL_NODES = 8

# A canonical code's separators are backslash-escaped inside labels, so
# that no two different graphs render to the same code.
_CODE_ESCAPES = str.maketrans({char: "\\" + char for char in "\\,#;>:"})


@dataclass
class LabeledGraph:
    """Directed labeled graph with dense node ids 0..N-1.

    ``nodes[i]`` is node i's label; edges are (src, dst, label) triples.
    """

    nodes: list[str]
    edges: list[tuple[int, int, str]] = field(default_factory=list)
    name: str = ""
    graph_type: str = ""
    id: int | None = None
    skipped_dependencies: int = 0

    def __post_init__(self):
        n = len(self.nodes)
        for src, dst, label in self.edges:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValidationError(
                    f"edge ({src},{dst},{label!r}) endpoint out of range"
                )
            if src == dst:
                raise ValidationError(f"self-loop on node {src}")


# ``embeddings`` holds one list per graph, in ``graph_ids`` order: the
# pattern's embeddings there, as ``find_subgraph_occurrences`` orders
# them, each a tuple of host nodes indexed by pattern node. ``code`` is
# the pattern's ``canonical_code``, computed once while mining.
MinedPattern = namedtuple("MinedPattern",
                          "pattern support graph_ids embeddings code")


# construction from annotations

def _int_attr(ann: Annotation, key: str):
    raw = ann.attributes.get(key)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        return None


def build_dependency_graph(doc: Document, sentence: Annotation,
                           dependencies: list[Annotation],
                           concepts: list[Annotation]) -> LabeledGraph:
    """One graph for one sentence.

    Nodes: every concept annotation covering at least one token, labeled
    by its value, then every uncovered token, labeled by its lowercased
    text; ordered by span. Edges: dependency annotations whose attributes
    name head and dependent token spans; direction is head to dependent.
    Merging may collapse an edge into a self-loop, which is dropped, as
    are duplicate triples. Dependencies whose token spans are unknown in
    this sentence are skipped and counted on ``skipped_dependencies``.
    """
    # Every node is one key (start, end, kind, order, label): kind 0 for
    # a concept, ordered among the concepts by span, and kind 1 for a
    # token no concept claims, ordered by token index. A node's number is
    # its key's place in sorted order.
    tokens = doc.annotations_within(sentence.span, "token")
    starts = [token.span.start for token in tokens]  # ascending
    owner = {}  # token index -> key of the first concept covering it
    keys = []
    for order, concept in enumerate(sorted(
            concepts, key=lambda c: (c.span.start, c.span.end))):
        start, end = concept.span.start, concept.span.end
        inside = [n for n in range(bisect_left(starts, start),
                                   bisect_right(starts, end))
                  if tokens[n].span.end <= end]
        if inside:
            keys.append((start, end, 0, order, concept.value))
            for n in inside:
                owner.setdefault(n, keys[-1])
    for n, token in enumerate(tokens):
        if n not in owner:
            start, end = token.span.start, token.span.end
            owner[n] = (start, end, 1, n, doc.content[start:end].lower())
            keys.append(owner[n])
    keys.sort()
    number = {key: place for place, key in enumerate(keys)}
    nodes = [key[-1] for key in keys]
    node_of = {(token.span.start, token.span.end): number[owner[n]]
               for n, token in enumerate(tokens)}

    edges = []
    seen = set()
    skipped = 0
    for dep in dependencies:
        head = (_int_attr(dep, "head_start"), _int_attr(dep, "head_end"))
        dependent = (_int_attr(dep, "dependent_start"),
                     _int_attr(dep, "dependent_end"))
        if None in head or None in dependent \
                or head not in node_of or dependent not in node_of:
            skipped += 1
            log.warning("dependency %r references tokens outside the "
                        "sentence; skipped", dep.value)
            continue
        src, dst = node_of[head], node_of[dependent]
        if src == dst:
            continue  # collapsed by concept merging
        triple = (src, dst, dep.value)
        if triple not in seen:
            seen.add(triple)
            edges.append(triple)

    name = f"{doc.name}:{sentence.span.start}-{sentence.span.end}"
    return LabeledGraph(nodes=nodes, edges=edges, name=name,
                        graph_type="dependency",
                        skipped_dependencies=skipped)


def build_sentence_graphs(doc: Document) -> list[LabeledGraph]:
    """A dependency graph per sentence, for sentences that have tokens."""
    out = []
    for sentence in doc.annotations("sentence"):
        if not doc.annotations_within(sentence.span, "token"):
            continue
        deps = doc.annotations_within(sentence.span, "dependency")
        cuis = doc.annotations_within(sentence.span, "CUI")
        graph = build_dependency_graph(doc, sentence, deps, cuis)
        if graph.nodes:
            out.append(graph)
    return out


# matching

class _HostIndex:
    """Lookups over one host graph: its nodes by label, and its
    neighbours by (node, edge label) along and against the edges. Every
    node list is ascending (the edges are read in sorted order), so
    matches come out in the order of a scan over all host nodes."""

    __slots__ = ("nodes", "by_label", "out", "into")

    def __init__(self, graph: LabeledGraph):
        self.nodes = graph.nodes
        self.by_label = {}
        for node, label in enumerate(graph.nodes):
            self.by_label.setdefault(label, []).append(node)
        self.out, self.into = {}, {}
        for src, dst, label in sorted(set(graph.edges)):
            self.out.setdefault((src, label), []).append(dst)
            self.into.setdefault((dst, label), []).append(src)


def _step(host: _HostIndex, embeddings: list, edge, label=None) -> list:
    """The embeddings of a pattern grown by one edge or node, made from
    the embeddings of the pattern: tuples of host nodes indexed by
    pattern node, in ascending order, which the result keeps.

    With a label, the step adds a node of that label, whose index is the
    tuples' length. ``edge`` (src, dst, edge label) joins it, as its
    higher-numbered end, to a mapped node, and its image is sought among
    the host neighbours of that node's image; with no edge, among the
    host nodes of the label. Without a label, the edge joins two mapped
    nodes, and the embeddings whose images the host links by it stay."""
    if label is None:
        src, dst, edge_label = edge
        links = host.out
        return [emb for emb in embeddings
                if emb[dst] in links.get((emb[src], edge_label), ())]
    out = []
    if edge is None:
        candidates = host.by_label.get(label, ())
        for emb in embeddings:
            for h in candidates:
                if h not in emb:
                    out.append(emb + (h,))
        return out
    src, dst, edge_label = edge
    links, anchor = (host.into, dst) if src > dst else (host.out, src)
    nodes = host.nodes
    for emb in embeddings:
        for h in links.get((emb[anchor], edge_label), ()):
            if nodes[h] == label and h not in emb:
                out.append(emb + (h,))
    return out


def _embeddings(host: _HostIndex, pattern: LabeledGraph) -> list:
    """Every injective label/direction-preserving embedding, in ascending
    tuple order. Pattern node i joins through its first edge to an
    earlier node, or by its label when it has none; its other edges to
    earlier nodes then filter."""
    pending = [[] for _ in pattern.nodes]
    for edge in pattern.edges:
        pending[max(edge[0], edge[1])].append(edge)
    embeddings = [()]
    for i, label in enumerate(pattern.nodes):
        first, *checks = pending[i] or [None]
        embeddings = _step(host, embeddings, first, label)
        for edge in checks:
            embeddings = _step(host, embeddings, edge)
    return embeddings


def find_subgraph_occurrences(host: LabeledGraph, pattern: LabeledGraph
                              ) -> list[tuple[int, ...]]:
    """All embeddings of the pattern in the host, each a tuple of host
    nodes indexed by pattern node, in ascending order. Non-induced: the
    host may have extra edges among the mapped nodes."""
    return _embeddings(_HostIndex(host), pattern)


# canonical form and mining

def canonical_code(graph: LabeledGraph) -> str:
    """Label-ordering-invariant encoding: the lexicographically smallest
    rendering over all node permutations. Exact but factorial; guarded
    to small graphs. Separators inside labels are escaped, so that they
    cannot make two different graphs render alike. The graph without
    nodes encodes as the empty string; every other code contains ``#``."""
    n = len(graph.nodes)
    if n == 0:
        return ""
    if n > MAX_CANONICAL_NODES:
        raise ValidationError(
            f"canonical code limited to {MAX_CANONICAL_NODES} nodes, "
            f"got {n}"
        )
    nodes = [label.translate(_CODE_ESCAPES) for label in graph.nodes]
    graph_edges = [(s, d, l.translate(_CODE_ESCAPES))
                   for s, d, l in graph.edges]
    best = None
    for perm in itertools.permutations(range(n)):
        position = {old: new for new, old in enumerate(perm)}
        labels = ",".join(nodes[old] for old in perm)
        edges = sorted((position[s], position[d], l)
                       for s, d, l in graph_edges)
        code = labels + "#" + ";".join(f"{s}>{d}:{l}" for s, d, l in edges)
        if best is None or code < best:
            best = code
    return best


def mine_frequent_subgraphs(graphs: list[LabeledGraph], min_support: int,
                            max_nodes: int = 4) -> list[MinedPattern]:
    """Every connected pattern with <= max_nodes nodes occurring in at
    least min_support distinct graphs.

    Support counts graphs, not embeddings. Growth is breadth-first from
    frequent single nodes, extending by one edge at a time (to a new
    node or between existing nodes), so anti-monotonicity guarantees
    completeness, and lets a candidate's support be counted among the
    graphs of the pattern it grew from alone, by extending the parent's
    embeddings there; the count stops once too few graphs are left to
    reach min_support. Edges grow only by triples held by at least
    min_support graphs, and only in the graphs that hold the new one.
    Single nodes seed from one pass that lists the graphs holding each
    label; a label held by fewer than min_support graphs costs nothing
    more, and the rest embed as their holders' nodes of that label.
    Every embedding of each result is kept on it.
    Output order: node count, then canonical code.
    """
    if min_support < 1:
        raise ValidationError(f"min_support must be >= 1, got {min_support}")
    if max_nodes < 1:
        raise ValidationError(f"max_nodes must be >= 1, got {max_nodes}")
    if max_nodes > MAX_CANONICAL_NODES:
        raise ValidationError(
            f"max_nodes above {MAX_CANONICAL_NODES} is not supported"
        )
    if not graphs:
        return []

    ids = [g.id if g.id is not None else n for n, g in enumerate(graphs)]
    hosts = [_HostIndex(g) for g in graphs]
    holding = {}  # node label -> graphs that hold it, ascending
    for n, host in enumerate(hosts):
        for label in host.by_label:
            holding.setdefault(label, []).append(n)
    holders = {}  # (source label, edge label, target label) -> graphs
    for n, g in enumerate(graphs):
        for s, d, l in g.edges:
            holders.setdefault((g.nodes[s], l, g.nodes[d]), set()).add(n)
    triples = sorted(triple for triple, held in holders.items()
                     if len(held) >= min_support)

    def found(pattern, code, members):
        """The result for a pattern, its code and its supporting graphs,
        each given as (position, embeddings)."""
        return MinedPattern(pattern, len(members),
                            [ids[n] for n, _ in members],
                            [embeddings for _, embeddings in members], code)

    mined = {}
    frontier = []
    for label in sorted(holding):
        held = holding[label]
        if len(held) < min_support:
            continue
        pattern = LabeledGraph(nodes=[label], graph_type="pattern")
        members = [(n, [(h,) for h in hosts[n].by_label[label]])
                   for n in held]
        code = canonical_code(pattern)
        mined[code] = found(pattern, code, members)
        frontier.append((pattern, members))

    while frontier:
        next_frontier = []
        for pattern, parent_members in frontier:
            for candidate in _extensions(pattern, triples, max_nodes):
                code = canonical_code(candidate)
                if code in mined:
                    continue
                edge = src, dst, edge_label = candidate.edges[-1]
                nodes = candidate.nodes
                label = nodes[-1] if len(nodes) > len(pattern.nodes) else None
                # A graph that embeds the candidate holds its new triple.
                held = holders[(nodes[src], edge_label, nodes[dst])]
                members = []
                spare = len(parent_members) - min_support
                for n, parent in parent_members:
                    embeddings = n in held and _step(hosts[n], parent, edge,
                                                     label)
                    if embeddings:
                        members.append((n, embeddings))
                    else:
                        spare -= 1
                        if spare < 0:  # min_support is out of reach
                            break
                mined[code] = None  # infrequent candidates stay blocked
                if len(members) >= min_support:
                    mined[code] = found(candidate, code, members)
                    next_frontier.append((candidate, members))
        frontier = next_frontier

    results = [entry for entry in mined.values() if entry is not None]
    results.sort(key=lambda r: (len(r.pattern.nodes), r.code))
    return results


def _extensions(pattern: LabeledGraph, triples, max_nodes):
    """Grow by one edge: attach a new node, or connect existing nodes."""
    n = len(pattern.nodes)
    present = set(pattern.edges)
    if n + 1 <= max_nodes:
        for i in range(n):
            for src_label, edge_label, dst_label in triples:
                if pattern.nodes[i] == src_label:
                    yield LabeledGraph(
                        nodes=pattern.nodes + [dst_label],
                        edges=pattern.edges + [(i, n, edge_label)],
                        graph_type="pattern")
                if pattern.nodes[i] == dst_label:
                    yield LabeledGraph(
                        nodes=pattern.nodes + [src_label],
                        edges=pattern.edges + [(n, i, edge_label)],
                        graph_type="pattern")
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for src_label, edge_label, dst_label in triples:
                if (pattern.nodes[i] == src_label
                        and pattern.nodes[j] == dst_label
                        and (i, j, edge_label) not in present):
                    yield LabeledGraph(
                        nodes=list(pattern.nodes),
                        edges=pattern.edges + [(i, j, edge_label)],
                        graph_type="pattern")


# persistence

def _links(graph: LabeledGraph) -> list[tuple]:
    """The graph as linkage rows: one per edge, plus one with a null far
    end per node without edges, so a reload reproduces every node."""
    touched = {s for s, _, _ in graph.edges} | {d for _, d, _ in graph.edges}
    rows = [(s, d, l, graph.nodes[s], graph.nodes[d])
            for s, d, l in graph.edges]
    rows += [(n, None, None, graph.nodes[n], None)
             for n in range(len(graph.nodes)) if n not in touched]
    return rows


def persist_graphs(store: CdmStore, graphs: list[LabeledGraph]
                   ) -> list[int]:
    """Store the graphs with their linkage rows, all or nothing. Sets
    their ids only after the commit, and returns them."""
    ids = store.create_graphs(
        [(g.name, g.graph_type, _links(g)) for g in graphs])
    for graph, graph_id in zip(graphs, ids):
        graph.id = graph_id
    return ids


def persist_graph(store: CdmStore, graph: LabeledGraph) -> int:
    """Store one graph with its linkage rows; sets and returns its id."""
    return persist_graphs(store, [graph])[0]


def _graph_from_links(graph_id: int, name: str, graph_type: str,
                      rows) -> LabeledGraph:
    """A graph rebuilt from its linkage rows, nodes renumbered densely in
    the order of their stored numbers."""
    labels = {}
    for node1, node2, _, label1, label2 in rows:
        labels[node1] = label1
        if node2 is not None:
            labels[node2] = label2
    renumber = {old: new for new, old in enumerate(sorted(labels))}
    nodes = [labels[old] for old in sorted(labels)]
    edges = [(renumber[n1], renumber[n2], el)
             for n1, n2, el, _, _ in rows if n2 is not None]
    return LabeledGraph(nodes=nodes, edges=edges, name=name,
                        graph_type=graph_type, id=graph_id)


def load_graph(store: CdmStore, graph_id: int) -> LabeledGraph:
    name, graph_type, rows = store.graph_links(graph_id)
    return _graph_from_links(graph_id, name, graph_type, rows)


def load_graphs(store: CdmStore, graph_type: str) -> list[LabeledGraph]:
    """Every stored graph of one type, ordered by id."""
    return [_graph_from_links(graph_id, name, graph_type, rows)
            for graph_id, name, rows in store.graphs_of_type(graph_type)]


def persist_mining_results(store: CdmStore, results: list[MinedPattern]
                           ) -> list[int]:
    """Store each mined pattern (a graphs row of type "sig_subgraph" plus
    its sig_subgraph row) and its embeddings in every graph that supports
    it (lg_sigsub rows), all or nothing, in place of the mining results
    stored before. Returns the sig_subgraph ids. The results' graph ids
    must be persisted graph ids."""
    patterns = []
    for result in results:
        pattern = result.pattern
        if not pattern.name:
            pattern.name = f"pattern-{result.code}"
        pattern.graph_type = "sig_subgraph"
        patterns.append((pattern.name, pattern.graph_type, _links(pattern),
                         result.support, {"graph_ids": ",".join(
                             str(g) for g in result.graph_ids)},
                         zip(result.graph_ids, result.embeddings)))
    ids = store.create_mining_results(patterns)
    for result, (graph_id, _) in zip(results, ids):
        result.pattern.id = graph_id
    return [sig_id for _, sig_id in ids]


# interchange format

def write_graph_file(graphs: list[LabeledGraph], dest) -> int:
    """Flat node-edge-list format: a ``graph`` header line, then ``n``
    and ``e`` lines. Names, types and labels are written with the escapes
    of the annotation exchange format, so any text survives a round trip.
    Returns the number of graphs written."""
    with open_text(dest, "w") as handle:
        for g in graphs:
            gid = "" if g.id is None else str(g.id)
            handle.write(f"graph\t{gid}\t{_escape(g.name)}"
                         f"\t{_escape(g.graph_type)}\n")
            for n, label in enumerate(g.nodes):
                handle.write(f"n\t{n}\t{_escape(label)}\n")
            for s, d, l in g.edges:
                handle.write(f"e\t{s}\t{d}\t{_escape(l)}\n")
    return len(graphs)


def read_graph_file(src) -> list[LabeledGraph]:
    graphs = []
    current = None  # (id, name, type, labels dict, edges)

    def finish():
        if current is None:
            return
        gid, name, gtype, labels, edges = current
        nodes = [labels[k] for k in sorted(labels)]
        if sorted(labels) != list(range(len(nodes))):
            raise ImportFormatError(
                f"graph {name!r} has non-dense node ids")
        graphs.append(LabeledGraph(nodes=nodes, edges=edges, name=name,
                                   graph_type=gtype, id=gid))

    for lineno, line in content_lines(src):
        fields = line.split("\t")
        kind = fields[0]
        try:
            if kind == "graph" and len(fields) == 4:
                finish()
                gid = int(fields[1]) if fields[1] else None
                current = (gid, _unescape(fields[2]), _unescape(fields[3]),
                           {}, [])
            elif kind == "n" and len(fields) == 3 and current is not None:
                node = int(fields[1])
                if node in current[3]:
                    raise ValueError(f"node {node} is listed twice")
                current[3][node] = _unescape(fields[2])
            elif kind == "e" and len(fields) == 4 and current is not None:
                current[4].append((int(fields[1]), int(fields[2]),
                                   _unescape(fields[3])))
            else:
                raise ValueError(f"unrecognized line kind {kind!r}")
        except (ValueError, ValidationError) as exc:
            raise ImportFormatError(
                f"graph file line {lineno}: {exc}",
                line_numbers=(lineno,)) from exc
    try:
        finish()
    except ValidationError as exc:
        raise ImportFormatError(str(exc)) from exc
    return graphs
