"""Labeled directed graphs over sentence concepts, plus subgraph matching,
frequent-subgraph mining, node-edge-list persistence, and a flat
interchange format.

Dependency parses become graphs by merging each token into the concept
annotation covering it; leftover tokens stand alone.

Matching maps pattern nodes in order and walks the host's adjacency: a
pattern node with an edge to an earlier node takes its candidates from
the host neighbours of that node's image, any other from the host nodes
of its label. The lookups behind this are built once per host.

Mining grows connected patterns breadth-first and deduplicates them by a
canonical code (the lexicographically minimal encoding over all node
orderings), which is exact at the small pattern sizes this targets.
Support is anti-monotone, so a candidate is tested only against the
graphs that support the pattern it was grown from, and a host that lacks
the candidate's node labels or (source label, edge label, target label)
triples is rejected before any matching (gSpan, Yan & Han, ICDM 2002,
restricts support counting in the same way).
"""

import itertools
import logging
from collections import Counter, namedtuple
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


@dataclass(frozen=True)
class SubgraphMapping:
    """An injective, label- and direction-preserving embedding of a
    subgraph pattern into a full graph."""

    graph_id: int | None
    subgraph_id: int | None
    node_map: dict

    def __hash__(self):
        return hash((self.graph_id, self.subgraph_id,
                     tuple(sorted(self.node_map.items()))))


MinedPattern = namedtuple("MinedPattern", "pattern support graph_ids")


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
    tokens = doc.annotations_within(sentence.span, "token")
    ordered_concepts = sorted(concepts,
                              key=lambda c: (c.span.start, c.span.end))

    covered: dict[int, int] = {}  # token index -> concept seed index
    seeds = []
    for concept in ordered_concepts:
        token_indexes = [
            n for n, t in enumerate(tokens)
            if t.span.start >= concept.span.start
            and t.span.end <= concept.span.end
        ]
        if not token_indexes:
            continue
        seed_index = len(seeds)
        seeds.append((concept.span, concept.value))
        for n in token_indexes:
            covered.setdefault(n, seed_index)

    token_seed: dict[tuple[int, int], int] = {}
    for n, token in enumerate(tokens):
        key = (token.span.start, token.span.end)
        if n in covered:
            token_seed[key] = covered[n]
        else:
            token_seed[key] = len(seeds)
            surface = doc.content[token.span.start:token.span.end]
            seeds.append((token.span, surface.lower()))

    order = sorted(range(len(seeds)),
                   key=lambda k: (seeds[k][0].start, seeds[k][0].end, k))
    renumber = {old: new for new, old in enumerate(order)}
    nodes = [seeds[old][1] for old in order]
    node_of = {span: renumber[seed] for span, seed in token_seed.items()}

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

    def linked(self, src: int, dst: int, label: str) -> bool:
        return dst in self.out.get((src, label), ())


def _assignments(host: _HostIndex, pattern: LabeledGraph):
    """Yield every injective label/direction-preserving embedding as a
    tuple indexed by pattern node, in ascending tuple order.

    Pattern node i takes its candidates from the host neighbours of an
    earlier node's image when it has an edge to an earlier node, and
    from the host nodes of its label otherwise; its other edges to
    earlier nodes are then checked against the host's adjacency."""
    n = len(pattern.nodes)
    pending = [[] for _ in range(n)]
    for src, dst, label in pattern.edges:
        pending[max(src, dst)].append((src, dst, label))

    assignment = [None] * n
    used = [False] * len(host.nodes)

    def extend(i):
        if i == n:
            yield tuple(assignment)
            return
        want = pattern.nodes[i]
        if pending[i]:
            (src, dst, label), *checks = pending[i]
            candidates = (host.into.get((assignment[dst], label), ())
                          if src == i
                          else host.out.get((assignment[src], label), ()))
        else:
            checks = ()
            candidates = host.by_label.get(want, ())
        for h in candidates:
            if used[h] or host.nodes[h] != want:
                continue
            if not all(host.linked(h if src == i else assignment[src],
                                   h if dst == i else assignment[dst], label)
                       for src, dst, label in checks):
                continue
            assignment[i] = h
            used[h] = True
            yield from extend(i + 1)
            used[h] = False
        assignment[i] = None

    yield from extend(0)


def find_subgraph_occurrences(host: LabeledGraph, pattern: LabeledGraph
                              ) -> list[SubgraphMapping]:
    """All embeddings of the pattern in the host. Non-induced: the host
    may have extra edges among the mapped nodes."""
    out = []
    for assignment in _assignments(_HostIndex(host), pattern):
        out.append(SubgraphMapping(
            graph_id=host.id, subgraph_id=pattern.id,
            node_map=dict(enumerate(assignment))))
    return out


def find_mined_occurrences(graphs: list[LabeledGraph],
                           results: list[MinedPattern]
                           ) -> list[SubgraphMapping]:
    """Every embedding of each mined pattern in each graph that supports
    it, ``subgraph_id`` being the pattern's position in ``results``.
    Ordered by pattern, then graph in ``graph_ids`` order, then as
    ``find_subgraph_occurrences`` orders them. Each host's lookups are
    built once, however many patterns it supports."""
    by_id = dict(zip(_mined_ids(graphs), graphs))
    hosts = {}
    out = []
    for n, result in enumerate(results):
        for graph_id in result.graph_ids:
            if graph_id not in hosts:
                hosts[graph_id] = _HostIndex(by_id[graph_id])
            for assignment in _assignments(hosts[graph_id], result.pattern):
                out.append(SubgraphMapping(
                    graph_id=graph_id, subgraph_id=n,
                    node_map=dict(enumerate(assignment))))
    return out


def _mined_ids(graphs: list[LabeledGraph]) -> list:
    """The ids mining reports the graphs by: their own, or their
    positions when they have none."""
    return [g.id if g.id is not None else n for n, g in enumerate(graphs)]


def _triples(graph: LabeledGraph) -> set:
    """The graph's (source label, edge label, target label) triples."""
    return {(graph.nodes[s], l, graph.nodes[d]) for s, d, l in graph.edges}


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
    graphs of the pattern it grew from alone. Output order: node count,
    then canonical code.
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

    ids = _mined_ids(graphs)
    hosts = [_HostIndex(g) for g in graphs]
    host_triples = [_triples(g) for g in graphs]
    labels = sorted({label for g in graphs for label in g.nodes})
    triples = sorted(set().union(*host_triples))

    def support_of(pattern, among):
        """The positions in ``among`` of the graphs containing pattern.
        A host must hold the pattern's triples, and as many nodes of a
        label as the pattern has (only a repeated label needs counting:
        the triples or the match itself find a missing one)."""
        needed = _triples(pattern)
        repeated = [(label, count)
                    for label, count in Counter(pattern.nodes).items()
                    if count > 1]
        return [n for n in among
                if needed <= host_triples[n]
                and all(len(hosts[n].by_label.get(label, ())) >= count
                        for label, count in repeated)
                and next(_assignments(hosts[n], pattern), None) is not None]

    def found(pattern, members):
        return MinedPattern(pattern, len(members), [ids[n] for n in members])

    mined = {}
    frontier = []
    for label in labels:
        pattern = LabeledGraph(nodes=[label], graph_type="pattern")
        members = support_of(pattern, range(len(graphs)))
        if len(members) >= min_support:
            mined[canonical_code(pattern)] = found(pattern, members)
            frontier.append((pattern, members))

    while frontier:
        next_frontier = []
        for pattern, parent_members in frontier:
            for candidate in _extensions(pattern, triples, max_nodes):
                code = canonical_code(candidate)
                if code in mined:
                    continue
                members = support_of(candidate, parent_members)
                mined[code] = None  # infrequent candidates stay blocked
                if len(members) >= min_support:
                    mined[code] = found(candidate, members)
                    next_frontier.append((candidate, members))
        frontier = next_frontier

    results = [entry for entry in mined.values() if entry is not None]
    results.sort(key=lambda r: (len(r.pattern.nodes),
                                canonical_code(r.pattern)))
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
    """Every stored graph of one type, ordered by id, read in one query."""
    return [_graph_from_links(graph_id, name, graph_type, rows)
            for graph_id, name, rows in store.graphs_of_type(graph_type)]


def persist_mining_results(store: CdmStore, results: list[MinedPattern],
                           mappings: list[SubgraphMapping] = ()
                           ) -> list[int]:
    """Store each mined pattern (a graphs row of type "sig_subgraph" plus
    its sig_subgraph row) and optional embeddings into lg_sigsub, all or
    nothing. Returns the sig_subgraph ids.

    Mapping.subgraph_id indexes into ``results``; mapping.graph_id must
    be a persisted graph id.
    """
    patterns = []
    for result in results:
        pattern = result.pattern
        if not pattern.name:
            pattern.name = f"pattern-{canonical_code(pattern)}"
        pattern.graph_type = "sig_subgraph"
        patterns.append((pattern.name, pattern.graph_type, _links(pattern),
                         result.support, {"graph_ids": ",".join(
                             str(g) for g in result.graph_ids)}))
    ids = store.create_mining_results(patterns, (
        (m.graph_id, m.subgraph_id,
         {str(k): str(v) for k, v in m.node_map.items()})
        for m in mappings))
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
                current[3][int(fields[1])] = _unescape(fields[2])
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
