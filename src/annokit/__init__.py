"""annokit: stand-off annotation toolkit for clinical text.

Source text is never modified; every layer of analysis (tokens, sentences,
sections, concepts, graphs) lives in annotations that point back into the
text by character offset. The package provides interval algebra over those
offsets, a start-sorted interval index with relation-aware pruning, a
relational persistence layer, rule-driven section detection, dictionary
concept tagging, frequent-subgraph mining, and inline-XML-to-standoff
conversion.
"""

from .concepts import Lexicon, annotate_concepts, annotate_sp_pos, annotate_tuis, load_lexicon
from .config import PipelineConfig, load_config, parse_config_text
from .documents import (
    Annotation,
    Document,
    SegmentContext,
    export_annotations,
    import_external_annotations,
    segment_context,
    split_sentences,
    tokenize,
)
from .errors import (
    AnnokitError,
    BoundsError,
    ConfigError,
    ConflictError,
    ConversionError,
    DanglingReferenceError,
    DuplicateEntryError,
    GuidelineError,
    ImportFormatError,
    LexiconError,
    MigrationRequiredError,
    NotFoundError,
    OrderError,
    OverlapError,
    StoreError,
    ValidationError,
)
from .graphs import (
    LabeledGraph,
    MinedPattern,
    build_dependency_graph,
    build_sentence_graphs,
    canonical_code,
    find_subgraph_occurrences,
    load_graph,
    load_graphs,
    mine_frequent_subgraphs,
    persist_graph,
    persist_graphs,
    persist_mining_results,
    read_graph_file,
    write_graph_file,
)
from .inline import (
    InlineRecord,
    OffsetConvention,
    convert,
    map_span,
    render_offsets,
    split_records,
)
from .intervals import AllenRelation, Interval, holds, inverse, relate
from .sections import Guideline, detect_sections, match_templates, parse_guideline
from .store import CdmStore
from .tree import IntervalTree

__version__ = "0.1.0"

__all__ = [
    "AllenRelation",
    "Annotation",
    "AnnokitError",
    "BoundsError",
    "CdmStore",
    "ConfigError",
    "ConflictError",
    "ConversionError",
    "DanglingReferenceError",
    "Document",
    "DuplicateEntryError",
    "Guideline",
    "GuidelineError",
    "ImportFormatError",
    "InlineRecord",
    "Interval",
    "IntervalTree",
    "LabeledGraph",
    "Lexicon",
    "LexiconError",
    "MigrationRequiredError",
    "MinedPattern",
    "NotFoundError",
    "OffsetConvention",
    "OrderError",
    "OverlapError",
    "PipelineConfig",
    "SegmentContext",
    "StoreError",
    "ValidationError",
    "annotate_concepts",
    "annotate_sp_pos",
    "annotate_tuis",
    "build_dependency_graph",
    "build_sentence_graphs",
    "canonical_code",
    "convert",
    "detect_sections",
    "export_annotations",
    "find_subgraph_occurrences",
    "holds",
    "import_external_annotations",
    "inverse",
    "load_config",
    "load_graph",
    "load_graphs",
    "load_lexicon",
    "map_span",
    "match_templates",
    "mine_frequent_subgraphs",
    "parse_config_text",
    "parse_guideline",
    "persist_graph",
    "persist_graphs",
    "persist_mining_results",
    "read_graph_file",
    "relate",
    "render_offsets",
    "segment_context",
    "split_records",
    "split_sentences",
    "tokenize",
    "write_graph_file",
    "__version__",
]
