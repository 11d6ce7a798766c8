"""Schema-based text understanding over case-relation event expressions.

A corpus is a sequence of ground events.  Memory schemas describe expected
event patterns tied together by relations; matching a schema against a
corpus yields a substitution and an anchor chain, and the memory rules
propagate truth along the relations.  A document is understandable when
every schema claims a contiguous segment, all events end up held true, and
a confirmed sequel chain of length at least two runs forward through it.

`import understory` gives the pipeline's entry points: loading and parsing
documents, matching, understanding, the memory fixpoint and the diagram.
Everything else lives in the submodule that defines it: model, matching,
memory, schema, story, textio, report and cli.
"""

from .matching import match_event
from .memory import MemoryState, run_fixpoint, run_fixpoint_group
from .model import RELATION_LABELS, EventExpression, Var, Word, variables_of
from .schema import (
    SchemaDocument,
    SegmentationFailure,
    build_instance,
    match_sequence,
    understand,
)
from .story import build_understanding_diagram, export_dot
from .textio import (
    SourceError,
    load_corpus,
    load_schema_file,
    parse_corpus,
    parse_schema_file,
)

__version__ = "0.1.0"

__all__ = [
    "RELATION_LABELS",
    "EventExpression",
    "MemoryState",
    "SchemaDocument",
    "SegmentationFailure",
    "SourceError",
    "Var",
    "Word",
    "build_instance",
    "build_understanding_diagram",
    "export_dot",
    "load_corpus",
    "load_schema_file",
    "match_event",
    "match_sequence",
    "parse_corpus",
    "parse_schema_file",
    "run_fixpoint",
    "run_fixpoint_group",
    "understand",
    "variables_of",
]
