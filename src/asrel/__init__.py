"""Type-of-relationship inference for AS-level Internet topologies.

Infers customer-to-provider, provider-to-customer, peer-to-peer, and
sibling labels on the edges of an AS graph built from BGP or traceroute
path corpora.  The algorithm votes on edge orientations relative to a
small densely connected core, then propagates labels outward until a
fixpoint.  See :mod:`asrel.pipeline` for the high level entry point and
:mod:`asrel.cli` for the command line tool.
"""

from .core import (
    CoreGraph,
    corrupt_core,
    greedy_max_clique,
    grow_core,
    k_max_core,
    k_shell_decompose,
    load_external_core,
    read_core_file,
    write_core_file,
)
from .engine import InferenceConfig
from .errors import (
    AsrelError,
    ConfigurationError,
    CorruptionInfeasibleError,
    EmptyCoreError,
    ParameterError,
    ParseError,
    SelfLoopError,
    UnknownEdgeError,
)
from .graph import (
    AsGraph,
    AsPath,
    Classification,
    EdgeKey,
    RelType,
    VoteTally,
    edge_key,
    oriented,
)
from .heuristics import HeuristicConfig
from .ingest import SiblingSet, build_graph, ingest_paths, load_corpus, load_sibling_pairs
from .metrics import ReferenceSet, compare, load_reference, stability
from .pipeline import (
    RunResult,
    core_size_sweep,
    corruption_sweep,
    run_inference,
    summarize,
)
from .synth import GenConfig, GroundTruth, NoiseConfig, generate, sample_paths

__version__ = "0.1.0"

__all__ = [
    "AsGraph",
    "AsPath",
    "AsrelError",
    "Classification",
    "ConfigurationError",
    "CoreGraph",
    "CorruptionInfeasibleError",
    "EdgeKey",
    "EmptyCoreError",
    "GenConfig",
    "GroundTruth",
    "HeuristicConfig",
    "InferenceConfig",
    "NoiseConfig",
    "ParameterError",
    "ParseError",
    "ReferenceSet",
    "RelType",
    "RunResult",
    "SelfLoopError",
    "SiblingSet",
    "UnknownEdgeError",
    "VoteTally",
    "build_graph",
    "compare",
    "core_size_sweep",
    "corrupt_core",
    "corruption_sweep",
    "edge_key",
    "generate",
    "greedy_max_clique",
    "grow_core",
    "ingest_paths",
    "k_max_core",
    "k_shell_decompose",
    "load_corpus",
    "load_external_core",
    "load_reference",
    "load_sibling_pairs",
    "oriented",
    "read_core_file",
    "run_inference",
    "sample_paths",
    "stability",
    "summarize",
    "write_core_file",
]
