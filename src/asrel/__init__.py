"""Type-of-relationship inference for AS-level Internet topologies.

Infers customer-to-provider, provider-to-customer, peer-to-peer, and
sibling labels on the edges of an AS graph built from BGP or traceroute
path corpora.  The algorithm votes on edge orientations relative to a
small densely connected core, then propagates labels outward until a
fixpoint.  See :mod:`asrel.pipeline` for the high level entry point and
:mod:`asrel.cli` for the command line tool.

The names below are the ones the README and the demos use; everything
else is imported from its submodule.
"""

from .core import (
    CoreGraph,
    greedy_max_clique,
    grow_core,
    k_max_core,
    k_shell_decompose,
    load_external_core,
)
from .graph import AsPath, edge_key
from .ingest import build_graph, ingest_paths
from .metrics import ReferenceSet, stability
from .pipeline import core_size_sweep, corruption_sweep, run_inference, summarize
from .synth import GenConfig, NoiseConfig, generate, sample_paths

__all__ = [
    "AsPath",
    "CoreGraph",
    "GenConfig",
    "NoiseConfig",
    "ReferenceSet",
    "build_graph",
    "core_size_sweep",
    "corruption_sweep",
    "edge_key",
    "generate",
    "greedy_max_clique",
    "grow_core",
    "ingest_paths",
    "k_max_core",
    "k_shell_decompose",
    "load_external_core",
    "run_inference",
    "sample_paths",
    "stability",
    "summarize",
]
