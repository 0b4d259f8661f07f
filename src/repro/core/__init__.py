"""The paper's core contribution: the kNN automata design and engine.

Exposes the Hamming/sorting macro builders (Fig. 2), the symbol-stream
codec (Fig. 2c / Fig. 3), the exact functional model, and the top-level
:class:`APSimilaritySearch` engine with partial reconfiguration.
"""

from .dataset import (
    DatasetFormatError,
    PackedDataset,
    read_pds_header,
    verify_pds,
    write_pds,
)
from .engine import APSimilaritySearch, KnnResult
from .index_automata import IndexGatedSearch
from .multiboard import MultiBoardSearch, balanced_shard_bounds
from .functional import FunctionalKnnBoard
from .jaccard import JaccardThresholdFilter
from .macros import (
    MacroConfig,
    MacroHandles,
    build_knn_network,
    build_vector_macro,
    collector_tree_depth,
    macro_ste_cost,
)
from .stream import (
    StreamLayout,
    decode_report_offset,
    decode_report_offsets,
    encode_query,
    encode_query_batch,
)

__all__ = [
    "APSimilaritySearch",
    "KnnResult",
    "DatasetFormatError",
    "PackedDataset",
    "read_pds_header",
    "verify_pds",
    "write_pds",
    "MultiBoardSearch",
    "balanced_shard_bounds",
    "IndexGatedSearch",
    "FunctionalKnnBoard",
    "JaccardThresholdFilter",
    "MacroConfig",
    "MacroHandles",
    "build_knn_network",
    "build_vector_macro",
    "collector_tree_depth",
    "macro_ste_cost",
    "StreamLayout",
    "decode_report_offset",
    "decode_report_offsets",
    "encode_query",
    "encode_query_batch",
]
