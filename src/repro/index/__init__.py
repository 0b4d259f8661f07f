"""Spatial indexing substrates: ITQ quantization, kd-trees, k-means, LSH,
and the host-traversal + AP-bucket-scan integration of Section III-D."""

from .base import SpatialIndex
from .evaluation import CodeAccuracy, code_length_sweep, euclidean_ground_truth, evaluate_code_length
from .itq import ITQQuantizer
from .kdtree import RandomizedKDTrees
from .kmeans import HierarchicalKMeans
from .lsh import HammingLSH
from .search import IndexedAPSearch, IndexedSearchStats, indexed_runtime_model

__all__ = [
    "SpatialIndex",
    "CodeAccuracy",
    "code_length_sweep",
    "euclidean_ground_truth",
    "evaluate_code_length",
    "ITQQuantizer",
    "RandomizedKDTrees",
    "HierarchicalKMeans",
    "HammingLSH",
    "IndexedAPSearch",
    "IndexedSearchStats",
    "indexed_runtime_model",
]
