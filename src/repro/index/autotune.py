"""FLANN-style index auto-tuning.

The paper's CPU baselines come from FLANN (Muja & Lowe), whose defining
feature is *automatic algorithm configuration*: pick the index family
and parameters that meet a target recall at the lowest search cost.
This module reproduces that loop for the three Hamming-space indexes:
evaluate a candidate grid on a held-out query sample against exact
ground truth, keep configurations meeting ``target_recall``, and return
the one with the smallest scan fraction (the dominant search cost for
bucketed indexes, and — via bucket loads — the dominant AP cost too).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..baselines.cpu import CPUHammingKnn
from ..util.bitops import as_bits
from .base import SpatialIndex
from .kdtree import RandomizedKDTrees
from .kmeans import HierarchicalKMeans
from .lsh import HammingLSH

__all__ = ["TunedIndex", "AutoTuner", "default_candidates"]


@dataclass
class TunedIndex:
    """One evaluated candidate configuration."""

    name: str
    params: dict
    recall: float
    scan_fraction: float
    mean_buckets: float
    build: Callable[[np.ndarray], SpatialIndex] = field(repr=False, default=None)

    @property
    def meets(self) -> bool:
        return self._target is not None and self.recall >= self._target

    _target: float | None = None


def default_candidates(bucket_size: int = 512, seed: int = 0) -> list[tuple[str, dict, Callable]]:
    """The default candidate grid over all three index families."""
    grid: list[tuple[str, dict, Callable]] = []
    for n_trees in (2, 4, 8):
        params = dict(n_trees=n_trees, bucket_size=bucket_size, seed=seed)
        grid.append(
            ("kd-tree", dict(params),
             lambda d, p=dict(params): RandomizedKDTrees(d, **p))
        )
    for branching in (4, 8, 16):
        params = dict(branching=branching, bucket_size=bucket_size, seed=seed)
        grid.append(
            ("k-means", dict(params),
             lambda d, p=dict(params): HierarchicalKMeans(d, **p))
        )
    for hash_bits, probes in ((8, 0), (10, 4), (12, 10)):
        params = dict(n_tables=4, hash_bits=hash_bits, n_probes=probes, seed=seed)
        grid.append(
            ("lsh", dict(params),
             lambda d, p=dict(params): HammingLSH(d, **p))
        )
    return grid


class AutoTuner:
    """Select the cheapest index configuration meeting a recall target."""

    def __init__(
        self,
        target_recall: float = 0.9,
        k: int = 10,
        sample_queries: int = 64,
        candidates: list | None = None,
        seed: int = 0,
    ):
        if not 0.0 < target_recall <= 1.0:
            raise ValueError("target_recall must be in (0, 1]")
        self.target_recall = float(target_recall)
        self.k = int(k)
        self.sample_queries = int(sample_queries)
        self.candidates = candidates if candidates is not None else default_candidates(seed=seed)
        self.seed = seed
        self.evaluations: list[TunedIndex] = []

    def tune(self, dataset_bits: np.ndarray) -> tuple[SpatialIndex, TunedIndex]:
        """Evaluate the grid; return (built best index, its evaluation).

        Raises ``RuntimeError`` when no candidate reaches the target —
        callers should then fall back to linear scan, as FLANN does.
        """
        dataset_bits = as_bits(dataset_bits, "dataset")
        rng = np.random.default_rng(self.seed)
        picks = rng.integers(0, dataset_bits.shape[0], size=self.sample_queries)
        queries = dataset_bits[picks]
        flips = rng.random(queries.shape) < 0.03
        queries = np.where(flips, 1 - queries, queries).astype(np.uint8)
        truth = CPUHammingKnn(dataset_bits).search(queries, self.k).indices

        self.evaluations = []
        for name, params, build in self.candidates:
            index = build(dataset_bits)
            _, _, stats = index.search(queries, self.k)
            recall = index.recall_at_k(queries, self.k, truth)
            ev = TunedIndex(
                name=name,
                params=params,
                recall=recall,
                scan_fraction=stats["scan_fraction"],
                mean_buckets=stats["mean_buckets"],
                build=build,
            )
            ev._target = self.target_recall
            self.evaluations.append(ev)

        viable = [e for e in self.evaluations if e.recall >= self.target_recall]
        if not viable:
            best = max(self.evaluations, key=lambda e: e.recall)
            raise RuntimeError(
                f"no candidate met recall {self.target_recall:.2f}; best was "
                f"{best.name} {best.params} at {best.recall:.2f} — fall back "
                "to linear scan"
            )
        winner = min(viable, key=lambda e: e.scan_fraction)
        return winner.build(dataset_bits), winner
