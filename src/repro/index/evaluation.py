"""Accuracy evaluation: binary codes vs Euclidean ground truth.

Section II-A's premise is that quantized Hamming codes are "a viable
alternative to Euclidean space encodings" (citing Lin et al.), with
"some information ... lost as quantization narrows the possible dynamic
range".  This module quantifies that trade for the library's own ITQ
pipeline: exact Euclidean kNN over the real features is the ground
truth, Hamming kNN over the codes is the candidate, and recall@k is
reported as a function of code length — the knob that also sets the AP
resource cost (``2d`` STEs per vector per dimension).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util.bitops import pack_bits
from ..util.topk import hamming_topk, topk_from_distances
from .itq import ITQQuantizer

__all__ = ["CodeAccuracy", "euclidean_ground_truth", "evaluate_code_length",
           "code_length_sweep"]


@dataclass
class CodeAccuracy:
    """Recall of one code configuration against Euclidean ground truth."""

    n_bits: int
    k: int
    recall_at_k: float
    recall_at_1: float
    mean_distance_ratio: float  # retrieved Euclidean dist / optimal, >= 1


def euclidean_ground_truth(
    features: np.ndarray, queries: np.ndarray, k: int
) -> np.ndarray:
    """Exact Euclidean kNN indices, shape ``(q, k)``."""
    features = np.asarray(features, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    for qi in range(queries.shape[0]):
        dist = np.linalg.norm(features - queries[qi], axis=1)
        idx, _ = topk_from_distances(dist, k)
        out[qi] = idx
    return out


def evaluate_code_length(
    features: np.ndarray,
    queries: np.ndarray,
    n_bits: int,
    k: int,
    n_iterations: int = 30,
    seed: int = 0,
    truth: np.ndarray | None = None,
) -> CodeAccuracy:
    """Recall@k of ``n_bits`` ITQ codes against Euclidean ground truth."""
    features = np.asarray(features, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    if truth is None:
        truth = euclidean_ground_truth(features, queries, k)
    itq = ITQQuantizer(n_bits, n_iterations=n_iterations, seed=seed).fit(features)
    codes = pack_bits(itq.transform(features))
    qcodes = pack_bits(itq.transform(queries))

    found, _ = hamming_topk(qcodes, codes, k, n_bits)
    hits = hits1 = 0
    ratio_sum = 0.0
    for qi, idx in enumerate(found):
        truth_set = set(truth[qi].tolist())
        hits += len(set(idx.tolist()) & truth_set)
        hits1 += int(idx[0] in truth_set)
        # distance quality of the top-1 retrieval
        opt = np.linalg.norm(features[truth[qi][0]] - queries[qi])
        got = np.linalg.norm(features[idx[0]] - queries[qi])
        ratio_sum += got / opt if opt > 0 else 1.0
    n_q = queries.shape[0]
    return CodeAccuracy(
        n_bits=n_bits,
        k=k,
        recall_at_k=hits / (n_q * k),
        recall_at_1=hits1 / n_q,
        mean_distance_ratio=ratio_sum / n_q,
    )


def code_length_sweep(
    features: np.ndarray,
    queries: np.ndarray,
    bit_lengths=(16, 32, 64, 128),
    k: int = 10,
    seed: int = 0,
) -> list[CodeAccuracy]:
    """Recall vs code length (Table II's 64/128/256 regime in miniature)."""
    features = np.asarray(features, dtype=np.float64)
    usable = [b for b in bit_lengths if b <= features.shape[1]]
    truth = euclidean_ground_truth(features, queries, k)
    return [
        evaluate_code_length(features, queries, b, k, seed=seed, truth=truth)
        for b in usable
    ]
