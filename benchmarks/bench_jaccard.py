"""Ablation — Jaccard similarity on the AP (Section II-C).

Times the two Jaccard formulations and quantifies the threshold
filter's report-bandwidth reduction, the quantity that makes the
AP-as-pre-filter pattern attractive.
"""

import numpy as np
import pytest

from repro.core.jaccard import JaccardThresholdFilter, jaccard_similarity_matrix
from repro.core.workload import WorkloadSearch


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(91)
    data = (rng.random((2000, 64)) < 0.3).astype(np.uint8)
    data |= np.eye(2000, 64, dtype=np.uint8)  # no empty sets
    queries = data[rng.integers(0, 2000, size=64)].copy()
    flips = rng.random(queries.shape) < 0.05
    queries = np.where(flips, 1 - queries, queries).astype(np.uint8)
    return data, queries


def test_jaccard_topk(benchmark, report, corpus):
    data, queries = corpus
    search = WorkloadSearch(data, "jaccard", {"k": 5})
    res = benchmark(search.search, queries)
    sims = jaccard_similarity_matrix(queries, data)
    exact_top1 = sims.argmax(axis=1)
    agree = int((res.indices[:, 0] == exact_top1).sum())
    report(
        "Jaccard top-k via intersection temporal sort (n=2000, d=64)",
        ["Queries", "k", "Top-1 agrees with exact Jaccard"],
        [[64, 5, f"{agree}/64"]],
    )
    assert agree >= 62  # ties may pick a different equal-similarity vector


@pytest.mark.parametrize("tau", [8, 12, 16])
def test_jaccard_filter_reduction(benchmark, report, corpus, tau):
    data, queries = corpus
    filt = JaccardThresholdFilter(data, tau=tau)
    cands = benchmark(filt.candidates, queries)
    mean_c = float(np.mean([c.size for c in cands]))
    reduction = filt.reduction_factor(queries)
    # recall of the true best match within the candidate set
    sims = jaccard_similarity_matrix(queries, data)
    best = sims.argmax(axis=1)
    hit = sum(best[i] in set(cands[i].tolist()) for i in range(len(queries)))
    report(
        f"Jaccard threshold filter, tau={tau} (n=2000, d=64)",
        ["tau", "Candidates/query", "Report reduction", "Best-match recall"],
        [[tau, f"{mean_c:.1f}", f"{reduction:.1f}x", f"{hit}/64"]],
    )
    assert reduction > 1.0
    if tau <= 12:
        assert hit >= 60
