"""Every direct entry point checks bits in the dtype they arrived in.

A cast to uint8 before the 0/1 check would turn 256 into 0 and 0.5
into 0, and the entry point would answer for rows nobody passed.  Each
case hands one entry point a ``non_binary`` array — dataset rows or
queries — and expects a ``ValueError`` instead.
"""

import numpy as np
import pytest

from repro.baselines.cpu import CPUHammingKnn
from repro.baselines.fpga import FPGAKnnAccelerator
from repro.core.dataset import ArrayStore, ShmStore
from repro.core.index_automata import IndexGatedSearch
from repro.index.kdtree import RandomizedKDTrees
from repro.index.lsh import HammingLSH
from repro.index.search import IndexedAPSearch

ROWS = np.random.default_rng(3).integers(0, 2, (32, 16), dtype=np.uint8)


def _kd():
    return RandomizedKDTrees(ROWS, n_trees=2, bucket_size=8)


ENTRY_POINTS = {
    "cpu": lambda bad: CPUHammingKnn(bad),
    "cpu.search": lambda bad: CPUHammingKnn(ROWS).search(bad, 3),
    "cpu.search_priority_queue":
        lambda bad: CPUHammingKnn(ROWS).search_priority_queue(bad[0], 3),
    "fpga": lambda bad: FPGAKnnAccelerator(bad),
    "fpga.search": lambda bad: FPGAKnnAccelerator(ROWS).search(bad, 3),
    "index": lambda bad: RandomizedKDTrees(bad),
    "index.search": lambda bad: _kd().search(bad, 3),
    "index.scan": lambda bad: _kd().scan(bad, [[0]] * len(bad), 3),
    "kdtree.query_buckets": lambda bad: _kd().query_buckets(bad[0]),
    "lsh.query_buckets":
        lambda bad: HammingLSH(ROWS, hash_bits=4).query_buckets(bad[0]),
    "indexed_ap.search": lambda bad: IndexedAPSearch(_kd()).search(bad, 3),
    "index_automata": lambda bad: IndexGatedSearch(bad, 2),
    "index_automata.search":
        lambda bad: IndexGatedSearch(ROWS, 2).search(bad, 3),
    "index_automata.query_bucket":
        lambda bad: IndexGatedSearch(ROWS, 2).query_bucket(bad[0]),
    "array_store": lambda bad: ArrayStore(bad),
    "shm_store": lambda bad: ShmStore.export(bad),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_non_bits_are_rejected_before_narrowing(entry, non_binary):
    with pytest.raises(ValueError, match="binary|only 0 and 1"):
        ENTRY_POINTS[entry](non_binary(ROWS))
