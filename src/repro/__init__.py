"""repro: a full reproduction of "Similarity Search on Automata Processors"
(Lee et al., IPDPS 2017).

Subpackages
-----------
``repro.automata``
    NFA substrate: STEs/counters/booleans, ANML I/O, cycle-accurate
    vectorized simulator.
``repro.ap``
    Micron AP device model, compiler (placement/routing), runtime, and
    the Section VII architectural extensions.
``repro.core``
    The paper's contribution: Hamming + temporal-sort macros, symbol
    streams, the partitioned kNN engine, and the Section VI automata
    optimizations (packing, multiplexing, activation reduction).
``repro.host``
    Host-side serving stack: the sharded parallel partition-execution
    layer that fans board partitions across workers, query batching,
    and the shard service with its replica groups.
``repro.baselines``
    CPU linear scan and FPGA accelerator comparison implementations
    (the GPU is priced by its calibrated model in ``repro.perf``).
``repro.index``
    ITQ quantization and the kd-tree / k-means / LSH spatial indexes
    with the host-traversal AP integration.
``repro.perf`` / ``repro.workloads``
    Calibrated platform models (one ``ap_time`` prices every AP event),
    the metrics plane, and Table II workload parameters.

Quickstart::

    import numpy as np
    from repro import APSimilaritySearch

    data = np.random.default_rng(0).integers(0, 2, (1024, 64), dtype=np.uint8)
    queries = np.random.default_rng(1).integers(0, 2, (16, 64), dtype=np.uint8)
    engine = APSimilaritySearch(data, k=2)
    result = engine.search(queries)
    print(result.indices, result.distances)

Production knobs: ``APSimilaritySearch(..., parallel=4)`` executes
board partitions across four worker processes (results bit-identical
to sequential execution), and ``cache=True`` (or a shared
:class:`repro.ap.compiler.BoardImageCache`) reuses each board's packed
words across repeated searches and overlapping shards.  The
cycle-accurate simulator is the oracle every built-in workload is held
to: :func:`repro.core.engine.simulate_workload` (``simulate_knn`` for
kNN).
"""

from .core.engine import APSimilaritySearch, KnnResult

__version__ = "1.0.0"

__all__ = ["APSimilaritySearch", "KnnResult", "__version__"]
