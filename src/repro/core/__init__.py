"""The paper's core contribution: the kNN automata design and engine.

Holds the Hamming/sorting macro builders (Fig. 2), the symbol-stream
codec (Fig. 2c / Fig. 3), the exact functional model, the workload
engine with partial reconfiguration, and the Section VI automata
optimizations.

This package exports nothing itself: import each name from the module
that defines it (``from repro.core.workload import WorkloadSearch``),
so a process loads only the modules it uses.
"""
