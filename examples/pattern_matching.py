#!/usr/bin/env python
"""Classic AP usage: many regex patterns scanned in parallel.

Before similarity search, the AP's flagship applications were pattern
mining — biological motif search, network signatures (paper Section I,
VIII).  This example compiles a panel of PCRE motifs onto one board
with :func:`repro.automata.regex.compile_regex`, runs them against a
synthetic DNA stream in a single pass, shrinks the board with the
prefix-merging optimizer, and shows the compiled footprint.

Run:  python examples/pattern_matching.py
"""

import numpy as np

from repro.ap.compiler import APCompiler
from repro.ap.device import GEN1
from repro.automata.network import AutomataNetwork
from repro.automata.optimize import optimize
from repro.automata.regex import compile_regex
from repro.automata.simulator import CompiledSimulator

MOTIFS = {
    1: "TATA[AT]A",          # TATA box
    2: "GAATTC",             # EcoRI site
    3: "GG(A|T)CC",          # Avall-like
    4: "CG{2,4}A",           # CpG-ish run
    5: "ATG(A|C|G|T){3,6}TAA",  # tiny ORF
}


def main() -> None:
    rng = np.random.default_rng(123)
    genome = "".join(rng.choice(list("ACGT"), size=4000))
    # plant a few known sites so something definitely fires
    genome = genome[:500] + "TATAAA" + genome[500:1500] + "GAATTC" + genome[1500:]

    board = AutomataNetwork("motif-panel")
    for code, pattern in MOTIFS.items():
        compile_regex(pattern, report_code=code, prefix=f"m{code}_", network=board)
    report = APCompiler(GEN1).compile(board)
    print(f"{board.name}: {report.n_components} components, "
          f"{report.n_stes} STEs, {report.n_reporting} reporting, "
          f"{report.blocks_used:.2f} blocks "
          f"({report.utilization:.4%} of the board)")

    sim = CompiledSimulator(board)
    res = sim.run(genome.encode())
    by_motif: dict[int, int] = {}
    for r in res.reports:
        by_motif[r.code] = by_motif.get(r.code, 0) + 1
    print(f"\nscanned {len(genome)} bases in one stream pass "
          f"({len(res.reports)} total match reports):")
    for code, pattern in MOTIFS.items():
        print(f"  motif {code} ({pattern}): {by_motif.get(code, 0)} sites")

    # verify against Python's re (overlapping-match semantics)
    import re as pyre

    for code, pattern in MOTIFS.items():
        ends = set()
        rx = pyre.compile(pattern)
        for i in range(len(genome)):
            m = rx.match(genome, i)
            while m:
                ends.add(i + len(m.group()) - 1)
                # also shorter alternatives ending earlier
                break
        # exact cross-check done in the test suite; here just sanity
    got = {r.cycle for r in res.reports if r.code == 2}
    exp = {m.end() - 1 for m in pyre.finditer("GAATTC", genome)}
    assert exp <= got
    print("\nEcoRI sites cross-checked against Python re")

    opt, stats = optimize(board)
    report_before = APCompiler().compile(board)
    report_after = APCompiler().compile(opt)
    print(f"\nprefix-merge optimizer: {stats.stes_before} -> "
          f"{stats.stes_after} STEs ({stats.ste_savings:.2f}x), "
          f"board area {report_before.blocks_used:.2f} -> "
          f"{report_after.blocks_used:.2f} blocks")
    res2 = CompiledSimulator(opt).run(genome.encode())
    assert sorted((r.cycle, r.code) for r in res2.reports) == sorted(
        (r.cycle, r.code) for r in res.reports
    )
    print("optimized board produces identical reports")


if __name__ == "__main__":
    main()
