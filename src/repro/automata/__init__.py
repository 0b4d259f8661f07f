"""Automata substrate: symbol sets, network IR, ANML I/O, and simulator.

This subpackage is a from-scratch functional model of the Micron AP's
NFA execution layer (paper Section II-B): STEs with 8-bit symbol sets,
threshold counters with count/reset ports, boolean elements, start and
reporting attributes, and a cycle-accurate vectorized simulator.

This package exports nothing itself: import each name from the module
that defines it (``from repro.automata.network import
AutomataNetwork``), so a process loads only the modules it uses.
"""
