"""Shared low-level utilities: bit packing, popcount, and top-k selection.

This package exports nothing itself: import each name from the module
that defines it (``from repro.util.bitops import pack_bits``), so a
process loads only the modules it uses.
"""
