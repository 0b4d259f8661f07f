"""Micron AP device model: hardware hierarchy, compiler, runtime, and the
Section VII architectural extensions.

This package exports nothing itself: import each name from the module
that defines it (``from repro.ap.compiler import BoardImageCache``), so
a process loads only the modules it uses.
"""
