"""Performance/energy models (paper Tables I-IV) and the metrics plane.

This package exports nothing itself: import each name from the module
that defines it (``from repro.perf.models import ap_time``), so a
process loads only the modules it uses.
"""
