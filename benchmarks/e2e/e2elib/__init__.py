"""Request-path benchmark for the AP similarity-search serving stack.

``run.py`` is the entry point; ``README.md`` documents the protocol,
the workloads and every metric.
"""
