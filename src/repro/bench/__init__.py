"""Benchmark harness: paper workloads, runners and table renderers.

The runnable benchmarks live in ``benchmarks/`` at the repository root
(one file per paper table/figure); this package holds the shared
machinery so those files stay declarative.
"""
