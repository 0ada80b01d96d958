"""The repo benchmark: four workloads, end-to-end and per-layer metrics.

See ``perf/README.md``. Everything here measures ``src/repro`` from
outside — nothing under ``src/`` imports this package.
"""
