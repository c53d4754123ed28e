"""The repository benchmark: five workloads, end-to-end and per-layer metrics.

See ``perf/README.md``.  Entry point: ``python3 perf/run.py``.
"""
