"""Repository benchmark: four cold, seeded workloads over ``repro``.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads, the metrics and the traced
per-layer pass.
"""
