"""Seeded benchmark of the quivertex package: four workloads, end-to-end
metrics, and a traced run with per-layer self times and call counts.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
