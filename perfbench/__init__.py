"""Host-time benchmark of the simulator: workloads, output checks, tracing.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md``.
"""
