"""The nlfsr benchmark: workloads, known-answer checks, metrics and tracing.

Run it with ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``perfbench/README.md`` describes
the workloads and metrics.
"""
