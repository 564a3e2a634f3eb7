"""The repository benchmark: three workloads timed end to end and per layer.

Run one workload with ``python3 perfbench/run.py --workload <name>``; see
``perfbench/README.md`` for the workloads, the metrics and how to read them.
"""
