"""Benchmarks: one module per paper figure / experiment table, plus the tier benches
(``bench_perf_*.py``, see docs/benchmarks.md)."""
