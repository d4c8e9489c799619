"""Benchmark of the fleet service (see perfbench/README.md)."""
