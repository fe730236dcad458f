"""Benchmark of the sharded tuning service (see run.py)."""
