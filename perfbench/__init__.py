"""Benchmark of the groupfair CLI; see run.py."""
