"""Benchmark of the stretchgrid pricing pipeline; see README.md."""
