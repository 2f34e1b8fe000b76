"""Benchmark of the xlic workbench; see README.md in this directory."""
