"""Benchmark of the thzisac experiment runners; entry point is perfbench/run.py."""
