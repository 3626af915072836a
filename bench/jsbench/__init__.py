"""Benchmark harness for jointseg: workloads, tracing, environment record."""
