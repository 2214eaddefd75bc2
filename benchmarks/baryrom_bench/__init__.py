"""Benchmark of the baryrom pipeline: workloads, references, tracing and metrics."""
