"""Benchmark of hallmark: a seeded workload generator, a simulated chat
endpoint and Wikipedia, a span tracer, and the harness that runs them."""
