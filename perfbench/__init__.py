"""Citation benchmark: workloads, inputs and tracing (see README.md)."""
